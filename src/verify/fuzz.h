#ifndef EXO2_VERIFY_FUZZ_H_
#define EXO2_VERIFY_FUZZ_H_

/**
 * @file
 * The seeded schedule fuzzer and divergence minimizer (DESIGN.md §4).
 *
 * A fuzz run draws a random chain of scheduling primitives over a
 * kernel — primitives whose safety checks reject (SchedulingError /
 * InvalidCursorError) are simply skipped, mirroring how user schedules
 * use errors for control flow — then pushes the result through the
 * tri-oracle (oracle.h). Every applied step is recorded as a
 * self-describing FuzzStep so a failing chain replays from the
 * (kernel, seed, steps) triple alone, and delta-debugs down to a
 * minimal failing sub-chain.
 *
 * The step vocabulary is shared: the autotuner's moves (the `t_*` ops,
 * src/tune/actions.h) are steps of this same dispatch, resolved against
 * the same site walk, so the fuzzer draws them too and a tuner winner
 * replays through `apply_fuzz_step` like any fuzz repro.
 *
 * Reproducing a failure locally:
 *     FuzzResult r = fuzz_schedule(kernels::find_kernel("saxpy").proc,
 *                                  {{"n", 24}}, /seed/ 1234);
 * prints `fuzz_repro_string("saxpy", 1234, r)` on failure — or replay
 * `r.minimized` directly with `apply_fuzz_step`.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cursor/cursor.h"
#include "src/ir/proc.h"
#include "src/verify/oracle.h"

namespace exo2 {
namespace verify {

/**
 * One recorded scheduling action. `op` names the primitive; `n` holds
 * integer parameters (target ordinals first, then factors, offsets,
 * flags) and `s` holds names (fresh names, or a machine and a
 * precision). A target ordinal indexes one list of the site walk
 * (`Sites`) of the proc the step applies to. The fuzzer's own ops
 * resolve it modulo the list's length; the tuner's `t_*` ops are
 * strict, and an out-of-range ordinal throws SchedulingError, since it
 * means the script is replayed against the wrong proc. Replaying the
 * same steps on the same proc is deterministic.
 */
struct FuzzStep
{
    std::string op;
    std::vector<int64_t> n;
    std::vector<std::string> s;
};

/** Render a step as `op[n0,n1,...;s0,s1,...]`, e.g. `divide[1,4,2;io,ii]`
 *  (the `;` and names only when there are names). */
std::string step_to_string(const FuzzStep& step);

/**
 * Parse `step_to_string` output back into a step (inverse round-trip:
 * `step_from_string(step_to_string(s)) == s`). Throws SchedulingError
 * on malformed input. This is what makes recorded schedule scripts —
 * fuzzer repros and autotuner winners alike — replayable from text.
 */
FuzzStep step_from_string(const std::string& text);

/** Render a whole schedule script, one step per line. */
std::string script_to_string(const std::vector<FuzzStep>& steps);

/** Parse a script: one step per line; blank lines, `#` comment
 *  lines, surrounding whitespace, and trailing CRs are ignored, so
 *  annotated repro files and cache entries replay unchanged. */
std::vector<FuzzStep> script_from_string(const std::string& text);

/**
 * The site walk of one proc version: cursor collections in pre-order
 * (a statement, then its body, then its orelse). Step ordinals index
 * these lists.
 */
struct Sites
{
    std::vector<Cursor> loops;
    std::vector<Cursor> stmts;
    std::vector<Cursor> writes;          ///< Assign / Reduce
    std::vector<Cursor> scalar_assigns;  ///< Assign with no indices
    std::vector<Cursor> allocs;
    std::vector<Cursor> with_next;       ///< stmts with a next sibling
    std::vector<Cursor> scopes;          ///< For/If nested under For/If
    std::vector<std::pair<Cursor, Cursor>> for_pairs;  ///< adjacent Fors
    std::vector<std::pair<Cursor, Cursor>> if_pairs;   ///< adjacent Ifs
};

/** Walk `p` once. */
Sites walk_sites(const ProcPtr& p);

/**
 * Apply one step to `p`: every fuzzer op and every tuner `t_*` op
 * (src/tune/actions.h). Throws SchedulingError (or InvalidCursorError)
 * when the step is inapplicable — callers skip such steps.
 */
ProcPtr apply_fuzz_step(const ProcPtr& p, const FuzzStep& step);

/** The same, against a precomputed `walk_sites(p)`: callers that try
 *  many steps on one proc walk it once. */
ProcPtr apply_fuzz_step(const ProcPtr& p, const Sites& sites,
                        const FuzzStep& step);

/** Outcome of one fuzzed schedule. */
struct FuzzResult
{
    enum class Status {
        Ok,          ///< all oracles agree
        Divergence,  ///< oracles disagree (engine bug)
        EngineError, ///< a primitive threw InternalError (engine bug)
        Fault,       ///< the C oracle faulted (compile fail/timeout,
                     ///< dlopen fail, kernel crash/hang) — recorded as
                     ///< a replayable repro, campaign continues
        LintUnsound, ///< the lint oracle proved the schedule safe, yet
                     ///< the C oracle crashed executing it with no
                     ///< fault injection active — a lint soundness bug
                     ///< (fails the run with a ddmin repro)
    };
    Status status = Status::Ok;
    std::string detail;
    /** The static lint verdict on the scheduled proc (the fourth
     *  oracle, DESIGN.md §9): `lint_safe` is `LintReport::proven_safe`
     *  — a strong claim that every access is in-bounds for all
     *  admissible sizes — and `lint_errors` counts Error-level
     *  findings (proven violations; zero on a healthy engine, since
     *  every applied primitive is a sound rewrite). */
    bool lint_safe = false;
    int lint_errors = 0;
    /** Structured fault when status == Fault. */
    ::exo2::RuntimeFault fault;
    std::vector<FuzzStep> applied;    ///< steps that took effect
    /** Minimal failing sub-chain. For a Fault under fault injection
     *  (EXO2_FAULTS) it is the full applied chain — the replayable
     *  repro script — since injection makes per-step replay
     *  probabilistic. */
    std::vector<FuzzStep> minimized;
    ProcPtr scheduled;                ///< final proc (null on EngineError)
};

/**
 * Draw and apply a random primitive chain (at most `max_steps` applied
 * steps) on `p`, then tri-oracle-check it against `p` with inputs
 * derived from `seed`. On failure the applied chain is minimized by
 * repeated single-step removal (ddmin-style) before returning, except
 * for a fault drawn by fault injection.
 */
FuzzResult fuzz_schedule(const ProcPtr& p, const SizeEnv& env,
                         uint64_t seed, int max_steps = 8);

/** Full reproduction recipe for a failing result. */
std::string fuzz_repro_string(const std::string& kernel, uint64_t seed,
                              const FuzzResult& r);

}  // namespace verify
}  // namespace exo2

#endif  // EXO2_VERIFY_FUZZ_H_
