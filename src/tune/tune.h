#ifndef EXO2_TUNE_TUNE_H_
#define EXO2_TUNE_TUNE_H_

/**
 * @file
 * Schedule autotuning (DESIGN.md §6): cost-guided beam search over the
 * scheduling-primitive library, with optional JIT-measured refinement.
 *
 * The tuner closes the loop the rest of the engine leaves open: the
 * primitive library supplies the moves, the machine description the
 * parameters (vector widths, tile sizes), the cost simulator the
 * objective, the in-process C JIT the ground truth, and the tri-oracle
 * the safety net. `autotune` searches schedule space from a naive
 * kernel and returns the best proc it found *plus the replayable
 * script that produces it* — the same self-describing `FuzzStep`
 * serialization the verification fuzzer records, so a tuning result
 * is reproducible from text alone.
 *
 * `TuneOpts` alone sets the search; the environment never overrides
 * it. EXO2_TUNE_VERBOSE=1 traces the search on stderr.
 *
 * Persistence (DESIGN.md §8): when EXO2_CACHE_DIR is set, validated
 * winners are published to the on-disk tuning cache keyed on
 * (proc digest, machine, native ISA, tune sizes) and replayed —
 * re-validated through the tri-oracle — on the next identical request.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/ir/proc.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/verify/fuzz.h"

namespace exo2 {
namespace tune {

using verify::FuzzStep;
using verify::SizeEnv;

/** Search configuration. `tune_sizes` is the only required field. */
struct TuneOpts
{
    // -- Search shape --------------------------------------------------
    /** Schedule states kept per round. 1 = greedy descent. */
    int beam_width = 6;
    /** Maximum search rounds (and so maximum script length). */
    int max_rounds = 8;
    /** Extra noisy greedy descents from the naive proc, merged into
     *  the candidate pool (random-restart mode). Deterministic under
     *  `seed`. */
    int random_restarts = 0;
    /** Seed for restart noise (the plain beam search is exhaustive per
     *  round and does not consume randomness). */
    uint64_t seed = 0;

    // -- Scoring -------------------------------------------------------
    /** Concrete sizes the cost simulator scores schedules at. Keep
     *  them small: relative ranking is what matters, and simulation
     *  time is proportional to trip counts. Required. */
    SizeEnv tune_sizes;
    /** Machine model for scoring. */
    CostConfig cost;
    /** Precision the action library vectorizes at. */
    ScalarType precision = ScalarType::F32;

    // -- JIT-measured refinement ----------------------------------------
    /** Re-rank the top-k cost-model survivors by real wall clock
     *  through the in-process C JIT (0 = cost model only). The JIT
     *  honours EXO2_NATIVE_ISA, so measured refinement sees the same
     *  native instruction lowering the final binary would. */
    int jit_topk = 0;
    /** Sizes for the JIT measurement; empty = `tune_sizes`. */
    SizeEnv measure_sizes;

    // -- Static lint gate -------------------------------------------------
    /** Lint every pool candidate (lint_proc, DESIGN.md §9) before the
     *  JIT/sandbox step; candidates with Error-level findings — proven
     *  out-of-bounds accesses, parallel loops carrying a dependence —
     *  are pruned without paying for a compile. Sound rewrites never
     *  trip it, so winners are unchanged; it is defense-in-depth
     *  against engine bugs and costs ~nothing (pool is tiny). */
    bool lint = true;

    // -- Validation ------------------------------------------------------
    /** Tri-oracle-check the winner against the input proc before
     *  reporting it (candidates that fail are discarded). */
    bool validate = true;
    /** Sizes for validation; empty = `tune_sizes`. */
    SizeEnv validate_sizes;
    uint64_t validate_seed = 4242;

    // -- Service behavior -------------------------------------------------
    /** Soft wall-clock budget in seconds (0 = unlimited). When the
     *  budget runs out mid-search the tuner stops expanding, skips the
     *  remaining JIT measurements, validates only the current leader,
     *  and returns best-so-far with `TuneResult::degraded` set — a
     *  deadline produces a usable (if weaker) schedule, never an
     *  error. */
    double deadline_seconds = 0.0;
    /** Consult/fill the persistent tuning cache when EXO2_CACHE_DIR is
     *  set (cache.h). Off = this call neither reads nor publishes. */
    bool use_cache = true;
};

/** Search-effort counters for one `autotune` call. */
struct TuneStats
{
    int rounds = 0;              ///< beam rounds actually run
    int actions_enumerated = 0;  ///< legal actions generated
    int states_scored = 0;       ///< cost simulations requested
    int dedup_skips = 0;         ///< states dropped by digest dedup
    int jit_measured = 0;        ///< candidates timed through the JIT
    /** Candidates whose JIT build or sandboxed measurement faulted
     *  (compile fail/timeout, dlopen fail, crash, hang, rlimit kill);
     *  each is scored infeasible and the search continues. */
    int jit_faults = 0;
    int validate_rejects = 0;    ///< candidates the tri-oracle rejected
    /** Winner candidates the tri-oracle rejected because the C oracle
     *  faulted (subset of the faults observed during validation; these
     *  also count toward validate_rejects). */
    int validate_faults = 0;
    /** Pool candidates run through the static lint gate, and the
     *  subset pruned before the cjit/sandbox step for Error-level
     *  findings (proven violations; see lint.h's soundness contract). */
    int lint_checked = 0;
    int lint_pruned = 0;
    /** Cost-cache deltas over this call (see cost_sim.h). */
    uint64_t cost_cache_hits = 0;
    uint64_t cost_cache_misses = 0;
};

/** Outcome of one `autotune` call. */
struct TuneResult
{
    ProcPtr best;                   ///< winning schedule (never null)
    std::vector<FuzzStep> script;   ///< replayable derivation of `best`
    double cost = 0.0;              ///< simulated cycles of `best`
    double naive_cost = 0.0;        ///< simulated cycles of the input
    /** Wall-clock seconds per call of `best` when JIT re-ranking ran,
     *  else negative. */
    double measured_seconds = -1.0;
    /** Whether `best` passed the tri-oracle (always false when
     *  `opts.validate` is off). */
    bool validated = false;
    /** The deadline expired mid-search: `best` is the best schedule
     *  found so far, not the end of the search. */
    bool degraded = false;
    /** `best` was replayed from the persistent tuning cache instead of
     *  searched for (still tri-oracle-validated when opts.validate). */
    bool from_cache = false;
    TuneStats stats;
};

/**
 * Search for a fast schedule of `p` on `machine`. Deterministic for a
 * fixed (proc, machine, opts) when `jit_topk == 0`; JIT re-ranking
 * introduces measurement noise into winner selection by design.
 * Throws SchedulingError when `tune_sizes` is empty or does not cover
 * the proc's size arguments.
 */
TuneResult autotune(const ProcPtr& p, const Machine& machine,
                    const TuneOpts& opts);

/**
 * Apply one schedule-script step. Understands the tuner vocabulary
 * (`t_divide`, `t_reorder`, `t_unroll`, `t_vectorize`, `t_interleave`,
 * `t_cse`, `t_licm`, `t_uaj`, `t_lift_alloc` — see actions.h) and
 * falls back to `verify::apply_fuzz_step` for every fuzzer op, so any
 * recorded script — tuner winner or fuzz repro — replays through this
 * one entry point. Throws SchedulingError when a step is inapplicable.
 */
ProcPtr apply_tune_step(const ProcPtr& p, const FuzzStep& step);

/** Fold `apply_tune_step` over a whole script. */
ProcPtr replay_script(const ProcPtr& p,
                      const std::vector<FuzzStep>& script);

/**
 * The persistent-cache identity of a tuning request: proc_digest(p),
 * the machine's name, the environment-selected native ISA
 * (EXO2_NATIVE_ISA — measured refinement and validation both honour
 * it, so results for different ISAs must not alias), and the
 * canonical rendering of `tune_sizes` ("K=48,M=48,N=48"; SizeEnv is
 * an ordered map, so the rendering is unique). Shared by `autotune`
 * and the scheduling daemon.
 */
cache::TuneKey tune_cache_key(const ProcPtr& p, const Machine& machine,
                              const SizeEnv& tune_sizes);

}  // namespace tune
}  // namespace exo2

#endif  // EXO2_TUNE_TUNE_H_
