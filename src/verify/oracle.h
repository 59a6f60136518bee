#ifndef EXO2_VERIFY_ORACLE_H_
#define EXO2_VERIFY_ORACLE_H_

/**
 * @file
 * The tri-oracle equivalence check (DESIGN.md §4): given an original
 * procedure and a scheduled derivative, generate seeded random inputs,
 * run (1) the interpreter on the scheduled proc, (2) compiled C for
 * the scheduled proc, and (3) the interpreter on the original proc as
 * the reference, then compare every output buffer.
 *
 * Floating-point comparison uses a combined absolute/relative
 * tolerance: schedules legitimately reassociate reductions, and the
 * interpreter evaluates f32 arithmetic in double precision while C
 * rounds each operation; both effects are orders of magnitude below a
 * real indexing or rewrite bug on [-1, 1] inputs.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/errors.h"
#include "src/ir/proc.h"

namespace exo2 {
namespace verify {

/** Values for the size arguments of a procedure. */
using SizeEnv = std::map<std::string, int64_t>;

/** "K=48,M=48,N=48" -> SizeEnv. Throws ConfigError on a malformed pair
 *  or a value that is not a positive decimal integer. */
SizeEnv parse_sizes(const std::string& text);

/**
 * Evaluate an Index-typed expression (size-argument arithmetic,
 * including the object language's floor div/mod and predicates) under
 * `env`. Throws VerifyError on reads of names absent from `env`.
 */
int64_t eval_index_expr(const ExprPtr& e, const SizeEnv& env);

/** Whether every assertion of `p` holds under `env`. */
bool preds_hold(const ProcPtr& p, const SizeEnv& env);

/** Generated inputs for one run: args plus owned buffer storage. */
struct OracleInputs
{
    std::vector<RunArg> args;
    std::vector<std::unique_ptr<Buffer>> buffers;
};

/**
 * Build seeded random inputs for `p`: sizes from `env`, scalars and
 * buffer contents pseudo-random in [-1, 1] derived from `seed`.
 * Deterministic: same (p-signature, env, seed) gives the same inputs.
 */
OracleInputs make_inputs(const ProcPtr& p, const SizeEnv& env,
                         uint64_t seed);

/** Result of a tri-oracle comparison. */
struct TriOracleReport
{
    bool ok = true;
    /** Human-readable description of the first divergence. */
    std::string detail;
    /** When the C oracle faulted (compile failure/timeout, dlopen
     *  failure, or a sandboxed crash/hang of the kernel), the
     *  structured fault. A fault is reported as `ok == false` like a
     *  divergence, but consumers that must distinguish "the engine
     *  computed the wrong answer" from "the candidate could not be
     *  executed" (the fuzzer, the tuner) check `is_fault()`. */
    ::exo2::RuntimeFault fault;

    bool is_fault() const { return fault.is_fault(); }
};

/**
 * Run all three oracles and compare outputs. Never throws for
 * divergences (they are reported); throws VerifyError only for
 * harness-level failures (e.g. sizes violating the original's
 * assertions). `tol_scale` loosens the floating tolerances for
 * rounding-amplifying kernels (triangular solves).
 */
TriOracleReport tri_oracle_check(const ProcPtr& original,
                                 const ProcPtr& scheduled,
                                 const SizeEnv& env, uint64_t seed,
                                 double tol_scale = 1.0);

}  // namespace verify
}  // namespace exo2

#endif  // EXO2_VERIFY_ORACLE_H_
