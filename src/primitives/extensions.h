#ifndef EXO2_PRIMITIVES_EXTENSIONS_H_
#define EXO2_PRIMITIVES_EXTENSIONS_H_

/**
 * @file
 * Three primitives beyond the Appendix A catalogue that the Exo 2
 * implementation exposes for its vectorizer (Section 6.1.1):
 *
 *  - parallelize_reduction: re-associate a loop-invariant `+=` into
 *    per-lane partial sums (the paper's `parallelize_reductions` step;
 *    sound for the commutative, associative Reduce of the object
 *    language, matching the Reduce/Reduce commuting rule).
 *  - split_guard: distribute an if over its body statements.
 *  - bind_expr_block: CSE form of bind_expr across a statement block.
 */

#include <string>

#include "src/primitives/common.h"

namespace exo2 {

/**
 * Given `loop` = `for i in seq(0, N)` whose body reduces into a
 * loop-invariant location `target` (a buffer access or scalar), rewrite
 *
 *     for i: ...; t += e(i); ...
 * into
 *     acc: T[lanes] @ mem
 *     for l: acc[l] = 0
 *     for i: ...; acc[i % lanes] += e(i); ...
 *     for l: t += acc[l]
 *
 * placing the accumulator code immediately around `loop`. When `loop`
 * is an inner loop `for ii` nested in `for io` (post divide_loop), pass
 * the outer loop as `around`: the zero/reduce loops go around it and
 * the lane index is the inner iterator.
 */
ProcPtr parallelize_reduction(const ProcPtr& p, const Cursor& around,
                              const Cursor& lane_loop,
                              const Cursor& reduce_stmt,
                              const std::string& acc_name, int lanes,
                              const MemoryPtr& mem);

/** Distribute `if c: s1 .. sn` into `if c: s1; ...; if c: sn`. */
ProcPtr split_guard(const ProcPtr& p, const Cursor& if_stmt);

/**
 * Bind `expr` (an expression occurring in the block) to a fresh scalar
 * before the block and replace every structurally equal occurrence in
 * the block. Safety: no statement of the block writes or binds a name
 * that `expr` reads, and `expr` is evaluable before the block
 * (`require_evaluable_at`).
 */
ProcPtr bind_expr_block(const ProcPtr& p, const Cursor& block,
                        const ExprPtr& expr, const std::string& new_name);

/**
 * Widen a loop's iteration space, guarding the original body:
 * `for i in (lo, hi): s` becomes
 * `for i in (new_lo, new_hi): if lo <= i < hi: s`.
 * Safety: `new_lo <= lo` and `hi <= new_hi` must be provable. Bounds
 * may be null to keep the existing one. (This is ExoBLAS's round_loop
 * building block.)
 */
ProcPtr extend_loop_bound(const ProcPtr& p, const Cursor& loop,
                          const ExprPtr& new_lo, const ExprPtr& new_hi);

/**
 * Specialize a procedure by fixing a size argument to a constant
 * (Exo's `partial_eval`). The argument is removed from the signature.
 */
ProcPtr partial_eval(const ProcPtr& p, const std::string& size_arg,
                     int64_t value);

}  // namespace exo2

#endif  // EXO2_PRIMITIVES_EXTENSIONS_H_
