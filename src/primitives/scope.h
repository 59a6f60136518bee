#ifndef EXO2_PRIMITIVES_SCOPE_H_
#define EXO2_PRIMITIVES_SCOPE_H_

/**
 * @file
 * Code rearrangement (Appendix A.2) and scope transformations
 * (Appendix A.3).
 */

#include <string>
#include <vector>

#include "src/primitives/common.h"

namespace exo2 {

/**
 * Swap two adjacent statements (or blocks: pass a Block cursor covering
 * both halves and the split index). `s` must be a block of exactly two
 * statements, or use the (stmt, stmt) overload.
 */
ProcPtr reorder_stmts(const ProcPtr& p, const Cursor& first,
                      const Cursor& second);

/** Swap the two halves of a two-statement block cursor. */
ProcPtr reorder_stmts(const ProcPtr& p, const Cursor& pair_block);

/** Commute the operands of a `+` or `*` expression. */
ProcPtr commute_expr(const ProcPtr& p, const Cursor& expr);

/**
 * Wrap `stmt` (or block) in a chain of specialization branches:
 * `if conds[0]: s else: if conds[1]: s else: ... else: s`. Each
 * condition must be evaluable before the block (`require_evaluable_at`).
 */
ProcPtr specialize(const ProcPtr& p, const Cursor& stmt,
                   const std::vector<ExprPtr>& conds);

/**
 * Fuse two adjacent loops (or ifs) with equal bounds (or condition).
 *
 * When the plain commutation check fails, fusion is still accepted if
 * the first loop is a *pure recomputation producer* for the second:
 * every write of the conflicting buffer is an Assign whose value
 * depends only on never-written inputs (so overlapping recomputation
 * writes identical values), and within each iteration the first loop's
 * writes cover the second's reads (proved by bounds inference). This
 * is what makes Halide-style compute_at with recompute expressible
 * (Section 6.3.2, Figure 10).
 */
ProcPtr fuse(const ProcPtr& p, const Cursor& scope1, const Cursor& scope2);

/**
 * Interchange the For/If at `scope` with its parent For/If; `scope`
 * must be the only statement in the parent's body (Appendix A.3).
 */
ProcPtr lift_scope(const ProcPtr& p, const Cursor& scope);
ProcPtr lift_scope(const ProcPtr& p, const std::string& loop_name);

}  // namespace exo2

#endif  // EXO2_PRIMITIVES_SCOPE_H_
