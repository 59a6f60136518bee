#ifndef EXO2_PRIMITIVES_COMMON_H_
#define EXO2_PRIMITIVES_COMMON_H_

/**
 * @file
 * Shared machinery for scheduling primitives: rewrite accounting
 * (Fig. 9b's metric), safety-check helpers, fresh-name management,
 * buffer access rewriting, and forwarding helpers.
 */

#include <functional>
#include <string>
#include <vector>

#include "src/analysis/context.h"
#include "src/analysis/effects.h"
#include "src/cursor/cursor.h"
#include "src/cursor/edits.h"
#include "src/ir/errors.h"

namespace exo2 {

/**
 * Global accounting of primitive rewrites, reproducing the paper's
 * "number of primitive rewrites" metric (Fig. 9b). Every primitive
 * application bumps the `prim.rewrites` registry counter
 * (obs/metrics.h); callers count a schedule by the difference of two
 * rewrites() reads.
 */
class ScheduleStats
{
  public:
    static void count_rewrite(const std::string& primitive);
    static int64_t rewrites();
};

/** Throw SchedulingError with `msg` when `cond` is false. */
void require(bool cond, const std::string& msg);

/**
 * Require that `e` can be evaluated at `path` (before the statement
 * there, or at that gap) in place of where it came from: every name it
 * reads is bound there with the rank it is indexed with, and every
 * buffer element it reads is provably in bounds there. Primitives that
 * insert an expression at a new point (bind_expr_block, specialize)
 * call it.
 */
void require_evaluable_at(const ProcPtr& p, const Path& path,
                          const ExprPtr& e, const std::string& who);

/**
 * If the statement at `path` in `p` is a parallel loop, re-run
 * parallelize_loop's check on it (`loop_conflicts`, no reductions) and
 * refuse naming every conflicting access pair. Primitives that write
 * into a parallel loop (bind_config) or lift a buffer out of one
 * (lift_alloc) call it on their result.
 */
void require_par_loop_independent(const ProcPtr& p, const Path& path,
                                  const std::string& who);

/** All names bound anywhere in the proc (args, allocs, iterators). */
std::vector<std::string> used_names(const ProcPtr& p);

/** Throw if `name` is already used in `p`. */
void ensure_unused(const ProcPtr& p, const std::string& name);

/** A fresh variant of `base` unused in `p` (base, base_1, base_2...). */
std::string fresh_in(const ProcPtr& p, const std::string& base);

/**
 * Forward `c` to `p` and require it to be a statement node cursor.
 * (Implicit forwarding of Section 5.2: every primitive forwards its
 * cursor arguments to the input procedure's reference frame.)
 */
Cursor expect_stmt_cursor(const ProcPtr& p, const Cursor& c);

/** Forward and require a For statement cursor. */
Cursor expect_loop_cursor(const ProcPtr& p, const Cursor& c);

/** Forward and require a gap cursor. */
Cursor expect_gap_cursor(const ProcPtr& p, const Cursor& c);

/**
 * Require that no Alloc/WindowDecl at the top level of `list[lo, hi)`
 * binds a name still used by `list[hi, end)`. Primitives that narrow a
 * statement range's scope (wrapping it in a new For/If: specialize,
 * add_loop) must call this, or the binder would be captured by the new
 * scope and later uses left dangling.
 */
void require_binders_do_not_escape(const ProcPtr& p, const ListAddr& addr,
                                   int lo, int hi, const std::string& who);

/**
 * Whether any statement in `b` (recursively) binds `name` — as a For
 * iterator or an Alloc/WindowDecl. Substituting an expression that
 * reads `name` into such a block would capture those references;
 * primitives that rename iterators across blocks (fuse, join_loops)
 * must reject this.
 */
bool block_binds_name(const std::vector<StmtPtr>& b,
                      const std::string& name);

/**
 * Relocate forwarding: the statement list `old_list` moved wholesale to
 * `new_list` (same length and order); locations under it keep their
 * relative position, all other locations are forwarded by `rest`.
 */
ForwardFn fwd_relocate_list(ListAddr old_list, ListAddr new_list,
                            ForwardFn rest);

/**
 * Rewrite every access to buffer `name` in `b` that a binding of it
 * visible at the start of `b` reaches (the scope rule, ir/stmt.h):
 * `point_fn` maps point index vectors, `window_fn` maps window dims
 * (both must handle the buffer's access arity). Null fns mean identity.
 * A whole-buffer call argument is left as it is.
 */
using PointRewriteFn =
    std::function<std::vector<ExprPtr>(const std::vector<ExprPtr>&)>;
using WindowRewriteFn =
    std::function<std::vector<WindowDim>(const std::vector<WindowDim>&)>;

std::vector<StmtPtr> rewrite_buffer_access_block(
    const std::vector<StmtPtr>& b, const std::string& name,
    const PointRewriteFn& point_fn, const WindowRewriteFn& window_fn);

/**
 * Rename buffer `old_name` to `new_name` in the reads, windows, strides
 * and write targets in `b` that a binding of `old_name` visible at the
 * start of `b` reaches. A declaration is never renamed: a nested
 * re-declaration of `old_name` keeps its name and its uses keep theirs.
 */
std::vector<StmtPtr> rename_buffer_block(const std::vector<StmtPtr>& b,
                                         const std::string& old_name,
                                         const std::string& new_name);

/** Called with an access's point indices and its kind. */
using AccessFn =
    std::function<void(const std::vector<ExprPtr>&, AccessKind)>;

/**
 * Visit every access (Read / Window / write target) of buffer `name`
 * that a binding of it visible at the start of `b` reaches, outer
 * before inner; `descend` wraps each body's walk (`any_block_in_scope`).
 * The visitor receives point index expressions (windows are reported
 * once per dim pair via lo and hi-1 points) and the kind: a write
 * target is a Write or Reduce, everything else a Read, a window
 * included, whatever is done through it. A whole-buffer call argument
 * is a Read with no indices. Bounds inference uses it directly.
 */
void visit_buffer_accesses(const std::vector<StmtPtr>& b,
                           const std::string& name, const AccessFn& visit,
                           const ScopeDescendFn& descend);

/** Called with the Context at an access and its point indices. */
using AccessVisitFn =
    std::function<void(const Context&, const std::vector<ExprPtr>&)>;

/**
 * The same walk with the Context at each access: the walk extends
 * `ctx` in place (loops entered, guards assumed) and leaves it as it
 * found it. Used by primitives that must prove per-access facts
 * (expand_dim, resize_dim, stage_mem).
 */
void visit_buffer_accesses(Context& ctx, const std::vector<StmtPtr>& b,
                           const std::string& name,
                           const AccessVisitFn& visit);

/**
 * Visit accesses of buffer `name` within the scope of the allocation
 * at `alloc_path` (the statements following it in its list).
 */
void visit_alloc_scope_accesses(const ProcPtr& p, const Path& alloc_path,
                                const std::string& name,
                                const AccessVisitFn& visit);

}  // namespace exo2

#endif  // EXO2_PRIMITIVES_COMMON_H_
