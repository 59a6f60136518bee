#ifndef EXO2_CURSOR_EDITS_H_
#define EXO2_CURSOR_EDITS_H_

/**
 * @file
 * Atomic AST edits with canonical forwarding functions (Section 5.2):
 * insertion, deletion, replacement, movement, and wrapping. Every
 * scheduling primitive decomposes into these; the primitive's
 * forwarding function is the composition of its edits' forwarding
 * functions.
 */

#include <functional>
#include <string>
#include <vector>

#include "src/cursor/node.h"

namespace exo2 {

/** Identity forwarding (e.g. annotations that do not move code). */
ForwardFn fwd_identity();

/**
 * Forwarding for an in-place rewrite of the subtree at `prefix` that
 * does not preserve its internal structure: the node itself stays
 * valid, anything strictly below is invalidated.
 */
ForwardFn fwd_invalidate_below(Path prefix);

/** Forwarding for insertion of `count` stmts at gap `gap` of list `L`. */
ForwardFn fwd_insert(ListAddr addr, int gap, int count);

/** Forwarding for deletion of stmts [lo, hi) of list `L`. */
ForwardFn fwd_erase(ListAddr addr, int lo, int hi);

/** Forwarding for replacement of [lo, hi) by `count` new stmts. */
ForwardFn fwd_replace_range(ListAddr addr, int lo, int hi, int count);

/**
 * Forwarding for wrapping [lo, hi) into a new one-hole statement whose
 * hole is its Body list (e.g. a new For or If).
 */
ForwardFn fwd_wrap(ListAddr addr, int lo, int hi);

/**
 * Forwarding for unwrapping: the statement at `pos` is replaced by its
 * `count` former Body statements (e.g. remove_loop / dissolve an if).
 */
ForwardFn fwd_unwrap(ListAddr addr, int pos, int count);

/**
 * Forwarding for moving [lo, hi) of `src` to gap `dst_gap` of `dst`,
 * where `dst` and `dst_gap` are expressed in *post-deletion*
 * coordinates (i.e. as if [lo, hi) had already been removed).
 */
ForwardFn fwd_move(ListAddr src, int lo, int hi, ListAddr dst, int dst_gap);

// -- Whole-proc edit helpers (rebuild + provenance in one step) ---------

/** Insert statements at a gap. */
ProcPtr apply_insert(const ProcPtr& p, const ListAddr& addr, int gap,
                     std::vector<StmtPtr> stmts, const std::string& action);

/** Delete statements [lo, hi). */
ProcPtr apply_erase(const ProcPtr& p, const ListAddr& addr, int lo, int hi,
                    const std::string& action);

/** Replace statements [lo, hi) with `repl`. */
ProcPtr apply_replace_range(const ProcPtr& p, const ListAddr& addr, int lo,
                            int hi, std::vector<StmtPtr> repl,
                            const std::string& action);

/**
 * Replace the single statement at `path` with `repl`, *invalidating*
 * cursors below it (used when the new statement has unrelated shape).
 */
ProcPtr apply_replace_stmt(const ProcPtr& p, const Path& path, StmtPtr repl,
                           const std::string& action);

/**
 * Replace the statement at `path` with a same-shape variant (bounds,
 * name, memory, annotations changed; children lists untouched), with
 * identity forwarding.
 */
ProcPtr apply_replace_stmt_same_shape(const ProcPtr& p, const Path& path,
                                      StmtPtr repl,
                                      const std::string& action);

/** Replace the expression at `path` (exact path stays valid). */
ProcPtr apply_replace_expr(const ProcPtr& p, const Path& path, ExprPtr repl,
                           const std::string& action);

/**
 * Wrap [lo, hi) of a list into `wrapper(block)` (a For/If whose Body is
 * the block).
 */
ProcPtr apply_wrap(const ProcPtr& p, const ListAddr& addr, int lo, int hi,
                   const std::function<StmtPtr(std::vector<StmtPtr>)>& wrap,
                   const std::string& action);

/** Unwrap the For/If at `path`, splicing `contents` in its place. */
ProcPtr apply_unwrap(const ProcPtr& p, const Path& path,
                     std::vector<StmtPtr> contents,
                     const std::string& action);

/** Move [lo, hi) of `src` to `dst_gap` of `dst` (post-deletion coords). */
ProcPtr apply_move(const ProcPtr& p, const ListAddr& src, int lo, int hi,
                   const ListAddr& dst, int dst_gap,
                   const std::string& action);

/**
 * A batch of edits committed as ONE derived proc version.
 *
 * Primitives that decompose into several atomic edits (insert + expr
 * rewrite, wrap + wrap, ...) used to emit one provenance hop per edit;
 * a schedule of n such primitives then costs every later forward k·n
 * hops. An EditBatch stages the edits against a scratch body — each
 * edit is expressed in the coordinates AFTER the previous ones, exactly
 * as with chained apply_* calls — and `commit` derives a single new
 * version whose forwarding entry is the composition of the staged
 * edits' forwarding functions: one provenance hop, one spine in the
 * chain, regardless of how many edits the primitive needed.
 */
class EditBatch
{
  public:
    explicit EditBatch(ProcPtr p);

    /** The staged state: resolve paths/lists for the NEXT edit here. */
    const ProcPtr& staged() const { return work_; }

    /** Forward a location of the base proc through the staged edits. */
    std::optional<CursorLoc> forward(const CursorLoc& loc) const;

    void insert(const ListAddr& addr, int gap, std::vector<StmtPtr> stmts);
    void erase(const ListAddr& addr, int lo, int hi);
    void replace_range(const ListAddr& addr, int lo, int hi,
                       std::vector<StmtPtr> repl);
    /** Same-shape stmt replacement (identity forwarding). */
    void replace_stmt_same_shape(const Path& path, StmtPtr repl);
    /** Expression replacement (invalidates below `path`). */
    void replace_expr(const Path& path, ExprPtr repl);
    void wrap(const ListAddr& addr, int lo, int hi,
              const std::function<StmtPtr(std::vector<StmtPtr>)>& wrap_fn);

    /** Derive the new version; no-op batches return the base proc. */
    ProcPtr commit(const std::string& action);

  private:
    /** Adopt a rebuilt body + its forwarding fn as the staged state. */
    void stage(std::vector<StmtPtr> body, ForwardFn fwd);

    ProcPtr base_;
    ProcPtr work_;
    std::vector<ForwardFn> fwds_;
};

}  // namespace exo2

#endif  // EXO2_CURSOR_EDITS_H_
