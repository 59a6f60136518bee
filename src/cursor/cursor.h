#ifndef EXO2_CURSOR_CURSOR_H_
#define EXO2_CURSOR_CURSOR_H_

/**
 * @file
 * Cursors (Section 5.2): multiple, stable, relative references into
 * object code. A cursor pairs a time coordinate (the Proc version it
 * was created on) with a spatial coordinate (a path into that proc's
 * AST) and supports navigation, inspection entry points, and
 * forwarding across scheduling actions.
 */

#include <string>
#include <vector>

#include "src/cursor/node.h"
#include "src/ir/proc.h"

namespace exo2 {

/**
 * A reference to a statement, expression, gap, or statement block
 * inside a specific version of a procedure.
 *
 * Navigation methods throw InvalidCursorError when the movement is
 * impossible (e.g. `parent()` of a top-level statement), which user
 * schedules exploit for control flow (Section 3.3).
 */
class Cursor
{
  public:
    /** An invalid cursor (useful as a sentinel; see `is_valid`). */
    Cursor() = default;

    Cursor(ProcPtr proc, CursorLoc loc)
        : proc_(std::move(proc)), loc_(std::move(loc)), valid_(true) {}

    /** An explicitly invalid cursor carrying its proc. */
    static Cursor invalid(ProcPtr proc)
    {
        Cursor c;
        c.proc_ = std::move(proc);
        return c;
    }

    bool is_valid() const { return valid_; }
    const ProcPtr& proc() const { return proc_; }
    const CursorLoc& loc() const { return loc_; }
    CursorKind kind() const { return loc_.kind; }

    /**
     * Two valid cursors are equal iff they denote the same location on
     * the same proc version. All invalid cursors compare equal — an
     * invalid cursor denotes nothing, so the proc it was invalidated on
     * is not observable through `is_valid()` and must not distinguish
     * them (forwarding the same dead cursor along different provenance
     * chains yields `==` results).
     */
    bool operator==(const Cursor& o) const
    {
        if (valid_ != o.valid_)
            return false;
        if (!valid_)
            return true;
        return proc_ == o.proc_ && loc_ == o.loc_;
    }

    // -- Resolution ------------------------------------------------------

    /** The statement this node cursor denotes. */
    StmtPtr stmt() const;

    /** The expression this node cursor denotes. */
    ExprPtr expr() const;

    /** The statements a block cursor denotes. */
    std::vector<StmtPtr> stmts() const;

    /** Convenience: statement kind name / iterator / target name. */
    std::string name() const;

    // -- Navigation (spatial frame modulation, Section 5.2) --------------

    Cursor parent() const;
    Cursor next(int k = 1) const;
    Cursor prev(int k = 1) const;

    /** Gap before / after this statement. */
    Cursor before() const;
    Cursor after() const;

    /** Block cursor over this For/If statement's body. */
    Cursor body() const;
    Cursor orelse_block() const;

    /** Node cursors for each statement of this For/If body. */
    std::vector<Cursor> body_list() const;

    /** Expression children. */
    Cursor cond() const;
    Cursor lo() const;
    Cursor hi() const;
    Cursor rhs() const;
    Cursor idx(int i) const;

    /**
     * Expand to a block: from a node cursor, the block
     * [i - delta_lo, i + 1 + delta_hi); from a block, widened on both
     * ends. Throws if the range leaves the containing list.
     */
    Cursor expand(int delta_lo, int delta_hi) const;

    /** This statement as a 1-element block. */
    Cursor as_block() const;

    /** Number of statements a block cursor spans. */
    int block_size() const;

    /** The i-th statement of a block cursor. */
    Cursor operator[](int i) const;

    /** The gap at the start / end of a block (for move targets). */
    Cursor block_before() const;
    Cursor block_after() const;

    // -- Scoped find ------------------------------------------------------

    /** First match of `pattern` within this subtree (see pattern.h). */
    Cursor find(const std::string& pattern) const;

    /** All matches of `pattern` within this subtree. */
    std::vector<Cursor> find_all(const std::string& pattern) const;

    /** First loop with iterator `name` within this subtree. */
    Cursor find_loop(const std::string& name) const;

  private:
    void require_valid() const;
    void require_kind(CursorKind k, const char* what) const;

    /** Index of this statement within its containing list. */
    int list_index() const;

    ProcPtr proc_;
    CursorLoc loc_;
    bool valid_ = false;
};

/**
 * Forward `c` (made on an ancestor version) to proc `p` by composing
 * the forwarding functions recorded in the provenance chain
 * (Section 5.2, "Forwarding"). Identity if `c` is already on `p`.
 * Returns an invalid cursor if any step invalidates it; throws
 * InvalidCursorError if `c`'s proc is not an ancestor of `p`.
 */
Cursor forward_cursor(const ProcPtr& p, const Cursor& c);

}  // namespace exo2

#endif  // EXO2_CURSOR_CURSOR_H_
