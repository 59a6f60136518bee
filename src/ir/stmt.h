#ifndef EXO2_IR_STMT_H_
#define EXO2_IR_STMT_H_

/**
 * @file
 * Statements of the Exo 2 object language.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/expr.h"
#include "src/ir/memory.h"
#include "src/ir/path.h"

namespace exo2 {

class Stmt;
class Proc;
using StmtPtr = std::shared_ptr<const Stmt>;
using ProcPtr = std::shared_ptr<const Proc>;

template <class F>
StmtPtr map_exprs(const StmtPtr& s, F&& f);

/** Statement node kinds. */
enum class StmtKind : uint8_t {
    Assign,      ///< `y[i] = e`
    Reduce,      ///< `y[i] += e`
    Alloc,       ///< `a : f32[n, m] @ DRAM`
    For,         ///< `for i in seq(lo, hi): body`
    If,          ///< `if cond: body else: orelse`
    Pass,        ///< no-op
    Call,        ///< call to a sub-procedure or hardware instruction
    WriteConfig, ///< `cfg.field = e` (Appendix A.8)
    WindowDecl,  ///< `w = a[0:n, j]` window aliasing statement
};

/** Execution mode of a For loop (Appendix A.7 parallelize_loop). */
enum class LoopMode : uint8_t {
    Seq,
    Par,
};

/**
 * One inline memo slot for per-subtree summaries (see cursor/accel.h).
 * Hot scans (pattern search pruning, binder-name probes) read one slot
 * per visited statement; keeping the cache inside the node makes that a
 * pointer dereference instead of a global hash-map probe. The IR is
 * immutable so a filled slot never goes stale; `epoch` implements cache
 * clearing for the ablation kill switches (a slot is valid only while
 * its epoch matches `cursor_accel_epoch()`). Single-threaded like the
 * analysis memo caches (analysis/memo.h).
 */
struct SubtreeMemoSlot
{
    SubtreeMemoSlot() = default;
    /** Copies start cold: the `with_*` rebuilders shallow-copy the
     *  node and then change children, so an inherited (or retained)
     *  summary would describe the wrong subtree. */
    SubtreeMemoSlot(const SubtreeMemoSlot&) {}
    SubtreeMemoSlot& operator=(const SubtreeMemoSlot&)
    {
        epoch = 0;
        data.reset();
        return *this;
    }

    mutable uint64_t epoch = 0;  ///< 0 = never filled
    mutable std::shared_ptr<const void> data;
};

/**
 * An immutable statement node. Like Expr, a single tagged class: the
 * uniform child-access interface is what paths and forwarding traverse.
 */
class Stmt
{
  public:
    StmtKind kind() const { return kind_; }

    /** Memo slot of the pattern subtree index (cursor/pattern.cc). */
    const SubtreeMemoSlot& pattern_memo() const { return pattern_memo_; }

    /** Memo slot of the binder-name summary (primitives/common.cc). */
    const SubtreeMemoSlot& names_memo() const { return names_memo_; }

    /** Cached 64-bit structural hash: `stmt_equal(a, b)` implies equal
     *  hashes, so a hash mismatch rejects equality in O(1). Computed
     *  once per node by the factories / rebuilders over exactly the
     *  fields `stmt_equal` compares (callee and memory by pointer). */
    uint64_t structural_hash() const { return hash_; }

    /** Target name (Assign/Reduce/Alloc/WindowDecl), callee name (Call),
     *  or config name (WriteConfig). */
    const std::string& name() const { return name_; }

    /** Config field (WriteConfig). */
    const std::string& field() const { return field_; }

    /** LHS indices (Assign/Reduce). */
    const std::vector<ExprPtr>& idx() const { return idx_; }

    /** RHS (Assign/Reduce/WriteConfig), window expr (WindowDecl). */
    const ExprPtr& rhs() const { return rhs_; }

    /** Element type (Assign/Reduce/Alloc/WindowDecl). */
    ScalarType type() const { return type_; }

    /** Buffer dims (Alloc); empty means scalar. */
    const std::vector<ExprPtr>& dims() const { return dims_; }

    /** Memory space (Alloc). */
    const MemoryPtr& mem() const { return mem_; }

    /** Loop iterator (For). */
    const std::string& iter() const { return iter_; }
    const ExprPtr& lo() const { return lo_; }
    const ExprPtr& hi() const { return hi_; }
    LoopMode loop_mode() const { return loop_mode_; }

    /** Condition (If). */
    const ExprPtr& cond() const { return cond_; }

    /** Loop / then-branch body (For/If). */
    const std::vector<StmtPtr>& body() const { return body_; }

    /** Else branch (If); may be empty. */
    const std::vector<StmtPtr>& orelse() const { return orelse_; }

    /** Callee procedure (Call). */
    const ProcPtr& callee() const { return callee_; }

    /** Call arguments (Call). */
    const std::vector<ExprPtr>& args() const { return args_; }

    // -- Factories -------------------------------------------------------

    static StmtPtr make_assign(std::string name, std::vector<ExprPtr> idx,
                               ExprPtr rhs, ScalarType t);
    static StmtPtr make_reduce(std::string name, std::vector<ExprPtr> idx,
                               ExprPtr rhs, ScalarType t);
    static StmtPtr make_alloc(std::string name, ScalarType t,
                              std::vector<ExprPtr> dims, MemoryPtr mem);
    static StmtPtr make_for(std::string iter, ExprPtr lo, ExprPtr hi,
                            std::vector<StmtPtr> body,
                            LoopMode mode = LoopMode::Seq);
    static StmtPtr make_if(ExprPtr cond, std::vector<StmtPtr> body,
                           std::vector<StmtPtr> orelse = {});
    static StmtPtr make_pass();
    static StmtPtr make_call(ProcPtr callee, std::vector<ExprPtr> args);
    static StmtPtr make_write_config(std::string cfg, std::string field,
                                     ExprPtr rhs);
    static StmtPtr make_window_decl(std::string name, ExprPtr window,
                                    ScalarType t);

    // -- Rebuilders (shallow copies with one field replaced) -------------

    StmtPtr with_body(std::vector<StmtPtr> body) const;
    StmtPtr with_orelse(std::vector<StmtPtr> orelse) const;
    StmtPtr with_rhs(ExprPtr rhs) const;
    StmtPtr with_cond(ExprPtr cond) const;
    StmtPtr with_bounds(ExprPtr lo, ExprPtr hi) const;
    StmtPtr with_idx(std::vector<ExprPtr> idx) const;
    StmtPtr with_dims(std::vector<ExprPtr> dims) const;
    StmtPtr with_args(std::vector<ExprPtr> args) const;
    StmtPtr with_name(std::string name) const;
    StmtPtr with_mem(MemoryPtr mem) const;
    StmtPtr with_type(ScalarType t) const;
    StmtPtr with_loop_mode(LoopMode mode) const;
    StmtPtr with_callee(ProcPtr callee) const;

    /** Whether this statement kind writes data (Assign/Reduce/Call/...). */
    bool is_write() const
    {
        return kind_ == StmtKind::Assign || kind_ == StmtKind::Reduce;
    }

  private:
    template <class F>
    friend StmtPtr map_exprs(const StmtPtr& s, F&& f);

    Stmt() = default;

    /** Recompute hash_ from the current fields (factories, with_*). */
    void rehash();

    uint64_t hash_ = 0;
    SubtreeMemoSlot pattern_memo_;
    SubtreeMemoSlot names_memo_;
    StmtKind kind_ = StmtKind::Pass;
    std::string name_;
    std::string field_;
    std::vector<ExprPtr> idx_;
    ExprPtr rhs_;
    ScalarType type_ = ScalarType::F32;
    std::vector<ExprPtr> dims_;
    MemoryPtr mem_;
    std::string iter_;
    ExprPtr lo_;
    ExprPtr hi_;
    LoopMode loop_mode_ = LoopMode::Seq;
    ExprPtr cond_;
    std::vector<StmtPtr> body_;
    std::vector<StmtPtr> orelse_;
    ProcPtr callee_;
    std::vector<ExprPtr> args_;
};

/**
 * Whether `pred` holds for one of the statement's own expressions, not
 * those of its body: idx, rhs, dims, lo, hi, cond and args, in that
 * (path) order, stopping at the first hit. A field a kind does not have
 * is empty, so the walk needs no case per kind; a visit that must see
 * every expression returns false.
 */
template <class Pred>
bool
any_expr(const StmtPtr& s, Pred&& pred)
{
    for (const ExprPtr& e : s->idx()) {
        if (pred(e))
            return true;
    }
    if (s->rhs() && pred(s->rhs()))
        return true;
    for (const ExprPtr& e : s->dims()) {
        if (pred(e))
            return true;
    }
    if ((s->lo() && pred(s->lo())) || (s->hi() && pred(s->hi())) ||
        (s->cond() && pred(s->cond()))) {
        return true;
    }
    for (const ExprPtr& e : s->args()) {
        if (pred(e))
            return true;
    }
    return false;
}

/**
 * `s` with each of its own expressions `e` (as `any_expr` lists them)
 * replaced by `f(e)`; the body is kept. Expressions are mapped in path
 * order, and `s` itself is returned when none changed, so an unchanged
 * statement keeps its identity (and its memo slots).
 */
template <class F>
StmtPtr
map_exprs(const StmtPtr& s, F&& f)
{
    std::shared_ptr<Stmt> out;  // a copy of `s`, made at the first change
    auto one = [&](ExprPtr Stmt::*field) {
        const ExprPtr& in = (*s).*field;
        if (!in)
            return;
        ExprPtr e = f(in);
        if (e == in)
            return;
        if (!out)
            out.reset(new Stmt(*s));
        (*out).*field = std::move(e);
    };
    auto list = [&](std::vector<ExprPtr> Stmt::*field) {
        const std::vector<ExprPtr>& in = (*s).*field;
        for (size_t i = 0; i < in.size(); i++) {
            ExprPtr e = f(in[i]);
            if (e == in[i])
                continue;
            if (!out)
                out.reset(new Stmt(*s));
            ((*out).*field)[i] = std::move(e);
        }
    };
    list(&Stmt::idx_);
    one(&Stmt::rhs_);
    list(&Stmt::dims_);
    one(&Stmt::lo_);
    one(&Stmt::hi_);
    one(&Stmt::cond_);
    list(&Stmt::args_);
    if (!out)
        return s;
    out->rehash();
    return out;
}

/** Whether `s` is an Alloc or WindowDecl of `name`. */
bool declares(const StmtPtr& s, const std::string& name);

/**
 * @name The scope rule
 *
 * A binding of `name` visible at a statement is seen by that statement
 * and everything below it, except
 *  - the body of a For whose iterator is `name`, and
 *  - the statements of a list after one that re-declares `name`
 *    (`declares`); the re-declaring statement's own dims or window
 *    still see the outer binding.
 *
 * Every walk that rewrites or looks up the references one binding
 * reaches goes through the helpers below, which apply a one-statement
 * callback to exactly the statements in that scope, each before the
 * statements below it. The callback handles the statement's own
 * expressions and write target (`map_exprs` / `any_expr`), never its
 * body: the helper decides which bodies it reaches.
 * @{
 */

/** A rewrite of one statement's own parts. */
using StmtMapFn = std::function<StmtPtr(const StmtPtr&)>;

/** A test of one statement's own parts. */
using StmtPredFn = std::function<bool(const StmtPtr&)>;

/**
 * Runs the walk of one body (`Body` or `Orelse`) of the For or If `s`
 * and returns its result. A walk that carries facts in a Context opens
 * a scope here, enters the loop or assumes the guard, then calls
 * `walk`. Every If is entered on both sides, an empty else included.
 */
using ScopeDescendFn = std::function<bool(
    const StmtPtr& s, PathLabel body, const std::function<bool()>& walk)>;

/** `s` with `f` applied to every statement in the scope of a binding
 *  of `name` visible at `s`; unchanged statements keep their identity. */
StmtPtr map_in_scope(const StmtPtr& s, const std::string& name,
                     const StmtMapFn& f);

/** `map_in_scope` over a list that sees the binding from its start. */
std::vector<StmtPtr> map_block_in_scope(const std::vector<StmtPtr>& b,
                                        const std::string& name,
                                        const StmtMapFn& f);

/** Whether `pred` holds for a statement in the scope of a binding of
 *  `name` visible at `s`, visited outer before inner and stopping at
 *  the first hit. `descend`, if given, wraps each body's walk. */
bool any_in_scope(const StmtPtr& s, const std::string& name,
                  const StmtPredFn& pred,
                  const ScopeDescendFn& descend = nullptr);

/** `any_in_scope` over a list that sees the binding from its start. */
bool any_block_in_scope(const std::vector<StmtPtr>& b,
                        const std::string& name, const StmtPredFn& pred,
                        const ScopeDescendFn& descend = nullptr);

/**
 * Whether `b` uses `name` from outside: a statement in the scope of a
 * binding of `name` visible at the start of `b` reads, windows or
 * writes it (`stmt_uses_here`). A use after a re-declaration, or under
 * a For iterator of that name, refers to another binder, and a bare
 * re-declaration is not a use.
 */
bool block_uses_unshadowed(const std::vector<StmtPtr>& b,
                           const std::string& name);

/**
 * The capture check: the name of a top-level Alloc or WindowDecl of `a`
 * that `b` uses from outside, or "" when there is none. Placing `b`
 * after `a` in one list would bind that use to `a`'s declaration.
 * Every primitive that splices one list after another calls it.
 */
std::string captured_name(const std::vector<StmtPtr>& a,
                          const std::vector<StmtPtr>& b);

/** @} */

/** Deep structural equality of statements (and their subtrees). */
bool stmt_equal(const StmtPtr& a, const StmtPtr& b);

/** Deep structural equality of statement blocks. */
bool block_equal(const std::vector<StmtPtr>& a, const std::vector<StmtPtr>& b);

/** Combined structural hash of a statement block. */
uint64_t block_hash(const std::vector<StmtPtr>& b);

/**
 * Substitute scalar variable `name` by expression `repl` in the
 * expressions of the scope of `name` at `s` (`map_in_scope`). Does not
 * rename binders.
 */
StmtPtr stmt_subst(const StmtPtr& s, const std::string& name,
                   const ExprPtr& repl);

/** Substitute in a whole block. */
std::vector<StmtPtr> block_subst(const std::vector<StmtPtr>& b,
                                 const std::string& name,
                                 const ExprPtr& repl);

/** True if one of the statement's own expressions reads `name`, or the
 *  statement writes to it; its body is not looked at. */
bool stmt_uses_here(const StmtPtr& s, const std::string& name);

/** True if any expression under `s` reads `name`, or a statement under
 *  `s` writes or declares it (no scope rule: any binding counts). */
bool stmt_uses(const StmtPtr& s, const std::string& name);

}  // namespace exo2

#endif  // EXO2_IR_STMT_H_
