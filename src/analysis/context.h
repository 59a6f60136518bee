#ifndef EXO2_ANALYSIS_CONTEXT_H_
#define EXO2_ANALYSIS_CONTEXT_H_

/**
 * @file
 * Program-point contexts: the facts (asserts, loop ranges, guards) in
 * scope at a location, packaged as a LinearSystem plus the ordered list
 * of enclosing loop binders. All primitive safety checks query these.
 *
 * A walk keeps one Context and takes it by reference: it opens a
 * `Context::Scope` before it enters a loop or assumes a guard, and the
 * scope pops the binder and the hypotheses when the walk leaves the
 * statement. Contexts, like systems, are move-only.
 */

#include <string>
#include <vector>

#include "src/analysis/linear.h"
#include "src/ir/proc.h"

namespace exo2 {

/** An enclosing loop binder with its (possibly symbolic) bounds. */
struct LoopBinder
{
    std::string name;
    ExprPtr lo;
    ExprPtr hi;
};

/**
 * The hypotheses in scope at a program point, with proof helpers.
 */
class Context
{
  public:
    class Scope;

    /** Build the context of the node at `path` in `p` (facts from
     *  asserts, size-arg nonnegativity, enclosing loops and guards).
     *  The node's own binder (if a For) is NOT in scope. */
    static Context at(const ProcPtr& p, const Path& path);

    /** Like `at`, but with the For at `path` entered (binder in scope). */
    static Context inside(const ProcPtr& p, const Path& path);

    const std::vector<LoopBinder>& binders() const { return binders_; }
    const LinearSystem& system() const { return sys_; }

    /** Push an extra loop binder (used when descending manually). */
    void enter_loop(const std::string& name, const ExprPtr& lo,
                    const ExprPtr& hi);

    /** Add a guard hypothesis. */
    void assume(const ExprPtr& pred) { sys_.add_pred(pred); }

    /** Assume the negation of `pred` where expressible (else branch). */
    void assume_not(const ExprPtr& pred) { sys_.add_pred_negated(pred); }

    // -- Proof helpers (conservative: false means "not provable") -------

    bool prove_pred(const ExprPtr& cond) const
    {
        return sys_.implies_pred(cond);
    }

    bool prove_eq(const ExprPtr& a, const ExprPtr& b) const
    {
        return sys_.implies_eq0(affine_sub(to_affine(a), to_affine(b)));
    }

    bool prove_le(const ExprPtr& a, const ExprPtr& b) const
    {
        return sys_.implies_ge0(affine_sub(to_affine(b), to_affine(a)));
    }

    bool prove_lt(const ExprPtr& a, const ExprPtr& b) const
    {
        Affine d = affine_sub(to_affine(b), to_affine(a));
        d.constant -= 1;
        return sys_.implies_ge0(d);
    }

    bool prove_ge0(const ExprPtr& e) const { return sys_.implies_ge0(e); }

    bool prove_divisible(const ExprPtr& e, int64_t k) const
    {
        return sys_.implies_divisible(e, k);
    }

  private:
    LinearSystem sys_;
    std::vector<LoopBinder> binders_;
};

/**
 * Guard over a Context: loops entered and guards assumed on the context
 * after it is constructed are removed from the binders and the system
 * when it ends, also on unwind. Scopes nest in block order, as
 * LinearSystem::Scope does.
 */
class Context::Scope
{
  public:
    explicit Scope(Context& ctx)
        : ctx_(ctx), binders_(ctx.binders_.size()), sys_(ctx.sys_)
    {
    }
    ~Scope() { ctx_.binders_.resize(binders_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Context& ctx_;
    size_t binders_;
    LinearSystem::Scope sys_;
};

/** Structural negation of a comparison predicate (null if impossible). */
ExprPtr negate_pred(const ExprPtr& cond);

}  // namespace exo2

#endif  // EXO2_ANALYSIS_CONTEXT_H_
