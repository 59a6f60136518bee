#ifndef EXO2_ANALYSIS_LINEAR_H_
#define EXO2_ANALYSIS_LINEAR_H_

/**
 * @file
 * A small linear integer arithmetic checker.
 *
 * This replaces the SMT solver Exo 2 relies on. Constraints are affine
 * inequalities over atoms (variables and opaque div/mod subterms).
 * Floor-division and modulo atoms are axiomatized (`e == c*(e/c) + e%c`,
 * `0 <= e%c < c`), then queries are decided by Fourier–Motzkin
 * elimination with integer tightening. The checker is conservative:
 * "not provable" answers reject a rewrite, never accept one.
 *
 * No query copies a system: extra hypotheses go on the system itself
 * through a `LinearSystem::Scope` (below), in the order a copy would
 * have held them, so memo keys and answers are those of a copy.
 */

#include <vector>

#include "src/analysis/affine.h"

namespace exo2 {

/** A conjunction of affine constraints `a >= 0`. Move-only: extend a
 *  system with a Scope instead of copying it. */
class LinearSystem
{
  public:
    class Scope;

    LinearSystem() = default;
    LinearSystem(LinearSystem&&) = default;
    LinearSystem& operator=(LinearSystem&&) = default;

    /** Add constraint `a >= 0`, axiomatizing new div/mod atoms. */
    void add_ge0(const Affine& a);

    /** Add constraint `a == 0`. */
    void add_eq0(const Affine& a);

    /** Add `e >= 0` for an expression. */
    void add_expr_ge0(const ExprPtr& e);

    /**
     * Add a predicate (comparison / conjunction) as a hypothesis.
     * Disjunctions and non-linear predicates are ignored
     * (conservatively weakening the context).
     */
    void add_pred(const ExprPtr& cond);

    /**
     * Add the negation of a predicate where expressible: a flipped
     * comparison, `a == b` for `a != b`, and both negated sides of a
     * disjunction. It assumes at least what
     * `add_pred(negate_pred(cond))` does, so every else branch gets its
     * facts through here.
     */
    void add_pred_negated(const ExprPtr& cond);

    /**
     * Is the system infeasible over the integers? Sound "yes": a true
     * return guarantees no integer solution. May answer false (unknown)
     * for feasible or hard systems.
     *
     * Memoized process-wide on a commutative digest of the constraint
     * multiset (see analysis/memo.h): infeasibility is a property of
     * the constraint multiset, so a cached "yes" stays sound no matter
     * the insertion order that produced it.
     */
    bool infeasible() const;

    /** Is `e >= 0` implied for all integer solutions? */
    bool implies_ge0(const ExprPtr& e) const;
    bool implies_ge0(const Affine& a) const;

    /** Is `e == 0` implied? */
    bool implies_eq0(const Affine& a) const;

    /** Is predicate `cond` implied? (comparisons and conjunctions) */
    bool implies_pred(const ExprPtr& cond) const;

    /** Is `e` divisible by `k` for all solutions? */
    bool implies_divisible(const ExprPtr& e, int64_t k) const;

    size_t size() const { return ge0_.size(); }

  private:
    void axiomatize_atoms(const Affine& a);

    /** Run Fourier–Motzkin without consulting the memo cache. */
    bool infeasible_uncached() const;

    // Mutable: a Scope extends the system's own state for the length of
    // a const query and restores it before the query returns, so every
    // const member leaves the system as it found it. This is safe for
    // the reason the memo caches are (analysis/memo.h): the analyses are
    // single-threaded, and the scoring pool never touches a system.
    mutable std::vector<Affine> ge0_;
    mutable std::vector<AtomKey> axiomatized_;

    /** Incremental order-insensitive digest of ge0_ (two independent
     *  commutative sums), used as the memo key for implication and
     *  infeasibility queries. Updated by add_ge0. */
    mutable uint64_t sig1_ = 0;
    mutable uint64_t sig2_ = 0;
};

/**
 * Scoped hypotheses over an existing system. Constraints added through
 * (or after) the guard are removed when it ends, also on unwind: the
 * rows, the div/mod axioms they introduced and the digest all return to
 * their state at construction. Scopes nest and must end in reverse
 * order of construction, which block scoping gives for free. Queries
 * made while a Scope is open see its hypotheses.
 */
class LinearSystem::Scope
{
  public:
    explicit Scope(const LinearSystem& sys);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void add_ge0(const Affine& a) { sys_.add_ge0(a); }
    void add_eq0(const Affine& a) { sys_.add_eq0(a); }
    void add_pred(const ExprPtr& cond) { sys_.add_pred(cond); }
    void add_pred_negated(const ExprPtr& cond)
    {
        sys_.add_pred_negated(cond);
    }

  private:
    LinearSystem& sys_;  // every data member is mutable (see above)
    size_t rows_;
    size_t axioms_;
    uint64_t sig1_;
    uint64_t sig2_;
};

}  // namespace exo2

#endif  // EXO2_ANALYSIS_LINEAR_H_
