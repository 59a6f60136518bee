#ifndef EXO2_ANALYSIS_AFFINE_H_
#define EXO2_ANALYSIS_AFFINE_H_

/**
 * @file
 * Affine normal forms for index expressions.
 *
 * Index expressions are normalized to `constant + sum(coeff_i * atom_i)`
 * where an atom is either a variable or an opaque non-affine
 * subexpression (a division, modulo, or variable product). Because
 * expressions are hash-consed (ir/interner.h), an atom is identified by
 * its dense intern id — structural identity — instead of the canonical
 * printed form the original implementation used; this removes all
 * string formatting and string-keyed map traffic from the hot path.
 * Treating non-affine subterms as opaque atoms keeps the analysis total
 * while remaining conservative.
 */

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/expr.h"

namespace exo2 {

/** Atom identity: the intern id of the (hash-consed) atom expression. */
using AtomKey = uint64_t;

/** One linear term: `coeff * atom`. */
struct LinTerm
{
    ExprPtr atom;   ///< Variable read or opaque subexpression.
    int64_t coeff = 0;
};

/**
 * The terms of an Affine: `(atom key, term)` pairs in a vector sorted by
 * key. It keeps the part of the `std::map` interface its users need
 * (ordered iteration, `find`, `erase`, `operator[]`, `size`/`empty`), at
 * one allocation per form instead of one per term. Keys iterate in
 * ascending order, as the map's did, so hashes, elimination order and
 * emitted expressions do not depend on the container.
 */
class AffineTerms
{
  public:
    using value_type = std::pair<AtomKey, LinTerm>;
    using iterator = std::vector<value_type>::iterator;
    using const_iterator = std::vector<value_type>::const_iterator;

    iterator begin() { return v_.begin(); }
    iterator end() { return v_.end(); }
    const_iterator begin() const { return v_.begin(); }
    const_iterator end() const { return v_.end(); }
    size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    void clear() { v_.clear(); }
    void reserve(size_t n) { v_.reserve(n); }

    const_iterator find(AtomKey key) const
    {
        auto it = std::lower_bound(v_.begin(), v_.end(), key, key_less);
        return it != v_.end() && it->first == key ? it : v_.end();
    }

    void erase(AtomKey key)
    {
        auto it = find(key);
        if (it != v_.end())
            v_.erase(it);
    }

    /** The term for `key`, inserted as `LinTerm{}` if absent. Appending
     *  in key order (the common case) costs no search. */
    LinTerm& operator[](AtomKey key)
    {
        if (v_.empty() || v_.back().first < key)
            return v_.emplace_back(key, LinTerm{}).second;
        auto it = std::lower_bound(v_.begin(), v_.end(), key, key_less);
        if (it == v_.end() || it->first != key)
            it = v_.emplace(it, key, LinTerm{});
        return it->second;
    }

  private:
    static bool key_less(const value_type& e, AtomKey k)
    {
        return e.first < k;
    }

    std::vector<value_type> v_;
};

/** `constant + sum(terms)`, terms keyed by atom intern id. */
struct Affine
{
    int64_t constant = 0;
    AffineTerms terms;

    bool is_const() const { return terms.empty(); }

    /** Coefficient of variable `name` (0 if absent). */
    int64_t coeff_of(const std::string& name) const;

    /** Coefficient of the atom with intern id `key` (0 if absent). */
    int64_t coeff_of_key(AtomKey key) const;

    /** True if any atom mentions variable `name` (even inside opaques). */
    bool mentions(const std::string& name) const;
};

/** Order-insensitive-friendly hash of a normal form (terms iterate in
 *  key order, so equal Affines hash equal). */
uint64_t affine_hash(const Affine& a);

/** Canonical printed form of an atom, cached per intern id. Used to
 *  keep spelling-based orderings (term emission, FM elimination order)
 *  identical to the pre-interning implementation. */
const std::string& atom_spelling(AtomKey key, const ExprPtr& atom);

/** Normalize an expression. Total: non-affine parts become atoms.
 *  Memoized per interned node (see analysis/memo.h). */
Affine to_affine(const ExprPtr& e);

/** Rebuild an expression from a normal form (used by simplify). */
ExprPtr affine_to_expr(const Affine& a);

Affine affine_add(const Affine& a, const Affine& b);
Affine affine_sub(const Affine& a, const Affine& b);
Affine affine_scale(const Affine& a, int64_t k);
Affine affine_neg(const Affine& a);

/** Structural zero test (exact; no reasoning about opaque atoms). */
bool affine_is_zero(const Affine& a);

/** `a - b == 0` after normalization. */
bool affine_equal(const ExprPtr& a, const ExprPtr& b);

}  // namespace exo2

#endif  // EXO2_ANALYSIS_AFFINE_H_
