#include "src/analysis/affine.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/analysis/memo.h"
#include "src/ir/builder.h"
#include "src/ir/interner.h"
#include "src/ir/printer.h"
#include "src/obs/metrics.h"

namespace exo2 {

int64_t
Affine::coeff_of(const std::string& name) const
{
    // Lookup by canonical spelling, preserving the pre-interning
    // contract (atoms like "n / 8" are addressable by their printed
    // form). Spellings come from the print-once-per-atom cache; the
    // hot elimination loop keys on intern ids via coeff_of_key.
    for (const auto& [key, term] : terms) {
        if (atom_spelling(key, term.atom) == name)
            return term.coeff;
    }
    return 0;
}

int64_t
Affine::coeff_of_key(AtomKey key) const
{
    auto it = terms.find(key);
    return it == terms.end() ? 0 : it->second.coeff;
}

uint64_t
affine_hash(const Affine& a)
{
    uint64_t h = hash_combine(0xAFF1ull, static_cast<uint64_t>(a.constant));
    for (const auto& [key, term] : a.terms) {
        h = hash_combine(h, key);
        h = hash_combine(h, static_cast<uint64_t>(term.coeff));
    }
    return h;
}

bool
Affine::mentions(const std::string& name) const
{
    for (const auto& [key, term] : terms) {
        if (expr_uses(term.atom, name))
            return true;
    }
    return false;
}

namespace {

/**
 * Canonicalize an atom for keying: scalar variable reads are rewritten
 * to their Index-typed form (and enclosing operator types rederived),
 * so the same name denotes the same atom regardless of the type a
 * lenient parse assigned it. This mirrors the spelling-based keying of
 * the pre-interning implementation, where `n : f32` and `n : index`
 * printed identically and therefore unified.
 */
ExprPtr
canonical_atom(const ExprPtr& e)
{
    if (e->kind() == ExprKind::Read && e->idx().empty()) {
        return e->type() == ScalarType::Index ? e : var(e->name());
    }
    return map_children(e, canonical_atom);
}

/** Add `coeff * atom` for an atom already in canonical form. */
void
add_canonical_term(Affine* a, AtomKey key, const ExprPtr& atom,
                   int64_t coeff)
{
    if (coeff == 0)
        return;
    LinTerm& t = a->terms[key];
    if (!t.atom)
        t.atom = atom;
    t.coeff += coeff;
    if (t.coeff == 0)
        a->terms.erase(key);
}

void
add_term(Affine* a, const ExprPtr& raw_atom, int64_t coeff)
{
    ExprPtr atom = canonical_atom(raw_atom);
    add_canonical_term(a, atom->intern_id(), atom, coeff);
}

void
accumulate(Affine* out, const Affine& a, int64_t scale)
{
    // Atoms of an Affine are canonical already (canonical_atom is
    // idempotent), so they keep their keys.
    out->constant += scale * a.constant;
    out->terms.reserve(out->terms.size() + a.terms.size());
    for (const auto& [key, term] : a.terms)
        add_canonical_term(out, key, term.atom, scale * term.coeff);
}

/**
 * Memo cache for to_affine. Keys are raw interned-Expr pointers, which
 * are stable for the process lifetime (the interner retains every
 * node); values are immutable once computed because expressions are.
 */
std::unordered_map<const Expr*, Affine>&
affine_memo()
{
    static auto* m = new std::unordered_map<const Expr*, Affine>();
    return *m;
}

void
clear_affine_memo()
{
    affine_memo().clear();
}

memo_internal::ClearerRegistration affine_memo_reg(&clear_affine_memo);

constexpr size_t kAffineMemoCap = 1u << 20;

Affine
to_affine_uncached(const ExprPtr& e)
{
    Affine out;
    switch (e->kind()) {
      case ExprKind::Const:
        out.constant = static_cast<int64_t>(e->const_value());
        return out;
      case ExprKind::Read:
        if (e->idx().empty()) {
            add_term(&out, e, 1);
            return out;
        }
        add_term(&out, e, 1);  // buffer read: opaque
        return out;
      case ExprKind::USub:
        out = to_affine(e->lhs());
        return affine_neg(out);
      case ExprKind::BinOp: {
        switch (e->op()) {
          case BinOpKind::Add: {
            out = to_affine(e->lhs());
            accumulate(&out, to_affine(e->rhs()), 1);
            return out;
          }
          case BinOpKind::Sub: {
            out = to_affine(e->lhs());
            accumulate(&out, to_affine(e->rhs()), -1);
            return out;
          }
          case BinOpKind::Mul: {
            Affine l = to_affine(e->lhs());
            Affine r = to_affine(e->rhs());
            if (l.is_const()) {
                Affine res;
                accumulate(&res, r, l.constant);
                return res;
            }
            if (r.is_const()) {
                Affine res;
                accumulate(&res, l, r.constant);
                return res;
            }
            add_term(&out, e, 1);  // variable product: opaque
            return out;
          }
          default:
            add_term(&out, e, 1);  // div/mod/predicates: opaque
            return out;
        }
      }
      default:
        add_term(&out, e, 1);
        return out;
    }
}

}  // namespace

Affine
to_affine(const ExprPtr& e)
{
    if (!e)
        return Affine{};
    if (!analysis_memo_enabled())
        return to_affine_uncached(e);
    auto& memo = affine_memo();
    auto it = memo.find(e.get());
    if (it != memo.end()) {
        EXO2_COUNT("analysis.affine_hits");
        return it->second;
    }
    EXO2_COUNT("analysis.affine_misses");
    Affine out = to_affine_uncached(e);
    if (memo.size() >= kAffineMemoCap)
        memo.clear();
    memo.emplace(e.get(), out);
    return out;
}

const std::string&
atom_spelling(AtomKey key, const ExprPtr& atom)
{
    // Print-once cache: interned atoms are immortal, so the spelling
    // for a key never changes and the cache needs no invalidation.
    static auto* m = new std::unordered_map<AtomKey, std::string>();
    auto it = m->find(key);
    if (it == m->end())
        it = m->emplace(key, print_expr(atom)).first;
    return it->second;
}

ExprPtr
affine_to_expr(const Affine& a)
{
    // Emit terms in canonical-spelling order, matching the printed-form
    // keying of the pre-interning implementation (stable output, and
    // downstream tests/goldens depend on it).
    std::vector<const LinTerm*> ordered;
    ordered.reserve(a.terms.size());
    for (const auto& [key, term] : a.terms)
        ordered.push_back(&term);
    std::sort(ordered.begin(), ordered.end(),
              [](const LinTerm* x, const LinTerm* y) {
                  return atom_spelling(x->atom->intern_id(), x->atom) <
                         atom_spelling(y->atom->intern_id(), y->atom);
              });
    ExprPtr out;
    auto emit = [&](ExprPtr piece, bool negate) {
        if (!out) {
            out = negate ? -piece : piece;
        } else {
            out = negate ? (out - piece) : (out + piece);
        }
    };
    for (const LinTerm* tp : ordered) {
        const LinTerm& term = *tp;
        int64_t c = term.coeff;
        bool neg = c < 0;
        int64_t mag = neg ? -c : c;
        ExprPtr piece =
            (mag == 1) ? term.atom : idx_const(mag) * term.atom;
        emit(piece, neg);
    }
    if (a.constant != 0 || !out) {
        bool neg = a.constant < 0;
        emit(idx_const(neg ? -a.constant : a.constant), neg);
    }
    return out;
}

Affine
affine_add(const Affine& a, const Affine& b)
{
    Affine out = a;
    accumulate(&out, b, 1);
    return out;
}

Affine
affine_sub(const Affine& a, const Affine& b)
{
    Affine out = a;
    accumulate(&out, b, -1);
    return out;
}

Affine
affine_scale(const Affine& a, int64_t k)
{
    Affine out;
    accumulate(&out, a, k);
    return out;
}

Affine
affine_neg(const Affine& a)
{
    return affine_scale(a, -1);
}

bool
affine_is_zero(const Affine& a)
{
    return a.constant == 0 && a.terms.empty();
}

bool
affine_equal(const ExprPtr& a, const ExprPtr& b)
{
    return affine_is_zero(affine_sub(to_affine(a), to_affine(b)));
}

}  // namespace exo2
