#include "src/analysis/linear.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <unordered_map>

#include "src/analysis/memo.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/ir/builder.h"
#include "src/ir/interner.h"

namespace exo2 {

namespace {

/** Caps keeping Fourier–Motzkin elimination cheap and safe. */
constexpr size_t kMaxConstraints = 4000;
constexpr size_t kMaxVars = 40;
constexpr int64_t kCoeffLimit = int64_t(1) << 40;

/**
 * Memo caches for the two query entry points. Keys are 128-bit digests
 * (two independent 64-bit halves) so collisions are negligible; values
 * are the boolean answers. The system half of the key is commutative
 * over constraints, which conflates permutations of the same multiset —
 * sound, because infeasibility is a property of the multiset and a
 * proof found under one elimination order holds for all orders.
 */
struct U128Hash
{
    size_t operator()(const std::pair<uint64_t, uint64_t>& k) const
    {
        return static_cast<size_t>(hash_combine(k.first, k.second));
    }
};

using QueryCache =
    std::unordered_map<std::pair<uint64_t, uint64_t>, bool, U128Hash>;

QueryCache&
infeasible_cache()
{
    static auto* c = new QueryCache();
    return *c;
}

QueryCache&
implies_cache()
{
    static auto* c = new QueryCache();
    return *c;
}

void
clear_linear_memo()
{
    infeasible_cache().clear();
    implies_cache().clear();
}

memo_internal::ClearerRegistration linear_memo_reg(&clear_linear_memo);

constexpr size_t kLinearMemoCap = 1u << 20;

/** Normalize `a >= 0` by the gcd of its coefficients (integer
 *  tightening: constant is floored). */
Affine
tighten(Affine a)
{
    int64_t g = 0;
    for (const auto& [k, t] : a.terms)
        g = std::gcd(g, std::abs(t.coeff));
    if (g > 1) {
        for (auto& [k, t] : a.terms)
            t.coeff /= g;
        // floor division for possibly-negative constants
        int64_t c = a.constant;
        a.constant = (c >= 0) ? c / g : -(((-c) + g - 1) / g);
    }
    return a;
}

bool
same_terms(const Affine& a, const Affine& b)
{
    if (a.terms.size() != b.terms.size())
        return false;
    auto ia = a.terms.begin();
    auto ib = b.terms.begin();
    for (; ia != a.terms.end(); ++ia, ++ib) {
        if (ia->first != ib->first || ia->second.coeff != ib->second.coeff)
            return false;
    }
    return true;
}

/** Hash of the term part only (atoms + coefficients, not the constant):
 *  bucket key for duplicate-row detection. */
uint64_t
terms_hash(const Affine& a)
{
    uint64_t h = hash_mix(a.terms.size());
    for (const auto& [k, t] : a.terms)
        h = hash_combine(h, hash_combine(k, static_cast<uint64_t>(t.coeff)));
    return h;
}

/** Floor division for possibly-negative numerators. */
int64_t
floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q--;
    return q;
}

/**
 * Cheap pre-passes before full Fourier–Motzkin:
 *
 *  1. Drop trivially redundant duplicate rows — same term vector, a
 *     weaker (larger) constant. `c >= 0` with the smallest constant
 *     implies all its duplicates, so dropping them loses no proofs and
 *     shrinks every elimination round quadratically.
 *  2. Single-variable bound propagation — rows `c*x + k >= 0` define an
 *     integer interval per atom; an empty interval refutes the system
 *     without any elimination. (FM would find the same refutation by
 *     combining the two rows, but this catches the very common
 *     `lo <= x < lo` guards in O(rows).)
 *
 * Returns true if the system is already provably infeasible; otherwise
 * leaves the deduplicated rows in `cs`.
 */
bool
prepass_infeasible(std::vector<Affine>* cs)
{
    // 1. Deduplicate rows (keep the tightest constant per term vector).
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    std::vector<Affine> dedup;
    dedup.reserve(cs->size());
    for (auto& c : *cs) {
        uint64_t h = terms_hash(c);
        bool dup = false;
        for (size_t j : buckets[h]) {
            if (same_terms(dedup[j], c)) {
                dedup[j].constant = std::min(dedup[j].constant, c.constant);
                dup = true;
                break;
            }
        }
        if (!dup) {
            buckets[h].push_back(dedup.size());
            dedup.push_back(std::move(c));
        }
    }
    *cs = std::move(dedup);
    // 2. Per-atom integer intervals from single-term rows.
    struct Bounds
    {
        int64_t lo = INT64_MIN;
        int64_t hi = INT64_MAX;
    };
    std::unordered_map<AtomKey, Bounds> bounds;
    for (const auto& c : *cs) {
        if (c.terms.empty()) {
            if (c.constant < 0)
                return true;  // `k >= 0` with k < 0
            continue;
        }
        if (c.terms.size() != 1)
            continue;
        const auto& [key, t] = *c.terms.begin();
        Bounds& b = bounds[key];
        if (t.coeff > 0) {
            // x >= ceil(-k / c)  <=>  x >= -floor(k / c)
            b.lo = std::max(b.lo, -floor_div(c.constant, t.coeff));
        } else {
            // x <= floor(k / -c)
            b.hi = std::min(b.hi, floor_div(c.constant, -t.coeff));
        }
        if (b.lo > b.hi)
            return true;  // empty interval: no integer solution
    }
    return false;
}

}  // namespace

void
LinearSystem::axiomatize_atoms(const Affine& a)
{
    for (const auto& [key, term] : a.terms) {
        const ExprPtr& atom = term.atom;
        if (atom->kind() != ExprKind::BinOp)
            continue;
        if (atom->op() != BinOpKind::Div && atom->op() != BinOpKind::Mod)
            continue;
        Affine divisor = to_affine(atom->rhs());
        if (!divisor.is_const() || divisor.constant <= 0)
            continue;
        if (std::find(axiomatized_.begin(), axiomatized_.end(), key) !=
            axiomatized_.end()) {
            continue;
        }
        axiomatized_.push_back(key);
        int64_t c = divisor.constant;
        ExprPtr e = atom->lhs();
        ExprPtr div = Expr::make_binop(BinOpKind::Div, e, atom->rhs());
        ExprPtr mod = Expr::make_binop(BinOpKind::Mod, e, atom->rhs());
        // e - c*(e/c) - (e%c) == 0
        Affine eq = to_affine(e);
        eq = affine_sub(eq, affine_scale(to_affine(div), c));
        eq = affine_sub(eq, to_affine(mod));
        add_eq0(eq);
        // 0 <= e%c <= c-1
        Affine m = to_affine(mod);
        add_ge0(m);
        Affine upper = affine_neg(m);
        upper.constant += c - 1;
        add_ge0(upper);
    }
}

LinearSystem::Scope::Scope(const LinearSystem& sys)
    : sys_(const_cast<LinearSystem&>(sys)),
      rows_(sys.ge0_.size()),
      axioms_(sys.axiomatized_.size()),
      sig1_(sys.sig1_),
      sig2_(sys.sig2_)
{
}

LinearSystem::Scope::~Scope()
{
    sys_.ge0_.erase(sys_.ge0_.begin() + static_cast<ptrdiff_t>(rows_),
                    sys_.ge0_.end());
    sys_.axiomatized_.resize(axioms_);
    sys_.sig1_ = sig1_;
    sys_.sig2_ = sig2_;
}

void
LinearSystem::add_ge0(const Affine& a)
{
    if (ge0_.size() >= kMaxConstraints)
        return;  // conservatively drop (weakens hypotheses only)
    Affine t = tighten(a);
    uint64_t h = affine_hash(t);
    sig1_ += h;                // commutative: order-insensitive digest
    sig2_ += hash_mix(h);      // independent second half
    ge0_.push_back(std::move(t));
    axiomatize_atoms(a);
}

void
LinearSystem::add_eq0(const Affine& a)
{
    add_ge0(a);
    add_ge0(affine_neg(a));
}

void
LinearSystem::add_expr_ge0(const ExprPtr& e)
{
    add_ge0(to_affine(e));
}

void
LinearSystem::add_pred(const ExprPtr& cond)
{
    if (!cond || cond->kind() != ExprKind::BinOp) {
        if (cond && cond->kind() == ExprKind::Const) {
            if (cond->type() == ScalarType::Bool && cond->const_value() == 0.0)
                add_ge0(Affine{-1, {}});  // `False`: infeasible
        }
        return;  // opaque predicate: ignore
    }
    Affine l = to_affine(cond->lhs());
    Affine r = to_affine(cond->rhs());
    switch (cond->op()) {
      case BinOpKind::And:
        add_pred(cond->lhs());
        add_pred(cond->rhs());
        return;
      case BinOpKind::Lt: {  // l < r  <=>  r - l - 1 >= 0
        Affine a = affine_sub(r, l);
        a.constant -= 1;
        add_ge0(a);
        return;
      }
      case BinOpKind::Le:
        add_ge0(affine_sub(r, l));
        return;
      case BinOpKind::Gt: {
        Affine a = affine_sub(l, r);
        a.constant -= 1;
        add_ge0(a);
        return;
      }
      case BinOpKind::Ge:
        add_ge0(affine_sub(l, r));
        return;
      case BinOpKind::Eq:
        add_eq0(affine_sub(l, r));
        return;
      default:
        return;  // Ne / Or: disjunctive, ignored as hypothesis
    }
}

void
LinearSystem::add_pred_negated(const ExprPtr& cond)
{
    if (!cond || cond->kind() != ExprKind::BinOp)
        return;
    ExprPtr flipped;
    switch (cond->op()) {
      case BinOpKind::Lt:
        flipped = Expr::make_binop(BinOpKind::Ge, cond->lhs(), cond->rhs());
        break;
      case BinOpKind::Le:
        flipped = Expr::make_binop(BinOpKind::Gt, cond->lhs(), cond->rhs());
        break;
      case BinOpKind::Gt:
        flipped = Expr::make_binop(BinOpKind::Le, cond->lhs(), cond->rhs());
        break;
      case BinOpKind::Ge:
        flipped = Expr::make_binop(BinOpKind::Lt, cond->lhs(), cond->rhs());
        break;
      case BinOpKind::Ne:
        flipped = Expr::make_binop(BinOpKind::Eq, cond->lhs(), cond->rhs());
        break;
      case BinOpKind::Or:
        add_pred_negated(cond->lhs());
        add_pred_negated(cond->rhs());
        return;
      default:
        return;  // !(==), !(and): disjunctive
    }
    add_pred(flipped);
}

bool
LinearSystem::infeasible() const
{
    if (!analysis_memo_enabled())
        return infeasible_uncached();
    std::pair<uint64_t, uint64_t> key{hash_combine(sig1_, ge0_.size()),
                                      sig2_};
    auto& cache = infeasible_cache();
    auto it = cache.find(key);
    if (it != cache.end()) {
        EXO2_COUNT("analysis.linear_hits");
        return it->second;
    }
    EXO2_COUNT("analysis.linear_misses");
    bool ans = infeasible_uncached();
    if (cache.size() >= kLinearMemoCap)
        cache.clear();
    cache.emplace(key, ans);
    return ans;
}

bool
LinearSystem::infeasible_uncached() const
{
    // The memoized infeasible() wrapper stays span-free: hits are a
    // hash probe. Only real Fourier-Motzkin work is worth a span.
    EXO2_SPAN("analysis.solve",
              {{"constraints", static_cast<int>(ge0_.size())}});
    // Cheap pre-passes: duplicate-row dropping + single-variable bound
    // propagation. These run before the var-count bail-out so oversized
    // systems with directly contradictory bounds are still refuted.
    std::vector<Affine> cs = ge0_;
    if (prepass_infeasible(&cs))
        return true;

    // Collect variables, ordered by canonical spelling: elimination
    // order affects which integer-tightened proofs Fourier–Motzkin
    // finds, so we keep the exact order of the string-keyed
    // implementation (spellings come from a per-atom cache, not
    // re-printing). Ties (distinct atoms, same spelling) break by id.
    std::set<std::pair<std::string, AtomKey>> ordered_vars;
    for (const auto& c : cs) {
        for (const auto& [k, t] : c.terms)
            ordered_vars.insert({atom_spelling(k, t.atom), k});
    }
    if (ordered_vars.size() > kMaxVars)
        return false;  // too big; answer unknown

    for (const auto& [spelling, var] : ordered_vars) {
        std::vector<Affine> pos;
        std::vector<Affine> neg;
        std::vector<Affine> rest;
        for (auto& c : cs) {
            int64_t co = c.coeff_of_key(var);
            if (co > 0)
                pos.push_back(std::move(c));
            else if (co < 0)
                neg.push_back(std::move(c));
            else
                rest.push_back(std::move(c));
        }
        // Combine every (lower, upper) bound pair.
        for (const auto& p : pos) {
            int64_t a = p.coeff_of_key(var);
            for (const auto& n : neg) {
                int64_t b = -n.coeff_of_key(var);
                // b*p + a*n eliminates var.
                if (std::abs(a) > kCoeffLimit || std::abs(b) > kCoeffLimit)
                    return false;
                Affine comb =
                    affine_add(affine_scale(p, b), affine_scale(n, a));
                comb = tighten(comb);  // var cancelled exactly by b*p + a*n
                if (comb.is_const()) {
                    if (comb.constant < 0)
                        return true;
                } else {
                    rest.push_back(comb);
                }
                if (rest.size() > kMaxConstraints)
                    return false;
            }
        }
        // Deduplicate to curb growth.
        std::vector<Affine> dedup;
        for (auto& c : rest) {
            bool dup = false;
            for (auto& d : dedup) {
                if (same_terms(c, d)) {
                    d.constant = std::min(d.constant, c.constant);
                    dup = true;
                    break;
                }
            }
            if (!dup)
                dedup.push_back(std::move(c));
        }
        cs = std::move(dedup);
        for (const auto& c : cs) {
            if (c.is_const() && c.constant < 0)
                return true;
        }
    }
    for (const auto& c : cs) {
        if (c.is_const() && c.constant < 0)
            return true;
    }
    return false;
}

bool
LinearSystem::implies_ge0(const Affine& a) const
{
    // Refute a <= -1.
    auto refute = [&] {
        Scope hyp(*this);
        Affine neg = affine_neg(a);
        neg.constant -= 1;
        hyp.add_ge0(neg);
        return infeasible();
    };
    if (!analysis_memo_enabled())
        return refute();
    // The (system digest, query hash) pair determines the answer, so a
    // hit skips the elimination.
    uint64_t qh = affine_hash(a);
    std::pair<uint64_t, uint64_t> key{
        hash_combine(hash_combine(sig1_, ge0_.size()), qh),
        hash_combine(sig2_, hash_mix(qh))};
    auto& cache = implies_cache();
    auto it = cache.find(key);
    if (it != cache.end()) {
        EXO2_COUNT("analysis.linear_hits");
        return it->second;
    }
    EXO2_COUNT("analysis.linear_misses");
    bool ans = refute();
    if (cache.size() >= kLinearMemoCap)
        cache.clear();
    cache.emplace(key, ans);
    return ans;
}

bool
LinearSystem::implies_ge0(const ExprPtr& e) const
{
    return implies_ge0(to_affine(e));
}

bool
LinearSystem::implies_eq0(const Affine& a) const
{
    if (affine_is_zero(a))
        return true;
    return implies_ge0(a) && implies_ge0(affine_neg(a));
}

bool
LinearSystem::implies_pred(const ExprPtr& cond) const
{
    if (!cond)
        return false;
    if (cond->kind() == ExprKind::Const && cond->type() == ScalarType::Bool)
        return cond->const_value() != 0.0;
    if (cond->kind() != ExprKind::BinOp)
        return false;
    Affine l = to_affine(cond->lhs());
    Affine r = to_affine(cond->rhs());
    switch (cond->op()) {
      case BinOpKind::And:
        return implies_pred(cond->lhs()) && implies_pred(cond->rhs());
      case BinOpKind::Or:
        return implies_pred(cond->lhs()) || implies_pred(cond->rhs());
      case BinOpKind::Lt: {
        Affine a = affine_sub(r, l);
        a.constant -= 1;
        return implies_ge0(a);
      }
      case BinOpKind::Le:
        return implies_ge0(affine_sub(r, l));
      case BinOpKind::Gt: {
        Affine a = affine_sub(l, r);
        a.constant -= 1;
        return implies_ge0(a);
      }
      case BinOpKind::Ge:
        return implies_ge0(affine_sub(l, r));
      case BinOpKind::Eq:
        return implies_eq0(affine_sub(l, r));
      case BinOpKind::Ne: {
        Scope hyp(*this);
        hyp.add_eq0(affine_sub(l, r));
        return infeasible();
      }
      default:
        return false;
    }
}

bool
LinearSystem::implies_divisible(const ExprPtr& e, int64_t k) const
{
    if (k == 1)
        return true;
    if (k <= 0)
        return false;
    Affine a = to_affine(e);
    // Fast path: every coefficient and the constant divisible by k.
    bool all = a.constant % k == 0;
    for (const auto& [key, t] : a.terms) {
        if (t.coeff % k != 0) {
            all = false;
            break;
        }
    }
    if (all)
        return true;
    // General path: prove e % k == 0 through the mod axioms.
    ExprPtr mod = Expr::make_binop(BinOpKind::Mod, e, idx_const(k));
    Scope hyp(*this);
    Affine m = to_affine(mod);
    hyp.add_ge0(m);  // triggers axiomatization
    return implies_eq0(m);
}

}  // namespace exo2
