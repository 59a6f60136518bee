#include "src/analysis/effects.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <unordered_map>

#include "src/analysis/memo.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/ir/printer.h"
#include "src/obs/metrics.h"

namespace exo2 {

namespace {

/** Binding of a window or a callee buffer argument to a buffer region. */
struct BufBinding
{
    std::string buf;                ///< caller buffer name
    std::vector<WindowDim> window;  ///< caller dims; points consume none
    bool opaque = false;            ///< unknown region: whole buffer
    bool local = false;             ///< `buf` is declared in the subtree
};

/**
 * The collector's environment at a statement: loop binders renamed
 * fresh (and a callee's scalar formals bound to their actuals), windows
 * and a callee's buffer formals resolved, and the buffers the collected
 * subtree has declared so far.
 */
struct Env
{
    std::map<std::string, ExprPtr> scalars;
    std::map<std::string, BufBinding> buffers;
    std::set<std::string> locals;
};

std::string
fresh_name(const std::string& base)
{
    static std::atomic<uint64_t> counter{0};
    return base + "$" + std::to_string(counter.fetch_add(1));
}

/** Apply the scalar substitution of `env` to an expression. */
ExprPtr
apply_env_expr(const ExprPtr& e, const Env& env)
{
    ExprPtr out = e;
    for (const auto& [name, repl] : env.scalars)
        out = expr_subst(out, name, repl);
    return out;
}

/**
 * Translate a callee access index through a window binding into caller
 * buffer coordinates.
 */
std::vector<ExprPtr>
translate_window(const BufBinding& b, const std::vector<ExprPtr>& idx)
{
    std::vector<ExprPtr> out;
    size_t k = 0;
    for (const auto& dim : b.window) {
        if (dim.is_point()) {
            out.push_back(dim.lo);
        } else {
            ExprPtr inner = (k < idx.size()) ? idx[k] : idx_const(0);
            k++;
            Affine lo = to_affine(dim.lo);
            if (affine_is_zero(lo))
                out.push_back(inner);
            else
                out.push_back(dim.lo + inner);
        }
    }
    return out;
}

struct Collector
{
    std::vector<Access> out;
    std::vector<LoopBinder> binders;
    std::vector<ExprPtr> guards;
    int depth = 0;

    void emit(std::string buf, AccessKind kind, std::vector<ExprPtr> idx,
              bool whole, bool local)
    {
        Access a;
        a.buf = std::move(buf);
        a.kind = kind;
        a.idx = std::move(idx);
        a.whole_buffer = whole;
        a.local = local;
        a.binders = binders;
        a.guards = guards;
        out.push_back(std::move(a));
    }

    void expr(const ExprPtr& e, const Env& env)
    {
        if (!e)
            return;
        switch (e->kind()) {
          case ExprKind::Read: {
            std::vector<ExprPtr> idx;
            idx.reserve(e->idx().size());
            for (const auto& i : e->idx()) {
                expr(i, env);
                idx.push_back(apply_env_expr(i, env));
            }
            if (env.buffers.count(e->name()) == 0 &&
                env.scalars.count(e->name()) != 0) {
                // Scalar binding: effects were already collected at the
                // call site when evaluating the actual argument.
                return;
            }
            access(e->name(), AccessKind::Read, std::move(idx), env);
            return;
          }
          case ExprKind::Window: {
            // Whole-window read (e.g. passed to a call handled at the
            // call site); reading the region conservatively.
            access(e->name(), AccessKind::Read, {}, env, /*whole=*/true);
            return;
          }
          case ExprKind::ReadConfig:
            emit("$cfg:" + e->name() + "." + e->field(), AccessKind::Read,
                 {}, false, false);
            return;
          case ExprKind::Stride:
            return;
          default:
            any_child(e, [&](const ExprPtr& k) {
                expr(k, env);
                return false;
            });
            return;
        }
    }

    /** Emit an access of `name` at the (env-applied) `idx`, resolved
     *  through a window or buffer formal bound to it. */
    void access(const std::string& name, AccessKind kind,
                std::vector<ExprPtr> idx, const Env& env, bool whole = false)
    {
        auto bit = env.buffers.find(name);
        if (bit == env.buffers.end()) {
            emit(name, kind, std::move(idx), whole,
                 env.locals.count(name) != 0);
        } else if (bit->second.opaque || whole) {
            emit(bit->second.buf, kind, {}, true, bit->second.local);
        } else {
            emit(bit->second.buf, kind, translate_window(bit->second, idx),
                 false, bit->second.local);
        }
    }

    /** Resolve the (possibly env-mapped) target of a write. */
    void write_target(const std::string& name, AccessKind kind,
                      const std::vector<ExprPtr>& raw_idx, const Env& env)
    {
        std::vector<ExprPtr> idx;
        idx.reserve(raw_idx.size());
        for (const auto& i : raw_idx) {
            expr(i, env);
            idx.push_back(apply_env_expr(i, env));
        }
        access(name, kind, std::move(idx), env);
    }

    void call(const StmtPtr& s, const Env& env)
    {
        const ProcPtr& callee = s->callee();
        if (!callee) {
            // Unresolved call (pattern-only): be maximally conservative.
            for (const auto& a : s->args())
                expr(a, env);
            return;
        }
        if (depth > 8) {
            for (const auto& a : s->args())
                expr(a, env);
            return;
        }
        Env inner;
        const auto& formals = callee->args();
        for (size_t i = 0; i < formals.size() && i < s->args().size(); i++) {
            const ProcArg& f = formals[i];
            ExprPtr actual = s->args()[i];
            if (f.dims.empty()) {
                // Scalar: evaluate effects here; bind for index subst.
                expr(actual, env);
                inner.scalars[f.name] = apply_env_expr(actual, env);
                continue;
            }
            BufBinding b;
            if (actual->kind() == ExprKind::Window) {
                auto bit = env.buffers.find(actual->name());
                if (bit != env.buffers.end() && !bit->second.opaque) {
                    // Window of a window: compose.
                    b.buf = bit->second.buf;
                    b.local = bit->second.local;
                    std::vector<WindowDim> composed;
                    size_t k = 0;
                    for (const auto& outer : bit->second.window) {
                        if (outer.is_point()) {
                            composed.push_back(outer);
                            continue;
                        }
                        if (k >= actual->window_dims().size()) {
                            composed.push_back(outer);
                            continue;
                        }
                        WindowDim wd = actual->window_dims()[k++];
                        WindowDim nd;
                        nd.lo = outer.lo +
                                apply_env_expr(wd.lo, env);
                        if (!wd.is_point())
                            nd.hi = outer.lo + apply_env_expr(wd.hi, env);
                        composed.push_back(nd);
                    }
                    b.window = std::move(composed);
                } else if (bit != env.buffers.end()) {
                    b.buf = bit->second.buf;
                    b.opaque = true;
                    b.local = bit->second.local;
                } else {
                    b.buf = actual->name();
                    b.local = env.locals.count(b.buf) != 0;
                    for (const auto& wd : actual->window_dims()) {
                        WindowDim nd;
                        nd.lo = apply_env_expr(wd.lo, env);
                        if (!wd.is_point())
                            nd.hi = apply_env_expr(wd.hi, env);
                        b.window.push_back(nd);
                    }
                    // Index expressions inside the window are reads.
                    for (const auto& wd : actual->window_dims()) {
                        expr(wd.lo, env);
                        if (!wd.is_point())
                            expr(wd.hi, env);
                    }
                }
            } else if (actual->kind() == ExprKind::Read &&
                       actual->idx().empty()) {
                auto bit = env.buffers.find(actual->name());
                if (bit != env.buffers.end()) {
                    b = bit->second;
                } else {
                    b.buf = actual->name();
                    b.local = env.locals.count(b.buf) != 0;
                    for (size_t d = 0; d < f.dims.size(); d++) {
                        WindowDim nd;
                        nd.lo = idx_const(0);
                        nd.hi = apply_env_expr(f.dims[d], env);
                        b.window.push_back(nd);
                    }
                }
            } else {
                expr(actual, env);
                b.buf = actual->kind() == ExprKind::Read ? actual->name()
                                                         : "$unknown";
                b.opaque = true;
                b.local = env.locals.count(b.buf) != 0;
            }
            inner.buffers[f.name] = std::move(b);
        }
        depth++;
        block(callee->body_stmts(), inner);
        depth--;
    }

    void stmt(const StmtPtr& s, const Env& env)
    {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            expr(s->rhs(), env);
            write_target(s->name(),
                         s->kind() == StmtKind::Assign ? AccessKind::Write
                                                       : AccessKind::Reduce,
                         s->idx(), env);
            return;
          }
          case StmtKind::Alloc:
            for (const auto& d : s->dims())
                expr(d, env);
            return;
          case StmtKind::For: {
            expr(s->lo(), env);
            expr(s->hi(), env);
            std::string fresh = fresh_name(s->iter());
            Env inner = env;
            inner.scalars[s->iter()] = var(fresh);
            binders.push_back({fresh, apply_env_expr(s->lo(), env),
                               apply_env_expr(s->hi(), env)});
            block(s->body(), inner);
            binders.pop_back();
            return;
          }
          case StmtKind::If: {
            expr(s->cond(), env);
            ExprPtr c = apply_env_expr(s->cond(), env);
            guards.push_back(c);
            block(s->body(), env);
            guards.pop_back();
            ExprPtr nc = negate_pred(c);
            if (nc)
                guards.push_back(nc);
            block(s->orelse(), env);
            if (nc)
                guards.pop_back();
            return;
          }
          case StmtKind::Pass:
            return;
          case StmtKind::Call:
            call(s, env);
            return;
          case StmtKind::WriteConfig:
            expr(s->rhs(), env);
            emit("$cfg:" + s->name() + "." + s->field(), AccessKind::Write,
                 {}, false, false);
            return;
          case StmtKind::WindowDecl: {
            // Bind the window for following statements — handled by
            // block(); here just record index reads.
            const ExprPtr& w = s->rhs();
            for (const auto& wd : w->window_dims()) {
                expr(wd.lo, env);
                if (!wd.is_point())
                    expr(wd.hi, env);
            }
            return;
          }
        }
        throw InternalError("unknown stmt kind in effects");
    }

    /** A declaration binds its name for the rest of the list. */
    void block(const std::vector<StmtPtr>& b, const Env& env)
    {
        Env cur = env;
        for (const auto& s : b) {
            stmt(s, cur);
            if (s->kind() == StmtKind::Alloc) {
                // A new buffer: no window or scalar of that name applies.
                cur.buffers.erase(s->name());
                cur.scalars.erase(s->name());
                cur.locals.insert(s->name());
            } else if (s->kind() == StmtKind::WindowDecl) {
                const ExprPtr& w = s->rhs();
                BufBinding bind;
                auto bit = cur.buffers.find(w->name());
                if (bit != cur.buffers.end()) {
                    // Conservative: a window of a window is opaque.
                    bind.buf = bit->second.buf;
                    bind.opaque = true;
                    bind.local = bit->second.local;
                } else {
                    bind.buf = w->name();
                    bind.local = cur.locals.count(w->name()) != 0;
                    for (const auto& wd : w->window_dims()) {
                        WindowDim nd;
                        nd.lo = apply_env_expr(wd.lo, cur);
                        if (!wd.is_point())
                            nd.hi = apply_env_expr(wd.hi, cur);
                        bind.window.push_back(nd);
                    }
                }
                cur.buffers[s->name()] = std::move(bind);
            }
        }
    }
};

/** Rename all binders of `a` apart with fresh names. */
Access
rename_binders(const Access& a)
{
    Access out = a;
    for (auto& b : out.binders) {
        std::string nn = fresh_name(b.name);
        for (auto& i : out.idx)
            i = expr_subst(i, b.name, var(nn));
        for (auto& g : out.guards)
            g = expr_subst(g, b.name, var(nn));
        for (auto& b2 : out.binders) {
            if (&b2 != &b) {
                b2.lo = expr_subst(b2.lo, b.name, var(nn));
                b2.hi = expr_subst(b2.hi, b.name, var(nn));
            }
        }
        b.name = nn;
    }
    return out;
}

void
assume_access(LinearSystem::Scope* sys, const Access& a)
{
    for (const auto& b : a.binders) {
        sys->add_pred(Expr::make_binop(BinOpKind::Ge, var(b.name), b.lo));
        sys->add_pred(Expr::make_binop(BinOpKind::Lt, var(b.name), b.hi));
    }
    for (const auto& g : a.guards)
        sys->add_pred(g);
}

/**
 * Per-subtree effect summary caches.
 *
 * Soundness: statements are immutable, and the collection at an empty
 * environment is a function of the subtree alone — apart from the
 * fresh names minted for loop binders. Cached summaries therefore fix
 * one alpha-variant of the binder names; every consumer that combines
 * two summaries (`accesses_conflict`, `cross_iteration_conflict`)
 * renames binders apart before solving, so reusing a variant is
 * indistinguishable from recollecting. Entries hold a strong StmtPtr,
 * pinning the key pointer against reuse-after-free.
 *
 * Spine-rebuilding edits (cursor/edits.cc) preserve every untouched
 * subtree by pointer, which is exactly what makes these caches hit
 * across consecutive scheduling primitives.
 */
struct StmtEffectsEntry
{
    StmtPtr pin;
    std::vector<Access> accs;
};

struct BlockEffectsEntry
{
    std::vector<StmtPtr> stmts;  ///< key (and pin): exact pointer sequence
    std::vector<Access> accs;
};

std::unordered_map<const Stmt*, StmtEffectsEntry>&
stmt_effects_cache()
{
    static auto* c = new std::unordered_map<const Stmt*, StmtEffectsEntry>();
    return *c;
}

std::unordered_multimap<uint64_t, BlockEffectsEntry>&
block_effects_cache()
{
    static auto* c =
        new std::unordered_multimap<uint64_t, BlockEffectsEntry>();
    return *c;
}

void
clear_effects_memo()
{
    stmt_effects_cache().clear();
    block_effects_cache().clear();
}

memo_internal::ClearerRegistration effects_memo_reg(&clear_effects_memo);

constexpr size_t kEffectsMemoCap = 1u << 16;

uint64_t
block_ptr_hash(const std::vector<StmtPtr>& b)
{
    uint64_t h = 0xEFFEC75ull;
    for (const auto& s : b)
        h = hash_combine(h, reinterpret_cast<uintptr_t>(s.get()));
    return h;
}

}  // namespace

std::vector<Access>
collect_accesses(const StmtPtr& s)
{
    if (!analysis_memo_enabled()) {
        Collector c;
        c.stmt(s, Env{});
        return std::move(c.out);
    }
    auto& cache = stmt_effects_cache();
    auto it = cache.find(s.get());
    if (it != cache.end()) {
        EXO2_COUNT("analysis.effects_hits");
        return it->second.accs;
    }
    EXO2_COUNT("analysis.effects_misses");
    Collector c;
    c.stmt(s, Env{});
    if (cache.size() >= kEffectsMemoCap)
        cache.clear();
    cache.emplace(s.get(), StmtEffectsEntry{s, c.out});
    return std::move(c.out);
}

std::vector<Access>
collect_accesses_block(const std::vector<StmtPtr>& b)
{
    if (!analysis_memo_enabled()) {
        Collector c;
        c.block(b, Env{});
        return std::move(c.out);
    }
    auto& cache = block_effects_cache();
    uint64_t h = block_ptr_hash(b);
    auto range = cache.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
        if (it->second.stmts == b) {
            EXO2_COUNT("analysis.effects_hits");
            return it->second.accs;
        }
    }
    EXO2_COUNT("analysis.effects_misses");
    Collector c;
    c.block(b, Env{});
    if (cache.size() >= kEffectsMemoCap)
        cache.clear();
    cache.emplace(h, BlockEffectsEntry{b, c.out});
    return std::move(c.out);
}

bool
accesses_conflict(const Context& ctx, const Access& a, const Access& b)
{
    if (a.buf != b.buf)
        return false;
    if (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
        return false;
    if (a.kind == AccessKind::Reduce && b.kind == AccessKind::Reduce)
        return false;  // commuting reductions
    if (a.whole_buffer || b.whole_buffer)
        return true;
    if (a.idx.empty() && b.idx.empty())
        return true;  // same scalar
    if (a.idx.size() != b.idx.size())
        return true;  // shape confusion: conservative
    // Overlap test: feasible that all indices are equal?
    Access rb = rename_binders(b);
    LinearSystem::Scope sys(ctx.system());
    assume_access(&sys, a);
    assume_access(&sys, rb);
    for (size_t d = 0; d < a.idx.size(); d++) {
        sys.add_eq0(affine_sub(to_affine(a.idx[d]), to_affine(rb.idx[d])));
    }
    return !ctx.system().infeasible();
}

bool
stmts_commute(const Context& ctx, const StmtPtr& s1, const StmtPtr& s2,
              std::string* why)
{
    // Binder motion is a scoping question the access analysis cannot
    // see: an Alloc/WindowDecl has no data effects, but swapping it
    // past a statement that uses (or shadows a use of) the bound name
    // changes what that name refers to.
    auto binds = [](const StmtPtr& s) {
        return s->kind() == StmtKind::Alloc ||
               s->kind() == StmtKind::WindowDecl;
    };
    if (binds(s1) && stmt_uses(s2, s1->name())) {
        if (why)
            *why = "'" + s1->name() + "' is declared by the first "
                   "statement and used by the second";
        return false;
    }
    if (binds(s2) && stmt_uses(s1, s2->name())) {
        if (why)
            *why = "'" + s2->name() + "' is used by the first statement "
                   "and re-declared by the second";
        return false;
    }
    auto a1 = collect_accesses(s1);
    auto a2 = collect_accesses(s2);
    for (const auto& a : a1) {
        for (const auto& b : a2) {
            if (accesses_conflict(ctx, a, b)) {
                if (why) {
                    *why = "conflicting accesses to '" + a.buf + "'";
                }
                return false;
            }
        }
    }
    return true;
}

const char*
access_kind_name(AccessKind k)
{
    switch (k) {
      case AccessKind::Read:
        return "read";
      case AccessKind::Write:
        return "write";
      case AccessKind::Reduce:
        return "reduce";
    }
    return "?";
}

std::string
describe_access(const Access& a)
{
    std::string s = std::string(access_kind_name(a.kind)) + " " + a.buf;
    if (a.whole_buffer) {
        s += "[...]";
    } else if (!a.idx.empty()) {
        s += "[";
        for (size_t d = 0; d < a.idx.size(); d++) {
            if (d)
                s += ", ";
            s += print_expr(a.idx[d]);
        }
        s += "]";
    }
    return s;
}

namespace {

/**
 * Collect every cross-iteration conflict of `loop` into `out` (which
 * may be null when only the boolean answer matters; collection then
 * stops at the first conflict). Returns true iff a conflict was found.
 */
bool
cross_iteration_conflicts(const Context& ctx, const StmtPtr& loop,
                          bool reductions_ok,
                          std::vector<LoopConflict>* out)
{
    bool found = false;
    // The pair loop below visits ordered pairs; report each unordered
    // pair once.
    std::set<std::pair<std::string, std::string>> seen;
    // The detail reads `head` + "<a> vs <b>" + `tail`; it is only built
    // when collecting.
    auto emit = [&](const Access& a, const Access& b, const std::string& head,
                    const std::string& tail = "") {
        found = true;
        if (!out)
            return;
        std::string da = describe_access(a);
        std::string db = describe_access(b);
        auto key = da < db ? std::make_pair(da, db) : std::make_pair(db, da);
        if (seen.insert(std::move(key)).second) {
            out->push_back(
                LoopConflict{a.buf, a, b, head + da + " vs " + db + tail});
        }
    };
    auto accs = collect_accesses_block(loop->body());
    const std::string& iter = loop->iter();
    // A buffer declared in the body is private to one iteration and
    // carries nothing across iterations.
    for (const auto& a : accs) {
        if (out == nullptr && found)
            break;
        if (a.local)
            continue;
        for (const auto& b : accs) {
            if (out == nullptr && found)
                break;
            if (a.buf != b.buf || b.local)
                continue;
            if (a.kind == AccessKind::Read && b.kind == AccessKind::Read)
                continue;
            if (reductions_ok && a.kind == AccessKind::Reduce &&
                b.kind == AccessKind::Reduce) {
                continue;
            }
            if (a.whole_buffer || b.whole_buffer) {
                emit(a, b,
                     "opaque access to '" + a.buf + "' across iterations of '" +
                         iter + "': ");
                continue;
            }
            if (a.idx.empty() && b.idx.empty()) {
                emit(a, b,
                     "scalar '" + a.buf + "' carried across iterations of '" +
                         iter + "': ");
                continue;
            }
            if (a.idx.size() != b.idx.size()) {
                emit(a, b, "shape mismatch on '" + a.buf + "': ");
                continue;
            }
            // Rename iteration variables apart: i (in a) vs i' (in b),
            // with i < i' (covers both orders by symmetry of the pair
            // loop).
            std::string i1 = fresh_name(iter);
            std::string i2 = fresh_name(iter);
            Access ra = a;
            for (auto& e : ra.idx)
                e = expr_subst(e, iter, var(i1));
            for (auto& g : ra.guards)
                g = expr_subst(g, iter, var(i1));
            for (auto& bd : ra.binders) {
                bd.lo = expr_subst(bd.lo, iter, var(i1));
                bd.hi = expr_subst(bd.hi, iter, var(i1));
            }
            Access rb = b;
            for (auto& e : rb.idx)
                e = expr_subst(e, iter, var(i2));
            for (auto& g : rb.guards)
                g = expr_subst(g, iter, var(i2));
            for (auto& bd : rb.binders) {
                bd.lo = expr_subst(bd.lo, iter, var(i2));
                bd.hi = expr_subst(bd.hi, iter, var(i2));
            }
            rb = rename_binders(rb);
            ra = rename_binders(ra);
            LinearSystem::Scope sys(ctx.system());
            // Loop ranges for both iteration copies.
            for (const auto& nm : {i1, i2}) {
                sys.add_pred(
                    Expr::make_binop(BinOpKind::Ge, var(nm), loop->lo()));
                sys.add_pred(
                    Expr::make_binop(BinOpKind::Lt, var(nm), loop->hi()));
            }
            sys.add_pred(Expr::make_binop(BinOpKind::Lt, var(i1), var(i2)));
            assume_access(&sys, ra);
            assume_access(&sys, rb);
            for (size_t d = 0; d < ra.idx.size(); d++) {
                sys.add_eq0(
                    affine_sub(to_affine(ra.idx[d]), to_affine(rb.idx[d])));
            }
            if (!ctx.system().infeasible()) {
                emit(a, b,
                     "possible cross-iteration dependence on '" + a.buf +
                         "': ",
                     " may touch the same cell in two distinct "
                     "iterations of '" + iter + "'");
            }
        }
    }
    return found;
}

bool
cross_iteration_conflict(const Context& ctx, const StmtPtr& loop,
                         bool reductions_ok, std::string* why)
{
    if (why == nullptr)
        return cross_iteration_conflicts(ctx, loop, reductions_ok, nullptr);
    std::vector<LoopConflict> conflicts;
    if (!cross_iteration_conflicts(ctx, loop, reductions_ok, &conflicts))
        return false;
    *why = conflicts.front().detail;
    return true;
}

}  // namespace

bool
loop_conflicts(const Context& ctx, const StmtPtr& loop, bool reductions_ok,
               std::vector<LoopConflict>* out)
{
    if (out)
        out->clear();
    return cross_iteration_conflicts(ctx, loop, reductions_ok, out);
}

bool
loop_iterations_commute(const Context& ctx, const StmtPtr& loop,
                        std::string* why)
{
    return !cross_iteration_conflict(ctx, loop, /*reductions_ok=*/true, why);
}

bool
loop_parallelizable(const Context& ctx, const StmtPtr& loop,
                    std::string* why)
{
    return !cross_iteration_conflict(ctx, loop, /*reductions_ok=*/false, why);
}

bool
stmt_idempotent(const StmtPtr& s)
{
    switch (s->kind()) {
      case StmtKind::Pass:
      case StmtKind::Alloc:
      case StmtKind::WindowDecl:
        return true;
      case StmtKind::Reduce:
        return false;
      case StmtKind::WriteConfig:
        // Idempotent iff the value does not read the field it writes.
        return !expr_uses(s->rhs(), s->name());
      case StmtKind::Assign: {
        // `x = e` is idempotent if e does not read x (at the same index;
        // conservatively: at all).
        return !expr_uses(s->rhs(), s->name());
      }
      case StmtKind::For:
      case StmtKind::If:
        return block_idempotent(s->body()) && block_idempotent(s->orelse());
      case StmtKind::Call: {
        if (!s->callee())
            return false;
        // A call is idempotent if its semantics body is, and no written
        // buffer is also read.
        auto accs = collect_accesses(s);
        for (const auto& a : accs) {
            if (a.kind == AccessKind::Reduce)
                return false;
            if (a.kind != AccessKind::Write)
                continue;
            for (const auto& b : accs) {
                if (b.kind == AccessKind::Read && b.buf == a.buf)
                    return false;
            }
        }
        return true;
      }
    }
    return false;
}

bool
block_idempotent(const std::vector<StmtPtr>& b)
{
    // Idempotence of each statement, plus no statement reads what an
    // earlier one writes (else replay would observe changed state —
    // except exact recomputation, which we conservatively reject).
    for (const auto& s : b) {
        if (!stmt_idempotent(s))
            return false;
    }
    for (size_t i = 0; i < b.size(); i++) {
        auto wi = collect_accesses(b[i]);
        for (size_t j = i + 1; j < b.size(); j++) {
            auto rj = collect_accesses(b[j]);
            for (const auto& w : wi) {
                if (w.kind == AccessKind::Read)
                    continue;
                for (const auto& r : rj) {
                    if (r.kind == AccessKind::Read && r.buf == w.buf)
                        return false;
                }
            }
        }
    }
    return true;
}

bool
stmt_reads(const StmtPtr& s, const std::string& name)
{
    for (const auto& a : collect_accesses(s)) {
        if (a.kind == AccessKind::Read && a.buf == name)
            return true;
        if (a.kind == AccessKind::Reduce && a.buf == name)
            return true;
    }
    return false;
}

bool
stmt_writes(const StmtPtr& s, const std::string& name)
{
    for (const auto& a : collect_accesses(s)) {
        if (a.buf == name && a.kind != AccessKind::Read)
            return true;
    }
    return false;
}

}  // namespace exo2
