#include "src/primitives/common.h"

#include <algorithm>
#include <map>
#include <memory>
#include <functional>
#include <set>
#include <unordered_map>

#include "src/analysis/effects.h"
#include "src/cursor/accel.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/obs/metrics.h"

namespace exo2 {

namespace {

// Registered at startup so op=metrics lists it at 0.
[[maybe_unused]] obs::Counter& g_registered = obs::counter("prim.rewrites");

}  // namespace

void
ScheduleStats::count_rewrite(const std::string& primitive)
{
    (void)primitive;
    EXO2_COUNT("prim.rewrites");
}

int64_t
ScheduleStats::rewrites()
{
    return static_cast<int64_t>(obs::counter("prim.rewrites").value());
}

void
require_par_loop_independent(const ProcPtr& p, const Path& path,
                             const std::string& who)
{
    StmtPtr s = stmt_at(p, path);
    std::vector<LoopConflict> conflicts;
    if (s->kind() != StmtKind::For || s->loop_mode() != LoopMode::Par ||
        !loop_conflicts(Context::at(p, path), s, /*reductions_ok=*/false,
                        &conflicts))
        return;
    std::string why;
    for (const LoopConflict& c : conflicts)
        why += (why.empty() ? "" : "; ") + c.detail;
    require(false,
            who + ": parallel loop '" + s->iter() + "' would race: " + why);
}

void
require(bool cond, const std::string& msg)
{
    if (!cond)
        throw SchedulingError(msg);
}

void
require_evaluable_at(const ProcPtr& p, const Path& path, const ExprPtr& e,
                     const std::string& who)
{
    Context ctx = Context::at(p, path);
    std::function<void(const ExprPtr&)> check = [&](const ExprPtr& x) {
        if (x->kind() == ExprKind::Read || x->kind() == ExprKind::Window ||
            x->kind() == ExprKind::Stride) {
            Binding b = binding_at(p, path, x->name());
            require(static_cast<bool>(b), who + ": '" + x->name() +
                                              "' is not bound at the "
                                              "insertion point");
            std::vector<ExprPtr> dims;
            if (x->kind() == ExprKind::Read)
                dims = binding_dims(b);
            require(x->kind() != ExprKind::Read ||
                        dims.size() == x->idx().size(),
                    who + ": '" + x->name() + "' is read with " +
                        std::to_string(x->idx().size()) +
                        " indices at the insertion point, where it has " +
                        std::to_string(dims.size()) + " dims");
            for (size_t d = 0; d < dims.size(); d++) {
                require(ctx.prove_ge0(x->idx()[d]) &&
                            ctx.prove_lt(x->idx()[d], dims[d]),
                        who + ": access to '" + x->name() +
                            "' not provably in bounds at the insertion "
                            "point");
            }
        }
        any_child(x, [&](const ExprPtr& k) {
            check(k);
            return false;
        });
    };
    check(e);
}

namespace {

void
collect_names(const StmtPtr& s, std::set<std::string>* out)
{
    switch (s->kind()) {
      case StmtKind::Alloc:
      case StmtKind::WindowDecl:
        out->insert(s->name());
        break;
      case StmtKind::For:
        out->insert(s->iter());
        break;
      default:
        break;
    }
    for (const auto& c : s->body())
        collect_names(c, out);
    for (const auto& c : s->orelse())
        collect_names(c, out);
}

// Memoized per-subtree binder-name summaries (sorted unique vectors
// plus a 64-bit bloom), held in each statement's inline `names_memo()`
// slot like the pattern index (DESIGN.md §3): spine-sharing edits reuse
// all untouched subtrees' summaries, so `ensure_unused` / `fresh_in`
// probe instead of re-collecting every name in the proc on every
// primitive — the dominant cost of long wide schedules. Gated on the
// pattern-index switch so the no-acceleration ablation measures the
// original walk.

struct NameSummary
{
    uint64_t bloom = 0;  ///< one bit per name hash; clear bit = absent
    std::vector<std::string> names;  ///< sorted unique binder names
};

uint64_t
name_bloom_bit(const std::string& n)
{
    return uint64_t(1) << (std::hash<std::string>{}(n) & 63);
}

const NameSummary*
binder_names(const StmtPtr& s)
{
    return probe_subtree_memo<NameSummary>(s->names_memo(), [&] {
        auto sum = std::make_shared<NameSummary>();
        std::vector<std::string> names;
        switch (s->kind()) {
          case StmtKind::Alloc:
          case StmtKind::WindowDecl:
            names.push_back(s->name());
            break;
          case StmtKind::For:
            names.push_back(s->iter());
            break;
          default:
            break;
        }
        auto merge = [&](const std::vector<StmtPtr>& block) {
            for (const StmtPtr& ch : block) {
                const NameSummary* cs = binder_names(ch);
                sum->bloom |= cs->bloom;
                names.insert(names.end(), cs->names.begin(),
                             cs->names.end());
            }
        };
        merge(s->body());
        merge(s->orelse());
        std::sort(names.begin(), names.end());
        names.erase(std::unique(names.begin(), names.end()), names.end());
        for (const auto& n : names)
            sum->bloom |= name_bloom_bit(n);
        sum->names = std::move(names);
        return std::shared_ptr<const NameSummary>(std::move(sum));
    });
}

bool
name_used(const ProcPtr& p, const std::string& name)
{
    for (const auto& a : p->args()) {
        if (a.name == name)
            return true;
    }
    if (pattern_index_enabled()) {
        uint64_t bit = name_bloom_bit(name);
        for (const auto& s : p->body_stmts()) {
            const NameSummary* v = binder_names(s);
            if ((v->bloom & bit) &&
                std::binary_search(v->names.begin(), v->names.end(), name))
                return true;
        }
        return false;
    }
    std::set<std::string> names;
    for (const auto& s : p->body_stmts())
        collect_names(s, &names);
    return names.count(name) != 0;
}

}  // namespace

std::vector<std::string>
used_names(const ProcPtr& p)
{
    std::set<std::string> names;
    for (const auto& a : p->args())
        names.insert(a.name);
    for (const auto& s : p->body_stmts())
        collect_names(s, &names);
    return std::vector<std::string>(names.begin(), names.end());
}

void
ensure_unused(const ProcPtr& p, const std::string& name)
{
    require(!name_used(p, name),
            "name '" + name + "' is already used in " + p->name());
}

std::string
fresh_in(const ProcPtr& p, const std::string& base)
{
    if (pattern_index_enabled()) {
        if (!name_used(p, base))
            return base;
        for (int i = 1;; i++) {
            std::string cand = base + "_" + std::to_string(i);
            if (!name_used(p, cand))
                return cand;
        }
    }
    // Index off (ablation): collect once, then probe the set, instead
    // of one full tree walk per candidate.
    auto names = used_names(p);
    auto taken = [&](const std::string& n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    if (!taken(base))
        return base;
    for (int i = 1;; i++) {
        std::string cand = base + "_" + std::to_string(i);
        if (!taken(cand))
            return cand;
    }
}

Cursor
expect_stmt_cursor(const ProcPtr& p, const Cursor& c)
{
    Cursor f = p->forward(c);
    require(f.is_valid(), "cursor was invalidated");
    require(f.kind() == CursorKind::Node, "expected a statement cursor");
    (void)f.stmt();
    return f;
}

Cursor
expect_loop_cursor(const ProcPtr& p, const Cursor& c)
{
    Cursor f = expect_stmt_cursor(p, c);
    require(f.stmt()->kind() == StmtKind::For, "expected a For loop cursor");
    return f;
}

Cursor
expect_gap_cursor(const ProcPtr& p, const Cursor& c)
{
    Cursor f = p->forward(c);
    require(f.is_valid(), "cursor was invalidated");
    require(f.kind() == CursorKind::Gap, "expected a gap cursor");
    return f;
}

bool
block_binds_name(const std::vector<StmtPtr>& b, const std::string& name)
{
    for (const auto& s : b) {
        if ((s->kind() == StmtKind::For && s->iter() == name) ||
            declares(s, name)) {
            return true;
        }
        if (block_binds_name(s->body(), name) ||
            block_binds_name(s->orelse(), name)) {
            return true;
        }
    }
    return false;
}

void
require_binders_do_not_escape(const ProcPtr& p, const ListAddr& addr,
                              int lo, int hi, const std::string& who)
{
    const auto& list = stmt_list_at(p, addr);
    long mid = std::min<long>(hi, static_cast<long>(list.size()));
    std::string name = captured_name(
        std::vector<StmtPtr>(list.begin() + lo, list.begin() + mid),
        std::vector<StmtPtr>(list.begin() + mid, list.end()));
    require(name.empty(), who + ": '" + name +
                              "' is declared inside the rewritten range "
                              "but used after it (the new scope would "
                              "capture it)");
}

ForwardFn
fwd_relocate_list(ListAddr old_list, ListAddr new_list, ForwardFn rest)
{
    return [old_list = std::move(old_list), new_list = std::move(new_list),
            rest = std::move(rest)](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        size_t d = old_list.parent.size();
        bool through = l.path.size() > d &&
                       l.path[d].label == old_list.label;
        if (through) {
            for (size_t i = 0; i < d && through; i++) {
                if (!(l.path[i] == old_list.parent[i]))
                    through = false;
            }
        }
        if (!through)
            return rest(l);
        CursorLoc out = l;
        Path np = new_list.parent;
        np.push_back({new_list.label, l.path[d].index});
        np.insert(np.end(), l.path.begin() + static_cast<long>(d) + 1,
                  l.path.end());
        out.path = std::move(np);
        return out;
    };
}

namespace {

ExprPtr
rewrite_access_expr(const ExprPtr& e, const std::string& name,
                    const PointRewriteFn& point_fn,
                    const WindowRewriteFn& window_fn,
                    bool whole_buffer_ok = false)
{
    auto rw = [&](const ExprPtr& k) {
        return rewrite_access_expr(k, name, point_fn, window_fn);
    };
    if (e->kind() == ExprKind::Read && e->name() == name &&
        !(whole_buffer_ok && e->idx().empty())) {
        // Empty-idx reads outside call arguments are scalar accesses of
        // a 0-dim buffer (e.g. pre-expansion staging temps).
        std::vector<ExprPtr> idx;
        idx.reserve(e->idx().size());
        for (const auto& i : e->idx())
            idx.push_back(rw(i));
        if (point_fn)
            idx = point_fn(idx);
        return Expr::make_read(e->name(), std::move(idx), e->type());
    }
    if (e->kind() == ExprKind::Window && e->name() == name) {
        std::vector<WindowDim> dims;
        for (const auto& d : e->window_dims())
            dims.push_back(WindowDim{rw(d.lo), d.hi ? rw(d.hi) : nullptr});
        if (window_fn)
            dims = window_fn(dims);
        return Expr::make_window(e->name(), std::move(dims), e->type());
    }
    return map_children(e, rw);
}

/** The one-statement part of `rewrite_buffer_access_block`. */
StmtPtr
rewrite_accesses_here(const StmtPtr& s, const std::string& name,
                      const PointRewriteFn& point_fn,
                      const WindowRewriteFn& window_fn)
{
    auto rw = [&](const ExprPtr& e) {
        return rewrite_access_expr(e, name, point_fn, window_fn);
    };
    if (s->kind() == StmtKind::Call) {
        // Whole-buffer pass stays untouched; windows are rewritten.
        return map_exprs(s, [&](const ExprPtr& e) {
            return rewrite_access_expr(e, name, point_fn, window_fn,
                                       /*whole_buffer_ok=*/true);
        });
    }
    if (s->is_write() && s->name() == name && point_fn) {
        std::vector<ExprPtr> idx;
        for (const auto& i : s->idx())
            idx.push_back(rw(i));
        return s->with_idx(point_fn(idx))->with_rhs(rw(s->rhs()));
    }
    return map_exprs(s, rw);
}

}  // namespace

std::vector<StmtPtr>
rewrite_buffer_access_block(const std::vector<StmtPtr>& b,
                            const std::string& name,
                            const PointRewriteFn& point_fn,
                            const WindowRewriteFn& window_fn)
{
    return map_block_in_scope(b, name, [&](const StmtPtr& st) {
        return rewrite_accesses_here(st, name, point_fn, window_fn);
    });
}

namespace {

ExprPtr
rename_buffer_expr(const ExprPtr& e, const std::string& old_name,
                   const std::string& new_name)
{
    auto rw = [&](const ExprPtr& k) {
        return rename_buffer_expr(k, old_name, new_name);
    };
    if (e->kind() == ExprKind::Read && e->name() == old_name) {
        std::vector<ExprPtr> idx;
        for (const auto& i : e->idx())
            idx.push_back(rw(i));
        return Expr::make_read(new_name, std::move(idx), e->type());
    }
    if (e->kind() == ExprKind::Window && e->name() == old_name) {
        std::vector<WindowDim> dims;
        for (const auto& d : e->window_dims())
            dims.push_back(WindowDim{rw(d.lo), d.hi ? rw(d.hi) : nullptr});
        return Expr::make_window(new_name, std::move(dims), e->type());
    }
    if (e->kind() == ExprKind::Stride && e->name() == old_name)
        return Expr::make_stride(new_name, e->stride_dim());
    return map_children(e, rw);
}

/** The one-statement part of `rename_buffer_block`: references and the
 *  write target, never a declaration. */
StmtPtr
rename_here(const StmtPtr& s, const std::string& old_name,
            const std::string& new_name)
{
    StmtPtr out = map_exprs(s, [&](const ExprPtr& e) {
        return rename_buffer_expr(e, old_name, new_name);
    });
    if (out->is_write() && out->name() == old_name)
        out = out->with_name(new_name);
    return out;
}

}  // namespace

std::vector<StmtPtr>
rename_buffer_block(const std::vector<StmtPtr>& b, const std::string& old_name,
                    const std::string& new_name)
{
    return map_block_in_scope(b, old_name, [&](const StmtPtr& st) {
        return rename_here(st, old_name, new_name);
    });
}

namespace {

void
visit_expr_accesses(const ExprPtr& e, const std::string& name,
                    const AccessFn& visit)
{
    if (e->kind() == ExprKind::Read && e->name() == name)
        visit(e->idx(), AccessKind::Read);
    if (e->kind() == ExprKind::Window && e->name() == name) {
        // Report lo and hi-1 for each interval dim.
        std::vector<ExprPtr> los;
        std::vector<ExprPtr> his;
        for (const auto& d : e->window_dims()) {
            los.push_back(d.lo);
            his.push_back(d.hi ? d.hi - idx_const(1) : d.lo);
        }
        visit(los, AccessKind::Read);
        visit(his, AccessKind::Read);
    }
    any_child(e, [&](const ExprPtr& k) {
        visit_expr_accesses(k, name, visit);
        return false;
    });
}

}  // namespace

void
visit_buffer_accesses(const std::vector<StmtPtr>& b, const std::string& name,
                      const AccessFn& visit, const ScopeDescendFn& descend)
{
    auto here = [&](const StmtPtr& s) {
        if (s->is_write() && s->name() == name) {
            visit(s->idx(), s->kind() == StmtKind::Assign
                                ? AccessKind::Write
                                : AccessKind::Reduce);
        }
        any_expr(s, [&](const ExprPtr& e) {
            visit_expr_accesses(e, name, visit);
            return false;
        });
        return false;
    };
    any_block_in_scope(b, name, here, descend);
}

void
visit_buffer_accesses(Context& ctx, const std::vector<StmtPtr>& b,
                      const std::string& name, const AccessVisitFn& visit)
{
    auto descend = [&](const StmtPtr& s, PathLabel body,
                       const std::function<bool()>& walk) {
        Context::Scope in(ctx);
        if (s->kind() == StmtKind::For)
            ctx.enter_loop(s->iter(), s->lo(), s->hi());
        else if (body == PathLabel::Body)
            ctx.assume(s->cond());
        else
            ctx.assume_not(s->cond());
        return walk();
    };
    visit_buffer_accesses(
        b, name,
        [&](const std::vector<ExprPtr>& idx, AccessKind) { visit(ctx, idx); },
        descend);
}

void
visit_alloc_scope_accesses(const ProcPtr& p, const Path& alloc_path,
                           const std::string& name,
                           const AccessVisitFn& visit)
{
    int pos = 0;
    ListAddr addr = list_addr_of(alloc_path, &pos);
    const auto& list = stmt_list_at(p, addr);
    Context ctx = Context::at(p, alloc_path);
    visit_buffer_accesses(
        ctx, std::vector<StmtPtr>(list.begin() + pos + 1, list.end()), name,
        visit);
}

}  // namespace exo2
