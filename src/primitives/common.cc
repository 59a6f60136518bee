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
        if (s->kind() == StmtKind::For && s->iter() == name)
            return true;
        if ((s->kind() == StmtKind::Alloc ||
             s->kind() == StmtKind::WindowDecl) &&
            s->name() == name) {
            return true;
        }
        if (block_binds_name(s->body(), name) ||
            block_binds_name(s->orelse(), name)) {
            return true;
        }
    }
    return false;
}

bool
stmt_uses_unshadowed(const StmtPtr& s, const std::string& name)
{
    auto expr_use = [&](const ExprPtr& e) {
        return e && expr_uses(e, name);
    };
    auto block_uses = [&](const std::vector<StmtPtr>& b) {
        for (const auto& c : b) {
            if (stmt_uses_unshadowed(c, name))
                return true;
            if ((c->kind() == StmtKind::Alloc ||
                 c->kind() == StmtKind::WindowDecl) &&
                c->name() == name) {
                return false;  // re-declared: rest of the list shadowed
            }
        }
        return false;
    };
    switch (s->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce: {
        if (s->name() == name)
            return true;
        for (const auto& i : s->idx()) {
            if (expr_use(i))
                return true;
        }
        return expr_use(s->rhs());
      }
      case StmtKind::Alloc: {
        for (const auto& d : s->dims()) {
            if (expr_use(d))
                return true;
        }
        return false;  // the declaration itself is not a use
      }
      case StmtKind::WindowDecl:
        // Windowing `name` as the base is a use; the declared window
        // name itself is a binder, not a use.
        return expr_use(s->rhs());
      case StmtKind::For:
        if (expr_use(s->lo()) || expr_use(s->hi()))
            return true;
        if (s->iter() == name)
            return false;  // iterator shadows the body
        return block_uses(s->body());
      case StmtKind::If:
        return expr_use(s->cond()) || block_uses(s->body()) ||
               block_uses(s->orelse());
      case StmtKind::Pass:
        return false;
      case StmtKind::Call: {
        for (const auto& a : s->args()) {
            if (expr_use(a))
                return true;
        }
        return false;
      }
      case StmtKind::WriteConfig:
        return expr_use(s->rhs());
    }
    return false;
}

void
require_binders_do_not_escape(const ProcPtr& p, const ListAddr& addr,
                              int lo, int hi, const std::string& who)
{
    const auto& list = stmt_list_at(p, addr);
    for (int i = lo; i < hi && i < static_cast<int>(list.size()); i++) {
        const StmtPtr& s = list[i];
        if (s->kind() != StmtKind::Alloc &&
            s->kind() != StmtKind::WindowDecl) {
            continue;
        }
        for (size_t j = static_cast<size_t>(hi); j < list.size(); j++) {
            require(!stmt_uses(list[j], s->name()),
                    who + ": '" + s->name() +
                        "' is declared inside the rewritten range but "
                        "used after it (the new scope would capture it)");
        }
    }
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
    if (!e)
        return e;
    if (e->kind() == ExprKind::Read && e->name() == name &&
        !(whole_buffer_ok && e->idx().empty())) {
        // Empty-idx reads outside call arguments are scalar accesses of
        // a 0-dim buffer (e.g. pre-expansion staging temps).
        std::vector<ExprPtr> idx;
        idx.reserve(e->idx().size());
        for (const auto& i : e->idx()) {
            idx.push_back(
                rewrite_access_expr(i, name, point_fn, window_fn));
        }
        if (point_fn)
            idx = point_fn(idx);
        return Expr::make_read(e->name(), std::move(idx), e->type());
    }
    if (e->kind() == ExprKind::Window && e->name() == name) {
        std::vector<WindowDim> dims;
        for (const auto& d : e->window_dims()) {
            WindowDim nd;
            nd.lo = rewrite_access_expr(d.lo, name, point_fn, window_fn);
            if (d.hi)
                nd.hi = rewrite_access_expr(d.hi, name, point_fn, window_fn);
            dims.push_back(nd);
        }
        if (window_fn)
            dims = window_fn(dims);
        return Expr::make_window(e->name(), std::move(dims), e->type());
    }
    auto kids = e->children();
    bool changed = false;
    for (auto& k : kids) {
        auto nk = rewrite_access_expr(k, name, point_fn, window_fn);
        if (nk != k) {
            changed = true;
            k = nk;
        }
    }
    if (!changed)
        return e;
    return e->with_children(std::move(kids));
}

/** Whether `s` re-binds `name` for the rest of its statement list. */
bool
shadows_name(const StmtPtr& s, const std::string& name)
{
    return (s->kind() == StmtKind::Alloc ||
            s->kind() == StmtKind::WindowDecl) &&
           s->name() == name;
}

}  // namespace

StmtPtr
rewrite_buffer_access(const StmtPtr& s, const std::string& name,
                      const PointRewriteFn& point_fn,
                      const WindowRewriteFn& window_fn)
{
    StmtPtr out = s;
    auto rw = [&](const ExprPtr& e) {
        return rewrite_access_expr(e, name, point_fn, window_fn);
    };
    switch (s->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce: {
        std::vector<ExprPtr> idx;
        for (const auto& i : s->idx())
            idx.push_back(rw(i));
        if (s->name() == name && point_fn)
            idx = point_fn(idx);
        out = out->with_idx(std::move(idx))->with_rhs(rw(s->rhs()));
        return out;
      }
      case StmtKind::Alloc:
        return out;
      case StmtKind::For:
        // An iterator of the same name shadows the buffer inside the
        // body (bounds evaluate outside the iterator's scope).
        if (s->iter() == name)
            return out->with_bounds(rw(s->lo()), rw(s->hi()));
        return out->with_bounds(rw(s->lo()), rw(s->hi()))
            ->with_body(rewrite_buffer_access_block(s->body(), name,
                                                    point_fn, window_fn));
      case StmtKind::If:
        return out->with_cond(rw(s->cond()))
            ->with_body(rewrite_buffer_access_block(s->body(), name,
                                                    point_fn, window_fn))
            ->with_orelse(rewrite_buffer_access_block(s->orelse(), name,
                                                      point_fn, window_fn));
      case StmtKind::Pass:
        return out;
      case StmtKind::Call: {
        std::vector<ExprPtr> args;
        for (const auto& a : s->args()) {
            // Whole-buffer pass stays untouched; windows are rewritten.
            args.push_back(rewrite_access_expr(a, name, point_fn,
                                               window_fn,
                                               /*whole_buffer_ok=*/true));
        }
        return out->with_args(std::move(args));
      }
      case StmtKind::WriteConfig:
      case StmtKind::WindowDecl:
        return out->with_rhs(rw(s->rhs()));
    }
    throw InternalError("unknown stmt kind");
}

std::vector<StmtPtr>
rewrite_buffer_access_block(const std::vector<StmtPtr>& b,
                            const std::string& name,
                            const PointRewriteFn& point_fn,
                            const WindowRewriteFn& window_fn)
{
    std::vector<StmtPtr> out;
    out.reserve(b.size());
    bool shadowed = false;
    for (const auto& s : b) {
        if (shadowed) {
            // A re-declaration of `name` earlier in this list: the rest
            // of the block refers to the new binder, not our buffer.
            out.push_back(s);
            continue;
        }
        out.push_back(rewrite_buffer_access(s, name, point_fn, window_fn));
        if (shadows_name(s, name))
            shadowed = true;
    }
    return out;
}

namespace {

ExprPtr
rename_buffer_expr(const ExprPtr& e, const std::string& old_name,
                   const std::string& new_name)
{
    if (!e)
        return e;
    if ((e->kind() == ExprKind::Read || e->kind() == ExprKind::Window ||
         e->kind() == ExprKind::Stride) &&
        e->name() == old_name) {
        if (e->kind() == ExprKind::Read) {
            std::vector<ExprPtr> idx;
            for (const auto& i : e->idx())
                idx.push_back(rename_buffer_expr(i, old_name, new_name));
            return Expr::make_read(new_name, std::move(idx), e->type());
        }
        if (e->kind() == ExprKind::Window) {
            std::vector<WindowDim> dims;
            for (const auto& d : e->window_dims()) {
                WindowDim nd;
                nd.lo = rename_buffer_expr(d.lo, old_name, new_name);
                if (d.hi)
                    nd.hi = rename_buffer_expr(d.hi, old_name, new_name);
                dims.push_back(nd);
            }
            return Expr::make_window(new_name, std::move(dims), e->type());
        }
        return Expr::make_stride(new_name, e->stride_dim());
    }
    auto kids = e->children();
    bool changed = false;
    for (auto& k : kids) {
        auto nk = rename_buffer_expr(k, old_name, new_name);
        if (nk != k) {
            changed = true;
            k = nk;
        }
    }
    if (!changed)
        return e;
    return e->with_children(std::move(kids));
}

}  // namespace

StmtPtr
rename_buffer(const StmtPtr& s, const std::string& old_name,
              const std::string& new_name)
{
    auto rw = [&](const ExprPtr& e) {
        return rename_buffer_expr(e, old_name, new_name);
    };
    StmtPtr out = s;
    switch (s->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce: {
        std::vector<ExprPtr> idx;
        for (const auto& i : s->idx())
            idx.push_back(rw(i));
        out = out->with_idx(std::move(idx))->with_rhs(rw(s->rhs()));
        if (s->name() == old_name)
            out = out->with_name(new_name);
        return out;
      }
      case StmtKind::Alloc: {
        std::vector<ExprPtr> dims;
        for (const auto& d : s->dims())
            dims.push_back(rw(d));
        out = out->with_dims(std::move(dims));
        if (s->name() == old_name)
            out = out->with_name(new_name);
        return out;
      }
      case StmtKind::For: {
        if (s->iter() == old_name)
            return out->with_bounds(rw(s->lo()), rw(s->hi()));
        auto rename_block = [&](const std::vector<StmtPtr>& b) {
            std::vector<StmtPtr> nb;
            bool shadowed = false;
            for (const auto& c : b) {
                nb.push_back(shadowed
                                 ? c
                                 : rename_buffer(c, old_name, new_name));
                if (shadows_name(c, old_name))
                    shadowed = true;
            }
            return nb;
        };
        return out->with_bounds(rw(s->lo()), rw(s->hi()))
            ->with_body(rename_block(s->body()));
      }
      case StmtKind::If: {
        auto rename_block = [&](const std::vector<StmtPtr>& b) {
            std::vector<StmtPtr> nb;
            bool shadowed = false;
            for (const auto& c : b) {
                nb.push_back(shadowed
                                 ? c
                                 : rename_buffer(c, old_name, new_name));
                if (shadows_name(c, old_name))
                    shadowed = true;
            }
            return nb;
        };
        return out->with_cond(rw(s->cond()))
            ->with_body(rename_block(s->body()))
            ->with_orelse(rename_block(s->orelse()));
      }
      case StmtKind::Pass:
        return out;
      case StmtKind::Call: {
        std::vector<ExprPtr> args;
        for (const auto& a : s->args())
            args.push_back(rw(a));
        return out->with_args(std::move(args));
      }
      case StmtKind::WriteConfig:
        return out->with_rhs(rw(s->rhs()));
      case StmtKind::WindowDecl: {
        out = out->with_rhs(rw(s->rhs()));
        if (s->name() == old_name)
            out = out->with_name(new_name);
        return out;
      }
    }
    throw InternalError("unknown stmt kind");
}

namespace {

void
visit_expr_accesses(
    const Context& ctx, const ExprPtr& e, const std::string& name,
    const std::function<void(const Context&, const std::vector<ExprPtr>&)>&
        visit)
{
    if (!e)
        return;
    if (e->kind() == ExprKind::Read && e->name() == name) {
        visit(ctx, e->idx());
    }
    if (e->kind() == ExprKind::Window && e->name() == name) {
        // Report lo and hi-1 for each interval dim.
        std::vector<ExprPtr> los;
        std::vector<ExprPtr> his;
        for (const auto& d : e->window_dims()) {
            los.push_back(d.lo);
            his.push_back(d.hi ? d.hi - idx_const(1) : d.lo);
        }
        visit(ctx, los);
        visit(ctx, his);
    }
    for (const auto& k : e->children())
        visit_expr_accesses(ctx, k, name, visit);
}

void
visit_stmt_accesses(
    Context& ctx, const StmtPtr& s, const std::string& name,
    const std::function<void(const Context&, const std::vector<ExprPtr>&)>&
        visit)
{
    switch (s->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        if (s->name() == name)
            visit(ctx, s->idx());
        for (const auto& i : s->idx())
            visit_expr_accesses(ctx, i, name, visit);
        visit_expr_accesses(ctx, s->rhs(), name, visit);
        return;
      case StmtKind::Alloc:
        return;
      case StmtKind::For: {
        if (s->iter() == name)
            return;  // iterator shadows the buffer in the body
        Context::Scope in(ctx);
        ctx.enter_loop(s->iter(), s->lo(), s->hi());
        for (const auto& c : s->body()) {
            visit_stmt_accesses(ctx, c, name, visit);
            if (shadows_name(c, name))
                break;
        }
        return;
      }
      case StmtKind::If: {
        visit_expr_accesses(ctx, s->cond(), name, visit);
        {
            Context::Scope in(ctx);
            ctx.assume(s->cond());
            for (const auto& c : s->body()) {
                visit_stmt_accesses(ctx, c, name, visit);
                if (shadows_name(c, name))
                    break;
            }
        }
        Context::Scope in(ctx);
        ctx.assume_not(s->cond());
        for (const auto& c : s->orelse()) {
            visit_stmt_accesses(ctx, c, name, visit);
            if (shadows_name(c, name))
                break;
        }
        return;
      }
      case StmtKind::Pass:
        return;
      case StmtKind::Call:
        for (const auto& a : s->args())
            visit_expr_accesses(ctx, a, name, visit);
        return;
      case StmtKind::WriteConfig:
      case StmtKind::WindowDecl:
        visit_expr_accesses(ctx, s->rhs(), name, visit);
        return;
    }
}

}  // namespace

void
visit_stmt_buffer_accesses(
    Context& base, const StmtPtr& s, const std::string& name,
    const std::function<void(const Context&, const std::vector<ExprPtr>&)>&
        visit)
{
    visit_stmt_accesses(base, s, name, visit);
}

void
visit_alloc_scope_accesses(
    const ProcPtr& p, const Path& alloc_path, const std::string& name,
    const std::function<void(const Context&, const std::vector<ExprPtr>&)>&
        visit)
{
    int pos = 0;
    ListAddr addr = list_addr_of(alloc_path, &pos);
    const auto& list = stmt_list_at(p, addr);
    Context ctx = Context::at(p, alloc_path);
    for (size_t i = static_cast<size_t>(pos) + 1; i < list.size(); i++) {
        visit_stmt_accesses(ctx, list[i], name, visit);
        if (shadows_name(list[i], name))
            break;  // re-declared: the rest refers to the new binder
    }
}

void
visit_buffer_accesses(
    const ProcPtr& p, const Path& root, const std::string& name,
    const std::function<void(const Context&, const std::vector<ExprPtr>&)>&
        visit)
{
    if (root.empty()) {
        Context ctx = Context::at(p, {});
        for (const auto& s : p->body_stmts())
            visit_stmt_accesses(ctx, s, name, visit);
        return;
    }
    Context ctx = Context::at(p, root);
    visit_stmt_accesses(ctx, stmt_at(p, root), name, visit);
}

}  // namespace exo2
