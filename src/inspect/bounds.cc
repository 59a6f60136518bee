#include "src/inspect/bounds.h"

#include <functional>
#include <map>

#include "src/analysis/context.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {
namespace inspect {

namespace {

/** A bound iterator with its range at the point of an access. */
struct Binder
{
    std::string name;
    ExprPtr lo;
    ExprPtr hi;
};

/** Substitute each bound iterator by the extreme giving min (or max). */
ExprPtr
extreme(const ExprPtr& idx, const std::vector<Binder>& binders, bool want_max)
{
    Affine a = to_affine(idx);
    ExprPtr out = idx;
    for (const auto& b : binders) {
        int64_t c = a.coeff_of(b.name);
        if (c == 0) {
            if (a.mentions(b.name)) {
                throw SchedulingError(
                    "infer_bounds: non-affine use of iterator '" + b.name +
                    "' in index " + print_expr(idx));
            }
            continue;
        }
        bool take_hi = (c > 0) == want_max;
        ExprPtr v = take_hi ? (b.hi - idx_const(1)) : b.lo;
        out = expr_subst(out, b.name, v);
    }
    return out;
}

enum class Filter { All, Reads, Writes };

std::vector<WindowDim>
infer(const ProcPtr& p, const Cursor& scope, const std::string& buf,
      Filter filter)
{
    Cursor sc = p->forward(scope);
    StmtPtr root = sc.stmt();
    Context ctx = Context::at(p, sc.loc().path);
    struct Acc
    {
        std::vector<ExprPtr> lo;
        std::vector<ExprPtr> hi;  // exclusive
    };
    std::vector<Acc> accs;
    std::vector<Binder> binders;

    std::function<void(const std::vector<ExprPtr>&)> record =
        [&](const std::vector<ExprPtr>& idx) {
            Acc a;
            for (const auto& e : idx) {
                a.lo.push_back(extreme(e, binders, /*want_max=*/false));
                a.hi.push_back(extreme(e, binders, /*want_max=*/true) +
                               idx_const(1));
            }
            accs.push_back(std::move(a));
        };

    std::function<void(const ExprPtr&)> scan_expr;
    std::function<void(const StmtPtr&)> scan;
    scan_expr = [&](const ExprPtr& e) {
        if (!e)
            return;
        if (e->kind() == ExprKind::Read && e->name() == buf &&
            !e->idx().empty() && filter != Filter::Writes) {
            record(e->idx());
        }
        if (e->kind() == ExprKind::Window && e->name() == buf) {
            throw SchedulingError("infer_bounds: windowed access");
        }
        for (const auto& k : e->children())
            scan_expr(k);
    };
    scan = [&](const StmtPtr& s) {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce:
            if (s->name() == buf && filter != Filter::Reads)
                record(s->idx());
            if (s->name() == buf && s->kind() == StmtKind::Reduce &&
                filter == Filter::Reads) {
                record(s->idx());  // reductions also read
            }
            for (const auto& i : s->idx())
                scan_expr(i);
            scan_expr(s->rhs());
            return;
          case StmtKind::For: {
            binders.push_back({s->iter(), s->lo(), s->hi()});
            for (const auto& c : s->body())
                scan(c);
            binders.pop_back();
            return;
          }
          case StmtKind::If: {
            for (const auto& c : s->body())
                scan(c);
            for (const auto& c : s->orelse())
                scan(c);
            return;
          }
          default:
            for (const auto& c : s->body())
                scan(c);
            for (const auto& c : s->orelse())
                scan(c);
            return;
        }
    };
    // Bounds over the scope's body: the scope iterator itself is free.
    if (root->kind() == StmtKind::For || root->kind() == StmtKind::If) {
        for (const auto& c : root->body())
            scan(c);
        for (const auto& c : root->orelse())
            scan(c);
    } else {
        scan(root);
    }

    if (accs.empty()) {
        throw SchedulingError("infer_bounds: no accesses to '" + buf +
                              "' in scope");
    }
    size_t rank = accs[0].lo.size();
    for (const auto& a : accs) {
        if (a.lo.size() != rank)
            throw SchedulingError("infer_bounds: mixed access arity");
    }
    // Union: smallest lo, largest hi per dim (provably ordered).
    if (root->kind() == StmtKind::For)
        ctx.enter_loop(root->iter(), root->lo(), root->hi());
    std::vector<WindowDim> out;
    for (size_t d = 0; d < rank; d++) {
        ExprPtr lo = accs[0].lo[d];
        ExprPtr hi = accs[0].hi[d];
        for (size_t k = 1; k < accs.size(); k++) {
            const ExprPtr& cl = accs[k].lo[d];
            const ExprPtr& ch = accs[k].hi[d];
            if (ctx.prove_le(cl, lo)) {
                lo = cl;
            } else if (!ctx.prove_le(lo, cl)) {
                throw SchedulingError(
                    "infer_bounds: incomparable lower bounds " +
                    print_expr(lo) + " vs " + print_expr(cl));
            }
            if (ctx.prove_le(hi, ch)) {
                hi = ch;
            } else if (!ctx.prove_le(ch, hi)) {
                throw SchedulingError(
                    "infer_bounds: incomparable upper bounds");
            }
        }
        WindowDim wd;
        wd.lo = lo;
        wd.hi = hi;
        out.push_back(wd);
    }
    return out;
}

}  // namespace

std::vector<WindowDim>
infer_bounds(const ProcPtr& p, const Cursor& scope, const std::string& buf)
{
    return infer(p, scope, buf, Filter::All);
}

std::vector<WindowDim>
infer_read_bounds(const ProcPtr& p, const Cursor& scope,
                  const std::string& buf)
{
    return infer(p, scope, buf, Filter::Reads);
}

std::vector<WindowDim>
infer_write_bounds(const ProcPtr& p, const Cursor& scope,
                   const std::string& buf)
{
    return infer(p, scope, buf, Filter::Writes);
}

}  // namespace inspect
}  // namespace exo2
