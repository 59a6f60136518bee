#include "src/inspect/bounds.h"

#include "src/analysis/context.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/primitives/common.h"

namespace exo2 {
namespace inspect {

namespace {

/** Substitute each bound iterator by the extreme giving min (or max). */
ExprPtr
extreme(const ExprPtr& idx, const std::vector<LoopBinder>& binders,
        bool want_max)
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
    std::vector<LoopBinder> binders;  // bound inside the scope
    // Reductions both read and write.
    auto record = [&](const std::vector<ExprPtr>& idx, AccessKind kind) {
        if ((filter == Filter::Reads && kind == AccessKind::Write) ||
            (filter == Filter::Writes && kind == AccessKind::Read)) {
            return;
        }
        if (idx.empty()) {
            throw SchedulingError("infer_bounds: whole-buffer access to '" +
                                  buf + "'");
        }
        Acc a;
        for (const auto& e : idx) {
            a.lo.push_back(extreme(e, binders, /*want_max=*/false));
            a.hi.push_back(extreme(e, binders, /*want_max=*/true) +
                           idx_const(1));
        }
        accs.push_back(std::move(a));
    };
    auto descend = [&](const StmtPtr& s, PathLabel,
                       const std::function<bool()>& walk) {
        if (s->kind() != StmtKind::For)
            return walk();
        binders.push_back({s->iter(), s->lo(), s->hi()});
        walk();
        binders.pop_back();
        return false;
    };
    // A declaration of `buf` at the top of a list of the scope declares
    // the buffer being sized; one nested deeper is another buffer.
    auto visit = [&](const std::vector<StmtPtr>& b) {
        size_t from = 0;
        for (size_t i = 0; i <= b.size(); i++) {
            if (i < b.size() && !declares(b[i], buf))
                continue;
            visit_buffer_accesses(
                std::vector<StmtPtr>(b.begin() + static_cast<long>(from),
                                     b.begin() + static_cast<long>(i)),
                buf, record, descend);
            from = i + 1;
        }
    };
    // Bounds over the scope's body: the scope iterator itself is free.
    if (root->kind() == StmtKind::For || root->kind() == StmtKind::If) {
        visit(root->body());
        visit(root->orelse());
    } else {
        visit({root});
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
