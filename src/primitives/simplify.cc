#include "src/primitives/simplify.h"

#include "src/analysis/effects.h"

#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {

namespace {

bool
is_index_like(const ExprPtr& e)
{
    return e->type() == ScalarType::Index;
}

/** Split an affine form into (divisible-by-c part scaled down, rest). */
void
split_by_divisor(const Affine& a, int64_t c, Affine* quotient, Affine* rest)
{
    quotient->constant = 0;
    rest->constant = 0;
    quotient->terms.clear();
    rest->terms.clear();
    for (const auto& [key, t] : a.terms) {
        if (t.coeff % c == 0) {
            quotient->terms[key] = LinTerm{t.atom, t.coeff / c};
        } else {
            rest->terms[key] = t;
        }
    }
    // Constant: put the divisible part in the quotient.
    int64_t qc = a.constant / c;
    int64_t rc = a.constant % c;
    if (rc < 0) {  // keep remainder in [0, c)
        rc += c;
        qc -= 1;
    }
    quotient->constant = qc;
    rest->constant = rc;
}

ExprPtr
fold_float_binop(const ExprPtr& e)
{
    const ExprPtr& l = e->lhs();
    const ExprPtr& r = e->rhs();
    if (l->kind() != ExprKind::Const || r->kind() != ExprKind::Const)
        return e;
    double a = l->const_value();
    double b = r->const_value();
    double v = 0;
    switch (e->op()) {
      case BinOpKind::Add: v = a + b; break;
      case BinOpKind::Sub: v = a - b; break;
      case BinOpKind::Mul: v = a * b; break;
      default: return e;
    }
    return Expr::make_const(v, e->type());
}

class Simplifier
{
  public:
    explicit Simplifier(const Context& ctx) : ctx_(ctx) {}

    ExprPtr expr(const ExprPtr& e)
    {
        if (e->kind() == ExprKind::BinOp)
            return binop(e);
        ExprPtr out =
            map_children(e, [&](const ExprPtr& k) { return expr(k); });
        if (out->kind() == ExprKind::USub &&
            out->lhs()->kind() == ExprKind::Const) {
            return Expr::make_const(-out->lhs()->const_value(), out->type());
        }
        return out;
    }

  private:
    ExprPtr binop(const ExprPtr& e)
    {
        ExprPtr l = expr(e->lhs());
        ExprPtr r = expr(e->rhs());
        ExprPtr cur = (l == e->lhs() && r == e->rhs())
                          ? e
                          : Expr::make_binop(e->op(), l, r);
        if (is_predicate_op(cur->op()))
            return cur;
        if (!is_index_like(cur))
            return fold_float_binop(cur);
        switch (cur->op()) {
          case BinOpKind::Add:
          case BinOpKind::Sub:
          case BinOpKind::Mul: {
            Affine a = to_affine(cur);
            // Fold `c*(e/c) -> e` when `c | e` is provable (e.g.
            // `H - 32*(H/32) -> 0` under `H % 32 == 0`).
            bool changed = true;
            while (changed) {
                changed = false;
                for (const auto& [key, t] : a.terms) {
                    const ExprPtr& atom = t.atom;
                    if (atom->kind() != ExprKind::BinOp ||
                        atom->op() != BinOpKind::Div) {
                        continue;
                    }
                    Affine dv = to_affine(atom->rhs());
                    if (!dv.is_const() || dv.constant <= 0)
                        continue;
                    int64_t c = dv.constant;
                    if (t.coeff % c != 0)
                        continue;
                    if (!ctx_.prove_divisible(atom->lhs(), c))
                        continue;
                    int64_t q = t.coeff / c;
                    Affine inner = to_affine(atom->lhs());
                    Affine folded = a;
                    folded.terms.erase(key);
                    a = affine_add(folded, affine_scale(inner, q));
                    changed = true;
                    break;
                }
            }
            return affine_to_expr(a);
          }
          case BinOpKind::Div:
            return divmod(cur, /*is_div=*/true);
          case BinOpKind::Mod:
            return divmod(cur, /*is_div=*/false);
          default:
            return cur;
        }
    }

    ExprPtr divmod(const ExprPtr& e, bool is_div)
    {
        Affine divisor = to_affine(e->rhs());
        if (!divisor.is_const() || divisor.constant <= 0)
            return e;
        int64_t c = divisor.constant;
        if (c == 1)
            return is_div ? e->lhs() : idx_const(0);
        Affine a = to_affine(e->lhs());
        Affine q;
        Affine rest;
        split_by_divisor(a, c, &q, &rest);
        ExprPtr rest_e = affine_to_expr(rest);
        // If 0 <= rest < c is provable, the division splits exactly.
        bool rest_small =
            affine_is_zero(rest) ||
            (ctx_.prove_ge0(rest_e) &&
             ctx_.prove_lt(rest_e, idx_const(c)));
        if (rest_small) {
            if (is_div)
                return affine_to_expr(q);
            return rest_e;  // e % c == rest
        }
        // No exact split: retain (possibly simplified) operands.
        ExprPtr lhs_simpl = affine_to_expr(a);
        return Expr::make_binop(e->op(), lhs_simpl, idx_const(c));
    }

    const Context& ctx_;
};

StmtPtr simplify_stmt(Context& ctx, const StmtPtr& s);

std::vector<StmtPtr>
simplify_block(Context& ctx, const std::vector<StmtPtr>& b)
{
    std::vector<StmtPtr> out;
    out.reserve(b.size());
    for (const auto& s : b)
        out.push_back(simplify_stmt(ctx, s));
    return out;
}

StmtPtr
simplify_stmt(Context& ctx, const StmtPtr& s)
{
    // `s` comes back unchanged when simplification was a no-op (interned
    // expressions compare by pointer), keeping subtree identity and
    // cached analyses. The header is simplified first, under the outer
    // facts; a body sees the simplified loop range or guard.
    Simplifier sim(ctx);
    StmtPtr out = map_exprs(s, [&](const ExprPtr& e) { return sim.expr(e); });
    if (s->kind() == StmtKind::For) {
        std::vector<StmtPtr> body;
        {
            Context::Scope in(ctx);
            ctx.enter_loop(out->iter(), out->lo(), out->hi());
            body = simplify_block(ctx, s->body());
        }
        return body == s->body() ? out : out->with_body(std::move(body));
    }
    if (s->kind() == StmtKind::If) {
        std::vector<StmtPtr> body;
        std::vector<StmtPtr> orelse;
        {
            Context::Scope in(ctx);
            ctx.assume(out->cond());
            body = simplify_block(ctx, s->body());
        }
        {
            Context::Scope in(ctx);
            ctx.assume_not(out->cond());
            orelse = simplify_block(ctx, s->orelse());
        }
        if (body != s->body())
            out = out->with_body(std::move(body));
        if (orelse != s->orelse())
            out = out->with_orelse(std::move(orelse));
    }
    return out;
}

}  // namespace

ExprPtr
simplify_expr(const Context& ctx, const ExprPtr& e)
{
    Simplifier sim(ctx);
    return sim.expr(e);
}

ProcPtr
simplify(const ProcPtr& p)
{
    ScheduleStats::count_rewrite("simplify");
    Context ctx = Context::at(p, {});
    auto body = simplify_block(ctx, p->body_stmts());
    return p->with_body(std::move(body), fwd_identity(), "simplify");
}

namespace {

/** Locate the first dead For/If under the proc; returns its path. */
bool
find_dead(const ProcPtr& p, const std::vector<StmtPtr>& b, Path prefix,
          PathLabel label, Context& ctx, Path* out, int* mode)
{
    for (size_t i = 0; i < b.size(); i++) {
        const StmtPtr& s = b[i];
        Path here = prefix;
        here.push_back({label, static_cast<int>(i)});
        if (s->kind() == StmtKind::For) {
            if (ctx.prove_le(s->hi(), s->lo())) {
                *out = here;
                *mode = 0;  // zero-trip loop
                return true;
            }
            Context::Scope in(ctx);
            ctx.enter_loop(s->iter(), s->lo(), s->hi());
            if (find_dead(p, s->body(), here, PathLabel::Body, ctx, out,
                          mode)) {
                return true;
            }
        } else if (s->kind() == StmtKind::If) {
            if (ctx.prove_pred(s->cond())) {
                *out = here;
                *mode = 1;  // always true
                return true;
            }
            ExprPtr neg = negate_pred(s->cond());
            if (neg && ctx.prove_pred(neg)) {
                *out = here;
                *mode = 2;  // always false
                return true;
            }
            {
                Context::Scope in(ctx);
                ctx.assume(s->cond());
                if (find_dead(p, s->body(), here, PathLabel::Body, ctx,
                              out, mode)) {
                    return true;
                }
            }
            Context::Scope in(ctx);
            ctx.assume_not(s->cond());
            if (find_dead(p, s->orelse(), here, PathLabel::Orelse, ctx,
                          out, mode)) {
                return true;
            }
        }
    }
    return false;
}

}  // namespace

ProcPtr
eliminate_dead_code(const ProcPtr& p, const Cursor& scope)
{
    // Restricted form: run the global pass (the scope restriction is a
    // convenience; dead code elsewhere is equally dead).
    (void)scope;
    return eliminate_dead_code(p);
}

ProcPtr
eliminate_dead_code(const ProcPtr& p)
{
    ScheduleStats::count_rewrite("eliminate_dead_code");
    ProcPtr cur = p;
    for (int guard = 0; guard < 10000; guard++) {
        Path path;
        int mode = -1;
        Context root = Context::at(cur, {});
        if (!find_dead(cur, cur->body_stmts(), {}, PathLabel::Body, root,
                       &path, &mode)) {
            return cur;
        }
        StmtPtr s = stmt_at(cur, path);
        if (mode == 0) {
            cur = apply_replace_stmt(cur, path, Stmt::make_pass(),
                                     "eliminate_dead_code");
        } else if (mode == 1) {
            cur = apply_unwrap(cur, path, s->body(),
                               "eliminate_dead_code");
        } else {
            if (s->orelse().empty()) {
                cur = apply_replace_stmt(cur, path, Stmt::make_pass(),
                                         "eliminate_dead_code");
            } else {
                cur = apply_unwrap(cur, path, s->orelse(),
                                   "eliminate_dead_code");
            }
        }
    }
    throw InternalError("eliminate_dead_code did not converge");
}

ProcPtr
rewrite_expr(const ProcPtr& p, const Cursor& e, const ExprPtr& repl)
{
    ScheduleStats::count_rewrite("rewrite_expr");
    Cursor c = p->forward(e);
    require(c.is_valid() && c.kind() == CursorKind::Node,
            "rewrite_expr: expected an expression cursor");
    ExprPtr old = c.expr();
    Context ctx = Context::at(p, c.loc().path);
    require(ctx.prove_eq(old, repl),
            "rewrite_expr: cannot prove '" + print_expr(old) + "' == '" +
                print_expr(repl) + "'");
    return apply_replace_expr(p, c.loc().path, repl, "rewrite_expr");
}

ProcPtr
merge_writes(const ProcPtr& p, const Cursor& s1c, const Cursor& s2c)
{
    ScheduleStats::count_rewrite("merge_writes");
    Cursor c1 = expect_stmt_cursor(p, s1c);
    Cursor c2 = expect_stmt_cursor(p, s2c);
    StmtPtr s1 = c1.stmt();
    StmtPtr s2 = c2.stmt();
    int pos1 = 0;
    int pos2 = 0;
    ListAddr l1 = list_addr_of(c1.loc().path, &pos1);
    ListAddr l2 = list_addr_of(c2.loc().path, &pos2);
    require(l1.parent == l2.parent && l1.label == l2.label &&
                pos2 == pos1 + 1,
            "merge_writes: statements must be adjacent");
    auto is_write = [](const StmtPtr& s) {
        return s->kind() == StmtKind::Assign ||
               s->kind() == StmtKind::Reduce;
    };
    require(is_write(s1) && is_write(s2),
            "merge_writes: both statements must be writes");
    require(s1->name() == s2->name() &&
                s1->idx().size() == s2->idx().size(),
            "merge_writes: writes must target the same destination");
    Context ctx = Context::at(p, c1.loc().path);
    for (size_t i = 0; i < s1->idx().size(); i++) {
        require(ctx.prove_eq(s1->idx()[i], s2->idx()[i]),
                "merge_writes: destination indices differ");
    }
    StmtPtr merged;
    bool a1 = s1->kind() == StmtKind::Assign;
    bool a2 = s2->kind() == StmtKind::Assign;
    if (a2) {
        // `_ = e1; x = e2` -> `x = e2` (e2 must not read x).
        require(!expr_uses(s2->rhs(), s2->name()),
                "merge_writes: second rhs reads the destination");
        merged = s2;
    } else if (a1) {
        // x = e1; x += e2  ->  x = e1 + e2
        merged = s1->with_rhs(
            Expr::make_binop(BinOpKind::Add, s1->rhs(), s2->rhs()));
    } else {
        // x += e1; x += e2  ->  x += e1 + e2
        merged = s1->with_rhs(
            Expr::make_binop(BinOpKind::Add, s1->rhs(), s2->rhs()));
    }
    return apply_replace_range(p, l1, pos1, pos1 + 2, {merged},
                               "merge_writes");
}

ProcPtr
inline_window(const ProcPtr& p, const Cursor& window_decl)
{
    ScheduleStats::count_rewrite("inline_window");
    Cursor c = expect_stmt_cursor(p, window_decl);
    StmtPtr s = c.stmt();
    require(s->kind() == StmtKind::WindowDecl,
            "inline_window: expected a window declaration");
    const ExprPtr& w = s->rhs();
    std::string wname = s->name();
    std::string bname = w->name();
    std::vector<WindowDim> wdims = w->window_dims();

    auto point_fn = [wdims](const std::vector<ExprPtr>& idx) {
        std::vector<ExprPtr> out;
        size_t k = 0;
        for (const auto& d : wdims) {
            if (d.is_point()) {
                out.push_back(d.lo);
            } else {
                ExprPtr inner = k < idx.size() ? idx[k] : idx_const(0);
                k++;
                out.push_back(d.lo + inner);
            }
        }
        return out;
    };
    auto window_fn = [wdims](const std::vector<WindowDim>& dims) {
        std::vector<WindowDim> out;
        size_t k = 0;
        for (const auto& d : wdims) {
            if (d.is_point()) {
                out.push_back(d);
            } else {
                WindowDim nd;
                if (k < dims.size()) {
                    nd.lo = d.lo + dims[k].lo;
                    if (dims[k].hi)
                        nd.hi = d.lo + dims[k].hi;
                } else {
                    nd = d;
                }
                k++;
                out.push_back(nd);
            }
        }
        return out;
    };

    int pos = 0;
    ListAddr addr = list_addr_of(c.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> repl = rename_buffer_block(
        rewrite_buffer_access_block(
            std::vector<StmtPtr>(list.begin() + pos + 1, list.end()), wname,
            point_fn, window_fn),
        wname, bname);
    return apply_replace_range(p, addr, pos, static_cast<int>(list.size()),
                               std::move(repl), "inline_window");
}

namespace {

/**
 * True if `name` is used anywhere in the proc outside statements
 * [pos, end) of the list at `addr`. Positional, not pointer-based:
 * structurally shared subtrees may appear at several positions.
 */
bool
used_outside_suffix(const ProcPtr& p, const ListAddr& addr, int pos,
                    const std::string& name)
{
    bool found = false;
    std::function<void(const std::vector<StmtPtr>&, const Path&,
                       PathLabel)>
        walk = [&](const std::vector<StmtPtr>& list, const Path& prefix,
                   PathLabel label) {
            if (found)
                return;
            bool is_target =
                label == addr.label && prefix == addr.parent;
            for (size_t i = 0; i < list.size() && !found; i++) {
                if (is_target && static_cast<int>(i) >= pos)
                    continue;  // the rewritten suffix itself
                const StmtPtr& s = list[i];
                // Below the target list cannot reappear, so a full
                // recursive use check is exact here — except when this
                // statement is an ancestor of the target list, where we
                // must keep walking positionally.
                bool ancestor = false;
                if (addr.parent.size() > prefix.size()) {
                    const PathStep& step = addr.parent[prefix.size()];
                    ancestor = is_stmt_list_label(step.label) &&
                               step.label == label &&
                               step.index == static_cast<int>(i);
                }
                if (!ancestor) {
                    // A bare declaration of the same name is not a use
                    // of our variable (it is the binder itself, or a
                    // shadowing re-declaration).
                    found = declares(s, name) ? stmt_uses_here(s, name)
                                              : stmt_uses(s, name);
                    continue;
                }
                // Ancestor of the target list: check this node's own
                // expressions, then recurse into its lists.
                found = stmt_uses_here(s, name);
                Path here = prefix;
                here.push_back({label, static_cast<int>(i)});
                if (!s->body().empty())
                    walk(s->body(), here, PathLabel::Body);
                if (!s->orelse().empty())
                    walk(s->orelse(), here, PathLabel::Orelse);
            }
        };
    walk(p->body_stmts(), {}, PathLabel::Body);
    return found;
}

}  // namespace

ProcPtr
inline_assign(const ProcPtr& p, const Cursor& assign)
{
    ScheduleStats::count_rewrite("inline_assign");
    Cursor c = expect_stmt_cursor(p, assign);
    StmtPtr s = c.stmt();
    require(s->kind() == StmtKind::Assign && s->idx().empty(),
            "inline_assign: expected a scalar assignment");
    int pos = 0;
    ListAddr addr = list_addr_of(c.loc().path, &pos);
    // Deleting the assignment is only sound if the destination's value
    // cannot be observed outside the statements we rewrite: a use after
    // the enclosing scope (or re-reachable through an enclosing loop's
    // back-edge) would read the removed value.
    require(!used_outside_suffix(p, addr, pos, s->name()),
            "inline_assign: '" + s->name() +
                "' is live outside the enclosing statement list");
    const auto& list = stmt_list_at(p, addr);
    // Safety: x is not re-written later, and the values e reads are not
    // modified by the following statements.
    std::vector<std::string> rhs_reads;
    expr_collect_reads(s->rhs(), &rhs_reads);
    for (size_t i = static_cast<size_t>(pos) + 1; i < list.size(); i++) {
        require(!stmt_writes(list[i], s->name()),
                "inline_assign: destination is written again afterwards");
        for (const auto& r : rhs_reads) {
            require(!stmt_writes(list[i], r),
                    "inline_assign: '" + r +
                        "' is modified after the assignment");
        }
    }
    std::vector<StmtPtr> repl = block_subst(
        std::vector<StmtPtr>(list.begin() + pos + 1, list.end()), s->name(),
        s->rhs());
    return apply_replace_range(p, addr, pos, static_cast<int>(list.size()),
                               std::move(repl), "inline_assign");
}

}  // namespace exo2
