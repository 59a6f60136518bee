#include "src/analysis/context.h"

#include "src/cursor/node.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"

namespace exo2 {

ExprPtr
negate_pred(const ExprPtr& cond)
{
    if (!cond || cond->kind() != ExprKind::BinOp)
        return nullptr;
    switch (cond->op()) {
      case BinOpKind::Lt:
        return Expr::make_binop(BinOpKind::Ge, cond->lhs(), cond->rhs());
      case BinOpKind::Le:
        return Expr::make_binop(BinOpKind::Gt, cond->lhs(), cond->rhs());
      case BinOpKind::Gt:
        return Expr::make_binop(BinOpKind::Le, cond->lhs(), cond->rhs());
      case BinOpKind::Ge:
        return Expr::make_binop(BinOpKind::Lt, cond->lhs(), cond->rhs());
      case BinOpKind::Eq:
        return Expr::make_binop(BinOpKind::Ne, cond->lhs(), cond->rhs());
      case BinOpKind::Ne:
        return Expr::make_binop(BinOpKind::Eq, cond->lhs(), cond->rhs());
      case BinOpKind::And: {
        ExprPtr l = negate_pred(cond->lhs());
        ExprPtr r = negate_pred(cond->rhs());
        if (!l || !r)
            return nullptr;
        return Expr::make_binop(BinOpKind::Or, l, r);
      }
      case BinOpKind::Or: {
        ExprPtr l = negate_pred(cond->lhs());
        ExprPtr r = negate_pred(cond->rhs());
        if (!l || !r)
            return nullptr;
        return Expr::make_binop(BinOpKind::And, l, r);
      }
      default:
        return nullptr;
    }
}

void
Context::enter_loop(const std::string& name, const ExprPtr& lo,
                    const ExprPtr& hi)
{
    binders_.push_back({name, lo, hi});
    ExprPtr iv = var(name);
    sys_.add_pred(Expr::make_binop(BinOpKind::Ge, iv, lo));
    sys_.add_pred(Expr::make_binop(BinOpKind::Lt, iv, hi));
}

Context
Context::at(const ProcPtr& p, const Path& path)
{
    Context ctx;
    for (const auto& arg : p->args()) {
        if (arg.is_size) {
            // Sizes are nonnegative by convention.
            ctx.sys_.add_expr_ge0(var(arg.name));
        }
    }
    for (const auto& pred : p->preds())
        ctx.sys_.add_pred(pred);

    // Walk down the path, entering loops and guards.
    if (path.empty())
        return ctx;
    NodeRef node = p->body_stmts().at(static_cast<size_t>(path[0].index));
    for (size_t d = 1; d < path.size(); d++) {
        if (!std::holds_alternative<StmtPtr>(node))
            break;  // descended into an expression: no more binders
        StmtPtr s = std::get<StmtPtr>(node);
        const PathStep& step = path[d];
        if (s->kind() == StmtKind::For && step.label == PathLabel::Body) {
            ctx.enter_loop(s->iter(), s->lo(), s->hi());
            node = s->body().at(static_cast<size_t>(step.index));
        } else if (s->kind() == StmtKind::If &&
                   step.label == PathLabel::Body) {
            ctx.assume(s->cond());
            node = s->body().at(static_cast<size_t>(step.index));
        } else if (s->kind() == StmtKind::If &&
                   step.label == PathLabel::Orelse) {
            ctx.assume_not(s->cond());
            node = s->orelse().at(static_cast<size_t>(step.index));
        } else {
            // Descend into bounds/cond/rhs expressions: binder of the
            // node itself is not in scope; stop collecting.
            break;
        }
    }
    return ctx;
}

Context
Context::inside(const ProcPtr& p, const Path& path)
{
    Context ctx = at(p, path);
    StmtPtr s = stmt_at(p, path);
    if (s->kind() != StmtKind::For)
        throw InternalError("Context::inside: not a loop");
    ctx.enter_loop(s->iter(), s->lo(), s->hi());
    return ctx;
}

}  // namespace exo2
