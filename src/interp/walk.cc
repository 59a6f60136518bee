#include "src/interp/walk.h"

namespace exo2 {

Program::Program(const Proc& entry, bool price_instrs)
    : price_instrs_(price_instrs)
{
    lower(entry);
}

const LProc*
Program::lower(const Proc& p)
{
    auto found = lowered_.find(&p);
    if (found != lowered_.end())
        return found->second;
    procs_.push_back(std::make_unique<LProc>());
    LProc& out = *procs_.back();
    lowered_[&p] = &out;
    out.src = &p;
    out.id = static_cast<uint32_t>(procs_.size() - 1);
    Names names;
    for (const ProcArg& a : p.args())
        out.formals.push_back(slot(names, a.name));
    for (const ProcArg& a : p.args())
        out.formal_dims.push_back(list(names, a.dims));
    out.preds = list(names, p.preds());
    out.body = block(names, p.body_stmts());
    out.nslots = static_cast<uint32_t>(names.size());
    return &out;
}

NodeId
Program::expr(Names& names, const ExprPtr& e)
{
    NodeId at = static_cast<NodeId>(exprs.size());
    exprs.emplace_back();
    // Lower into a local: lowering the children appends to `exprs`.
    LExpr x = lower_expr(names, e);
    exprs[at] = x;
    return at;
}

NodeRange
Program::list(Names& names, const std::vector<ExprPtr>& es)
{
    NodeRange r{static_cast<NodeId>(exprs.size()),
                static_cast<uint32_t>(es.size())};
    exprs.resize(exprs.size() + es.size());
    for (uint32_t k = 0; k < r.count; k++) {
        LExpr x = lower_expr(names, es[k]);
        exprs[r.first + k] = x;
    }
    return r;
}

LExpr
Program::lower_expr(Names& names, const ExprPtr& e)
{
    LExpr x;
    x.src = e.get();
    x.kind = e->kind();
    x.type = e->type();
    switch (e->kind()) {
      case ExprKind::Const:
        x.value = e->const_value();
        break;
      case ExprKind::Read:
        x.slot = slot(names, e->name());
        x.kids = list(names, e->idx());
        break;
      case ExprKind::BinOp:
        x.op = e->op();
        x.lhs = expr(names, e->lhs());
        x.rhs = expr(names, e->rhs());
        break;
      case ExprKind::USub:
        x.lhs = expr(names, e->lhs());
        break;
      case ExprKind::Window: {
        x.slot = slot(names, e->name());
        const std::vector<WindowDim>& wd = e->window_dims();
        x.kids = {static_cast<NodeId>(wdims.size()),
                  static_cast<uint32_t>(wd.size())};
        wdims.resize(wdims.size() + wd.size());
        for (uint32_t k = 0; k < x.kids.count; k++) {
            LWindowDim d;
            d.lo = expr(names, wd[k].lo);
            d.point = wd[k].is_point();
            if (!d.point)
                d.hi = expr(names, wd[k].hi);
            wdims[x.kids.first + k] = d;
        }
        break;
      }
      case ExprKind::Stride:
        x.slot = slot(names, e->name());
        x.dim = e->stride_dim();
        break;
      case ExprKind::ReadConfig:
        x.slot = config_slot(e->name(), e->field());
        break;
      case ExprKind::Extern:
        x.kids = list(names, e->idx());
        break;
    }
    return x;
}

NodeRange
Program::block(Names& names, const std::vector<StmtPtr>& ss)
{
    NodeRange r{static_cast<NodeId>(stmts.size()),
                static_cast<uint32_t>(ss.size())};
    stmts.resize(stmts.size() + ss.size());
    for (uint32_t k = 0; k < r.count; k++) {
        LStmt x = lower_stmt(names, ss[k]);
        stmts[r.first + k] = x;
    }
    return r;
}

LStmt
Program::lower_stmt(Names& names, const StmtPtr& s)
{
    LStmt x;
    x.src = s.get();
    x.kind = s->kind();
    switch (s->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        x.a = expr(names, s->rhs());
        x.slot = slot(names, s->name());
        x.kids = list(names, s->idx());
        break;
      case StmtKind::Alloc:
        x.kids = list(names, s->dims());
        x.slot = slot(names, s->name());
        x.alloc =
            allocs_.try_emplace(s.get(), allocs_.size()).first->second;
        break;
      case StmtKind::For:
        x.a = expr(names, s->lo());
        x.b = expr(names, s->hi());
        x.slot = slot(names, s->iter());
        x.body = block(names, s->body());
        break;
      case StmtKind::If:
        x.a = expr(names, s->cond());
        x.body = block(names, s->body());
        x.orelse = block(names, s->orelse());
        break;
      case StmtKind::Pass:
        break;
      case StmtKind::Call:
        x.kids = list(names, s->args());
        if (s->callee() && !(price_instrs_ && s->callee()->is_instr()))
            x.callee = lower(*s->callee());
        break;
      case StmtKind::WriteConfig:
        x.a = expr(names, s->rhs());
        x.slot = config_slot(s->name(), s->field());
        break;
      case StmtKind::WindowDecl:
        x.a = expr(names, s->rhs());
        x.slot = slot(names, s->name());
        break;
    }
    return x;
}

uint32_t
Program::slot(Names& names, const std::string& name)
{
    return names.try_emplace(name, names.size()).first->second;
}

uint32_t
Program::config_slot(const std::string& cfg, const std::string& field)
{
    std::string key = cfg + "." + field;
    return config_.try_emplace(key, config_.size()).first->second;
}

}  // namespace exo2
