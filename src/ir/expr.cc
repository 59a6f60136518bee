#include "src/ir/expr.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/obs/metrics.h"

namespace exo2 {

namespace {

/** Bit pattern of a literal, with -0.0 canonicalized to +0.0 so the
 *  interner does not split nodes that compare equal under `==`. */
uint64_t
const_bits(double v)
{
    if (v == 0.0)
        v = 0.0;
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Structural hash over a node whose children are already interned
 *  (children contribute their cached hashes, not a recursive walk). */
uint64_t
compute_expr_hash(const Expr& e)
{
    uint64_t h = hash_combine(0xE4012ull, (static_cast<uint64_t>(e.kind())
                                           << 8) |
                                              static_cast<uint64_t>(e.type()));
    switch (e.kind()) {
      case ExprKind::Const:
        return hash_combine(h, const_bits(e.const_value()));
      case ExprKind::Read:
      case ExprKind::Extern:
        h = hash_combine(h, hash_str(e.name()));
        h = hash_combine(h, e.idx().size());
        for (const auto& i : e.idx())
            h = hash_combine(h, i->structural_hash());
        return h;
      case ExprKind::BinOp:
        h = hash_combine(h, static_cast<uint64_t>(e.op()));
        h = hash_combine(h, e.lhs()->structural_hash());
        return hash_combine(h, e.rhs()->structural_hash());
      case ExprKind::USub:
        return hash_combine(h, e.lhs()->structural_hash());
      case ExprKind::Window:
        h = hash_combine(h, hash_str(e.name()));
        for (const auto& d : e.window_dims()) {
            h = hash_combine(h, d.lo->structural_hash());
            h = hash_combine(h, d.hi ? d.hi->structural_hash() : 0x504Full);
        }
        return h;
      case ExprKind::Stride:
        h = hash_combine(h, hash_str(e.name()));
        return hash_combine(h, static_cast<uint64_t>(e.stride_dim()));
      case ExprKind::ReadConfig:
        h = hash_combine(h, hash_str(e.name()));
        return hash_combine(h, hash_str(e.field()));
    }
    throw InternalError("unknown expr kind in hash");
}

/** Structural equality assuming both nodes' children are interned, so
 *  children compare by pointer. */
bool
shallow_expr_equal(const Expr& a, const Expr& b)
{
    if (a.kind() != b.kind() || a.type() != b.type())
        return false;
    switch (a.kind()) {
      case ExprKind::Const:
        return const_bits(a.const_value()) == const_bits(b.const_value());
      case ExprKind::Read:
      case ExprKind::Extern:
        return a.name() == b.name() && a.idx() == b.idx();
      case ExprKind::BinOp:
        return a.op() == b.op() && a.lhs() == b.lhs() && a.rhs() == b.rhs();
      case ExprKind::USub:
        return a.lhs() == b.lhs();
      case ExprKind::Window: {
        if (a.name() != b.name() ||
            a.window_dims().size() != b.window_dims().size()) {
            return false;
        }
        for (size_t i = 0; i < a.window_dims().size(); i++) {
            const auto& da = a.window_dims()[i];
            const auto& db = b.window_dims()[i];
            if (da.lo != db.lo || da.hi != db.hi)
                return false;
        }
        return true;
      }
      case ExprKind::Stride:
        return a.name() == b.name() && a.stride_dim() == b.stride_dim();
      case ExprKind::ReadConfig:
        return a.name() == b.name() && a.field() == b.field();
    }
    return false;
}

/**
 * The interner table. Interned nodes are retained for the lifetime of
 * the process (the table is deliberately leaked so it outlives every
 * static destructor that might still hold an ExprPtr): this is what
 * makes raw `const Expr*` keys sound in the analysis memo caches.
 */
struct InternTable
{
    std::mutex mu;
    std::unordered_multimap<uint64_t, ExprPtr> map;
    uint64_t next_id = 1;
};

InternTable&
intern_table()
{
    static InternTable* t = new InternTable();
    return *t;
}

}  // namespace

ExprPtr
Expr::intern(Expr&& tmp)
{
    tmp.hash_ = compute_expr_hash(tmp);
    InternTable& t = intern_table();
    std::lock_guard<std::mutex> lock(t.mu);
    auto range = t.map.equal_range(tmp.hash_);
    for (auto it = range.first; it != range.second; ++it) {
        if (shallow_expr_equal(*it->second, tmp)) {
            EXO2_COUNT("ir.interner_hits");
            return it->second;
        }
    }
    tmp.id_ = t.next_id++;
    ExprPtr p(new Expr(std::move(tmp)));
    t.map.emplace(p->structural_hash(), p);
    EXO2_COUNT("ir.interner_misses");
    return p;
}

InternerStats
expr_interner_stats()
{
    InternerStats s;
    {
        InternTable& t = intern_table();
        std::lock_guard<std::mutex> lock(t.mu);
        s.live_nodes = t.map.size();
    }
    s.hits = obs::counter("ir.interner_hits").value();
    s.misses = obs::counter("ir.interner_misses").value();
    return s;
}

// Registers the counters at startup: op=metrics lists them at 0.
[[maybe_unused]] static const InternerStats g_registered =
    expr_interner_stats();

bool
is_predicate_op(BinOpKind op)
{
    switch (op) {
      case BinOpKind::Lt: case BinOpKind::Le: case BinOpKind::Gt:
      case BinOpKind::Ge: case BinOpKind::Eq: case BinOpKind::Ne:
      case BinOpKind::And: case BinOpKind::Or:
        return true;
      default:
        return false;
    }
}

std::string
binop_name(BinOpKind op)
{
    switch (op) {
      case BinOpKind::Add: return "+";
      case BinOpKind::Sub: return "-";
      case BinOpKind::Mul: return "*";
      case BinOpKind::Div: return "/";
      case BinOpKind::Mod: return "%";
      case BinOpKind::Lt: return "<";
      case BinOpKind::Le: return "<=";
      case BinOpKind::Gt: return ">";
      case BinOpKind::Ge: return ">=";
      case BinOpKind::Eq: return "==";
      case BinOpKind::Ne: return "!=";
      case BinOpKind::And: return "and";
      case BinOpKind::Or: return "or";
    }
    throw InternalError("unknown binop");
}

ExprPtr
Expr::make_const(double v, ScalarType t)
{
    Expr e;
    e.kind_ = ExprKind::Const;
    e.type_ = t;
    e.const_value_ = v;
    return intern(std::move(e));
}

ExprPtr
Expr::make_read(std::string name, std::vector<ExprPtr> idx, ScalarType t)
{
    Expr e;
    e.kind_ = ExprKind::Read;
    e.type_ = t;
    e.name_ = std::move(name);
    e.idx_ = std::move(idx);
    return intern(std::move(e));
}

ExprPtr
Expr::make_binop(BinOpKind op, ExprPtr lhs, ExprPtr rhs)
{
    if (!lhs || !rhs)
        throw InternalError("make_binop: null operand");
    Expr e;
    e.kind_ = ExprKind::BinOp;
    e.type_ = is_predicate_op(op) ? ScalarType::Bool : lhs->type();
    e.op_ = op;
    e.lhs_ = std::move(lhs);
    e.rhs_ = std::move(rhs);
    return intern(std::move(e));
}

ExprPtr
Expr::make_usub(ExprPtr sub)
{
    Expr e;
    e.kind_ = ExprKind::USub;
    e.type_ = sub->type();
    e.lhs_ = std::move(sub);
    return intern(std::move(e));
}

ExprPtr
Expr::make_window(std::string name, std::vector<WindowDim> dims, ScalarType t)
{
    Expr e;
    e.kind_ = ExprKind::Window;
    e.type_ = t;
    e.name_ = std::move(name);
    e.wdims_ = std::move(dims);
    return intern(std::move(e));
}

ExprPtr
Expr::make_stride(std::string name, int dim)
{
    Expr e;
    e.kind_ = ExprKind::Stride;
    e.type_ = ScalarType::Index;
    e.name_ = std::move(name);
    e.stride_dim_ = dim;
    return intern(std::move(e));
}

ExprPtr
Expr::make_read_config(std::string cfg, std::string field, ScalarType t)
{
    Expr e;
    e.kind_ = ExprKind::ReadConfig;
    e.type_ = t;
    e.name_ = std::move(cfg);
    e.field_ = std::move(field);
    return intern(std::move(e));
}

ExprPtr
Expr::make_extern(std::string fn, std::vector<ExprPtr> args, ScalarType t)
{
    Expr e;
    e.kind_ = ExprKind::Extern;
    e.type_ = t;
    e.name_ = std::move(fn);
    e.idx_ = std::move(args);
    return intern(std::move(e));
}

std::vector<ExprPtr>
Expr::children() const
{
    switch (kind_) {
      case ExprKind::Const:
      case ExprKind::Stride:
      case ExprKind::ReadConfig:
        return {};
      case ExprKind::Read:
      case ExprKind::Extern:
        return idx_;
      case ExprKind::BinOp:
        return {lhs_, rhs_};
      case ExprKind::USub:
        return {lhs_};
      case ExprKind::Window: {
        std::vector<ExprPtr> out;
        for (const auto& d : wdims_) {
            out.push_back(d.lo);
            if (d.hi)
                out.push_back(d.hi);
        }
        return out;
      }
    }
    throw InternalError("unknown expr kind");
}

ExprPtr
Expr::with_children(std::vector<ExprPtr> children) const
{
    switch (kind_) {
      case ExprKind::Const:
      case ExprKind::Stride:
      case ExprKind::ReadConfig:
        if (!children.empty())
            throw InternalError("with_children: leaf expr");
        // Leaves re-intern to the same node: a no-op rebuild is free.
        return intern(Expr(*this));
      case ExprKind::Read:
        return make_read(name_, std::move(children), type_);
      case ExprKind::Extern:
        return make_extern(name_, std::move(children), type_);
      case ExprKind::BinOp:
        if (children.size() != 2)
            throw InternalError("with_children: binop arity");
        return make_binop(op_, children[0], children[1]);
      case ExprKind::USub:
        if (children.size() != 1)
            throw InternalError("with_children: usub arity");
        return make_usub(children[0]);
      case ExprKind::Window: {
        std::vector<WindowDim> dims;
        size_t i = 0;
        for (const auto& d : wdims_) {
            WindowDim nd;
            nd.lo = children.at(i++);
            if (d.hi)
                nd.hi = children.at(i++);
            dims.push_back(nd);
        }
        if (i != children.size())
            throw InternalError("with_children: window arity");
        return make_window(name_, std::move(dims), type_);
      }
    }
    throw InternalError("unknown expr kind");
}

ExprPtr
expr_subst(const ExprPtr& e, const std::string& name, const ExprPtr& repl)
{
    if (!e)
        return e;
    if (e->kind() == ExprKind::Read && e->name() == name &&
        e->idx().empty()) {
        return repl;
    }
    return map_children(
        e, [&](const ExprPtr& k) { return expr_subst(k, name, repl); });
}

void
expr_collect_reads(const ExprPtr& e, std::vector<std::string>* out)
{
    if (!e)
        return;
    if (e->kind() == ExprKind::Read || e->kind() == ExprKind::Window ||
        e->kind() == ExprKind::Stride) {
        if (std::find(out->begin(), out->end(), e->name()) == out->end())
            out->push_back(e->name());
    }
    any_child(e, [&](const ExprPtr& k) {
        expr_collect_reads(k, out);
        return false;
    });
}

bool
expr_uses(const ExprPtr& e, const std::string& name)
{
    if (!e)
        return false;
    if ((e->kind() == ExprKind::Read || e->kind() == ExprKind::Window ||
         e->kind() == ExprKind::Stride) &&
        e->name() == name) {
        return true;
    }
    return any_child(e,
                     [&](const ExprPtr& k) { return expr_uses(k, name); });
}

}  // namespace exo2
