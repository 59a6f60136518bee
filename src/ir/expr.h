#ifndef EXO2_IR_EXPR_H_
#define EXO2_IR_EXPR_H_

/**
 * @file
 * Expressions of the Exo 2 object language.
 *
 * Expressions are immutable and shared; scheduling primitives rebuild
 * the spine of the AST along the edited path and share every untouched
 * subtree, which is what makes cursor forwarding (Section 5.2)
 * well-defined.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/type.h"

namespace exo2 {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/** Expression node kinds. */
enum class ExprKind : uint8_t {
    Const,      ///< Numeric / boolean literal.
    Read,       ///< Scalar variable or buffer element read: `A[i, j]`.
    BinOp,      ///< Binary arithmetic / comparison / logic.
    USub,       ///< Unary negation.
    Window,     ///< Buffer window `A[0:n, j]`; call arguments only.
    Stride,     ///< `stride(A, dim)`; resolved at call boundaries.
    ReadConfig, ///< Configuration-state read: `cfg.field` (Appendix A.8).
    Extern,     ///< Opaque extern scalar function, e.g. `relu(x)`.
};

/** Binary operators. Div/Mod are floor semantics on Index type. */
enum class BinOpKind : uint8_t {
    Add, Sub, Mul, Div, Mod,
    Lt, Le, Gt, Ge, Eq, Ne,
    And, Or,
};

/** True for Lt..Ne / And / Or (result type Bool). */
bool is_predicate_op(BinOpKind op);

/** Object-language spelling, e.g. "+" or "<=". */
std::string binop_name(BinOpKind op);

/**
 * One dimension of a Window expression: either a point `e` or an
 * interval `lo:hi` (half-open).
 */
struct WindowDim
{
    ExprPtr lo;           ///< Point expr, or interval low bound.
    ExprPtr hi;           ///< Null for a point access.
    bool is_point() const { return hi == nullptr; }
};

/**
 * An immutable expression node.
 *
 * A single class with a kind tag (rather than a virtual hierarchy) keeps
 * structural operations — equality, substitution, path navigation,
 * unification — in one place each.
 *
 * Nodes are hash-consed: every factory interns through a process-global
 * table (see ir/interner.h), so structurally equal expressions are the
 * same object and `a == b` decides structural equality in O(1). The
 * cached structural hash and dense intern id are what the analysis
 * layer keys its memo caches on.
 */
class Expr
{
  public:
    ExprKind kind() const { return kind_; }
    ScalarType type() const { return type_; }

    /** Cached 64-bit structural hash (equal for structurally equal
     *  exprs; computed once at construction). */
    uint64_t structural_hash() const { return hash_; }

    /** Dense id unique to this interned node (creation order). */
    uint64_t intern_id() const { return id_; }

    /** Literal value (Const). Bools are 0.0/1.0. */
    double const_value() const { return const_value_; }

    /** Variable / buffer / config name (Read, Window, Stride, ReadConfig,
     *  Extern function name). */
    const std::string& name() const { return name_; }

    /** Config field (ReadConfig). */
    const std::string& field() const { return field_; }

    /** Buffer indices (Read), or extern-call arguments (Extern). */
    const std::vector<ExprPtr>& idx() const { return idx_; }

    /** Window dimensions (Window). */
    const std::vector<WindowDim>& window_dims() const { return wdims_; }

    /** Operator (BinOp). */
    BinOpKind op() const { return op_; }
    const ExprPtr& lhs() const { return lhs_; }
    const ExprPtr& rhs() const { return rhs_; }

    /** Stride dimension (Stride). */
    int stride_dim() const { return stride_dim_; }

    // -- Factories -------------------------------------------------------

    static ExprPtr make_const(double v, ScalarType t);
    static ExprPtr make_read(std::string name, std::vector<ExprPtr> idx,
                             ScalarType t);
    static ExprPtr make_binop(BinOpKind op, ExprPtr lhs, ExprPtr rhs);
    static ExprPtr make_usub(ExprPtr e);
    static ExprPtr make_window(std::string name, std::vector<WindowDim> dims,
                               ScalarType t);
    static ExprPtr make_stride(std::string name, int dim);
    static ExprPtr make_read_config(std::string cfg, std::string field,
                                    ScalarType t);
    static ExprPtr make_extern(std::string fn, std::vector<ExprPtr> args,
                               ScalarType t);

    /** Rebuild with the same kind but new children. */
    ExprPtr with_children(std::vector<ExprPtr> children) const;

    /** All expression children in path order (see cursor/path.h). */
    std::vector<ExprPtr> children() const;

  private:
    Expr() = default;

    /** Intern a candidate node: return the existing structurally equal
     *  node, or move `tmp` into the table. Defined in expr.cc. */
    static ExprPtr intern(Expr&& tmp);

    uint64_t hash_ = 0;
    uint64_t id_ = 0;
    ExprKind kind_ = ExprKind::Const;
    ScalarType type_ = ScalarType::Index;
    double const_value_ = 0.0;
    std::string name_;
    std::string field_;
    std::vector<ExprPtr> idx_;
    std::vector<WindowDim> wdims_;
    BinOpKind op_ = BinOpKind::Add;
    ExprPtr lhs_;
    ExprPtr rhs_;
    int stride_dim_ = 0;
};

/**
 * Whether `pred` holds for a child of `e`. Children are visited in path
 * order (lhs before rhs, indices and window bounds left to right), and
 * the visit stops at the first child that satisfies `pred`; a visit
 * that must see every child returns false.
 */
template <class Pred>
bool
any_child(const ExprPtr& e, Pred&& pred)
{
    switch (e->kind()) {
      case ExprKind::Read:
      case ExprKind::Extern:
        for (const ExprPtr& k : e->idx()) {
            if (pred(k))
                return true;
        }
        return false;
      case ExprKind::BinOp:
        return pred(e->lhs()) || pred(e->rhs());
      case ExprKind::USub:
        return pred(e->lhs());
      case ExprKind::Window:
        for (const WindowDim& d : e->window_dims()) {
            if (pred(d.lo) || (d.hi && pred(d.hi)))
                return true;
        }
        return false;
      case ExprKind::Const:
      case ExprKind::Stride:
      case ExprKind::ReadConfig:
        return false;
    }
    return false;
}

/**
 * `e` with every child `k` replaced by `f(k)`. Children are mapped in
 * path order before the parent is rebuilt, so new nodes are interned
 * in the order a bottom-up rebuild makes them; `e` itself is returned
 * when no child changed.
 */
template <class F>
ExprPtr
map_children(const ExprPtr& e, F&& f)
{
    switch (e->kind()) {
      case ExprKind::Read:
      case ExprKind::Extern: {
        const std::vector<ExprPtr>& in = e->idx();
        std::vector<ExprPtr> out;  // filled from the first change on
        for (size_t i = 0; i < in.size(); i++) {
            ExprPtr k = f(in[i]);
            if (out.empty()) {
                if (k == in[i])
                    continue;
                out.reserve(in.size());
                out.assign(in.begin(), in.begin() + static_cast<long>(i));
            }
            out.push_back(std::move(k));
        }
        if (out.empty())
            return e;
        if (e->kind() == ExprKind::Read)
            return Expr::make_read(e->name(), std::move(out), e->type());
        return Expr::make_extern(e->name(), std::move(out), e->type());
      }
      case ExprKind::BinOp: {
        ExprPtr l = f(e->lhs());
        ExprPtr r = f(e->rhs());
        if (l == e->lhs() && r == e->rhs())
            return e;
        return Expr::make_binop(e->op(), std::move(l), std::move(r));
      }
      case ExprKind::USub: {
        ExprPtr l = f(e->lhs());
        return l == e->lhs() ? e : Expr::make_usub(std::move(l));
      }
      case ExprKind::Window: {
        std::vector<WindowDim> dims = e->window_dims();
        bool changed = false;
        for (WindowDim& d : dims) {
            ExprPtr lo = f(d.lo);
            ExprPtr hi = d.hi ? f(d.hi) : nullptr;
            changed = changed || lo != d.lo || hi != d.hi;
            d = WindowDim{std::move(lo), std::move(hi)};
        }
        if (!changed)
            return e;
        return Expr::make_window(e->name(), std::move(dims), e->type());
      }
      case ExprKind::Const:
      case ExprKind::Stride:
      case ExprKind::ReadConfig:
        return e;
    }
    return e;
}

/** Substitute reads of scalar variable `name` with `repl` throughout. */
ExprPtr expr_subst(const ExprPtr& e, const std::string& name,
                   const ExprPtr& repl);

/** Collect names of all variables/buffers read by `e` (including idx). */
void expr_collect_reads(const ExprPtr& e, std::vector<std::string>* out);

/** True if `e` reads variable or buffer `name` anywhere. */
bool expr_uses(const ExprPtr& e, const std::string& name);

}  // namespace exo2

#endif  // EXO2_IR_EXPR_H_
