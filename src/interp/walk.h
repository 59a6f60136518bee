#ifndef EXO2_INTERP_WALK_H_
#define EXO2_INTERP_WALK_H_

/**
 * @file
 * The one IR evaluator (DESIGN.md §11).
 *
 * `Walker` walks a procedure with concrete sizes. It owns everything
 * the two evaluation modes share: name binding, index arithmetic
 * (floor div/mod), views and windows, For/If/Alloc/WindowDecl,
 * configuration state, stride(), and argument binding for
 * sub-procedure calls. A policy derives from it (CRTP, so every hook
 * is a static call) and supplies only what differs: the reference
 * interpreter (src/interp/interp.cc) computes real data, the cost
 * simulator (src/machine/cost_sim.cc) prices accesses instead.
 *
 * A policy `P : Walker<P, Mem>` declares these semantic switches
 * (static constexpr bool):
 *   kShortCircuit   And/Or skip the right operand once decided
 *   kRoundF32       f32 arithmetic rounds every operation to f32
 *   kTotalFloatDiv  float division by zero yields 0 instead of inf/nan
 *   kCheckWindows   windows are arity/bounds checked, hi < lo clamped
 *   kScopeBlocks    Alloc/WindowDecl names end with their block
 *   kCheckAsserts   entering a proc checks its assertions
 *   kPriceInstrs    instruction calls go to `instr_call` rather than
 *                   running their semantics bodies
 * and implements these hooks:
 *   double load(Frame&, const View&, const ExprPtr& read)
 *   void store(Frame&, const View&, const StmtPtr& assign, double v)
 *   void store_scalar(Binding&, const StmtPtr& assign, double v)
 *   View alloc(const StmtPtr& alloc, std::vector<int64_t> dims)
 *   double call_extern(const std::string& fn, const std::vector<double>&)
 *   double scalar_arg(ScalarType formal, double v)
 *   void instr_call(Frame&, const StmtPtr& call)       if kPriceInstrs
 *   size_t locals_mark(), void release_locals(size_t)  if kScopeBlocks
 * and may override the pricing points on_assign, on_iter, on_branch and
 * on_config_write (no-ops here). `Mem` is what a view points into.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/ir/proc.h"

namespace exo2 {

/** A strided view into policy-defined memory; units are elements. */
template <class Mem>
struct StridedView
{
    Mem mem{};
    int64_t offset = 0;
    std::vector<int64_t> dims;
    std::vector<int64_t> strides;

    /** The dense row-major view of a whole buffer. */
    static StridedView whole(Mem m, std::vector<int64_t> dims)
    {
        StridedView v;
        v.mem = m;
        v.dims = std::move(dims);
        v.strides.assign(v.dims.size(), 1);
        int64_t s = 1;
        for (size_t d = v.dims.size(); d-- > 0;) {
            v.strides[d] = s;
            s *= v.dims[d];
        }
        return v;
    }

    /** Element position of `idx` over the dims both cover; unchecked. */
    int64_t flat(const std::vector<int64_t>& idx) const
    {
        int64_t f = offset;
        for (size_t d = 0; d < idx.size() && d < strides.size(); d++)
            f += idx[d] * strides[d];
        return f;
    }
};

template <class P, class Mem>
class Walker
{
  public:
    using View = StridedView<Mem>;

    /** Runtime binding of a name. */
    struct Binding
    {
        enum class Kind { Index, Scalar, Buf } kind = Kind::Index;
        int64_t index = 0;
        double scalar = 0.0;
        View view;

        static Binding of_index(int64_t i) { return {Kind::Index, i, 0, {}}; }
        static Binding of_scalar(double v) { return {Kind::Scalar, 0, v, {}}; }
        static Binding of_view(View v)
        {
            return {Kind::Buf, 0, 0, std::move(v)};
        }
    };

    using Frame = std::map<std::string, Binding>;

    /** Configuration state (`cfg.field`), global across calls. */
    std::map<std::string, double> config;

    /** Execute `p` in `frame`, which binds its formals. */
    void run(const ProcPtr& p, Frame frame)
    {
        if constexpr (P::kCheckAsserts) {
            for (const auto& pred : p->preds()) {
                if (eval(frame, pred) == 0.0)
                    fail("assertion failed in " + p->name() + ": " +
                         print_expr(pred));
            }
        }
        exec_block(frame, p->body_stmts());
    }

    double eval(Frame& f, const ExprPtr& e)
    {
        switch (e->kind()) {
          case ExprKind::Const:
            return e->const_value();
          case ExprKind::Read: {
            Binding& b = lookup(f, e->name());
            if (b.kind == Binding::Kind::Index)
                return static_cast<double>(b.index);
            if (b.kind == Binding::Kind::Scalar)
                return b.scalar;
            return self().load(f, b.view, e);
          }
          case ExprKind::BinOp: {
            double l = eval(f, e->lhs());
            if constexpr (P::kShortCircuit) {
                if (e->op() == BinOpKind::And)
                    return (l != 0.0 && eval(f, e->rhs()) != 0.0) ? 1.0 : 0.0;
                if (e->op() == BinOpKind::Or)
                    return (l != 0.0 || eval(f, e->rhs()) != 0.0) ? 1.0 : 0.0;
            }
            return binop(e, l, eval(f, e->rhs()));
          }
          case ExprKind::USub:
            // Negation is exact in binary floating point; no rounding.
            return -eval(f, e->lhs());
          case ExprKind::Stride: {
            const View& v = buffer(f, e->name());
            size_t d = static_cast<size_t>(e->stride_dim());
            if (d >= v.strides.size())
                fail("stride() dim out of range");
            return static_cast<double>(v.strides[d]);
          }
          case ExprKind::ReadConfig:
            return config[e->name() + "." + e->field()];
          case ExprKind::Extern: {
            std::vector<double> args;
            args.reserve(e->idx().size());
            for (const auto& a : e->idx())
                args.push_back(eval(f, a));
            return self().call_extern(e->name(), args);
          }
          case ExprKind::Window:
            fail("window outside call argument");
        }
        fail("unknown expr kind");
    }

    int64_t eval_int(Frame& f, const ExprPtr& e)
    {
        return static_cast<int64_t>(eval(f, e));
    }

    std::vector<int64_t> eval_idx(Frame& f, const std::vector<ExprPtr>& es)
    {
        std::vector<int64_t> idx;
        idx.reserve(es.size());
        for (const auto& i : es)
            idx.push_back(eval_int(f, i));
        return idx;
    }

    /** Resolve a buffer or window call argument to a view. */
    View eval_view(Frame& f, const ExprPtr& e)
    {
        if (e->kind() == ExprKind::Read && e->idx().empty())
            return buffer(f, e->name());
        if (e->kind() != ExprKind::Window)
            fail("expected buffer or window argument");
        const View& base = buffer(f, e->name());
        const std::vector<WindowDim>& wdims = e->window_dims();
        if constexpr (P::kCheckWindows) {
            if (wdims.size() != base.dims.size())
                fail("window arity mismatch");
        }
        View v;
        v.mem = base.mem;
        v.offset = base.offset;
        for (size_t d = 0; d < base.dims.size(); d++) {
            const WindowDim& wd = wdims.at(d);
            int64_t lo = eval_int(f, wd.lo);
            // Negative low bounds arise from range-masked instructions
            // whose low lanes are masked off; the policy's access check
            // catches any actual out-of-range access.
            if constexpr (P::kCheckWindows) {
                if (lo > base.dims[d])
                    fail("window low bound " + std::to_string(lo) +
                         " out of range");
            }
            v.offset += lo * base.strides[d];
            if (wd.is_point())
                continue;
            int64_t hi = eval_int(f, wd.hi);
            if constexpr (P::kCheckWindows) {
                // Degenerate (empty / negative) windows are legal for
                // fully-masked instructions: no lane may touch them.
                if (hi < lo)
                    hi = lo;
                if (hi > base.dims[d])
                    fail("window high bound out of range");
            }
            v.dims.push_back(hi - lo);
            v.strides.push_back(base.strides[d]);
        }
        return v;
    }

    void exec_block(Frame& f, const std::vector<StmtPtr>& block)
    {
        if constexpr (!P::kScopeBlocks) {
            for (const auto& s : block)
                exec(f, s);
        } else {
            // Scope allocations and window bindings to the block so that
            // loops do not accumulate dead local buffers.
            size_t mark = self().locals_mark();
            std::vector<std::pair<std::string, std::optional<Binding>>> saved;
            for (const auto& s : block) {
                if (s->kind() == StmtKind::Alloc ||
                    s->kind() == StmtKind::WindowDecl) {
                    auto it = f.find(s->name());
                    saved.emplace_back(s->name(),
                                       it != f.end()
                                           ? std::optional<Binding>(it->second)
                                           : std::nullopt);
                }
                exec(f, s);
            }
            for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
                if (it->second)
                    f[it->first] = *it->second;
                else
                    f.erase(it->first);
            }
            self().release_locals(mark);
        }
    }

    void exec(Frame& f, const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            self().on_assign();
            double v = eval(f, s->rhs());
            Binding& b = lookup(f, s->name());
            if (b.kind == Binding::Kind::Buf)
                self().store(f, b.view, s, v);
            else
                self().store_scalar(b, s, v);
            return;
          }
          case StmtKind::Alloc: {
            std::vector<int64_t> dims = eval_idx(f, s->dims());
            if (dims.empty())
                f[s->name()] = Binding::of_scalar(0.0);
            else
                f[s->name()] =
                    Binding::of_view(self().alloc(s, std::move(dims)));
            return;
          }
          case StmtKind::For: {
            int64_t lo = eval_int(f, s->lo());
            int64_t hi = eval_int(f, s->hi());
            auto found = f.find(s->iter());
            std::optional<Binding> saved;
            if (found != f.end())
                saved = found->second;
            for (int64_t i = lo; i < hi; i++) {
                self().on_iter();
                f[s->iter()] = Binding::of_index(i);
                exec_block(f, s->body());
            }
            if (saved)
                f[s->iter()] = *saved;
            else
                f.erase(s->iter());
            return;
          }
          case StmtKind::If:
            self().on_branch();
            exec_block(f, eval(f, s->cond()) != 0.0 ? s->body()
                                                     : s->orelse());
            return;
          case StmtKind::Pass:
            return;
          case StmtKind::Call: {
            const ProcPtr& callee = s->callee();
            if (!callee)
                fail("unresolved call");
            if constexpr (P::kPriceInstrs) {
                if (callee->is_instr()) {
                    self().instr_call(f, s);
                    return;
                }
            }
            run(callee, bind_args(f, s));
            return;
          }
          case StmtKind::WriteConfig:
            self().on_config_write();
            config[s->name() + "." + s->field()] = eval(f, s->rhs());
            return;
          case StmtKind::WindowDecl:
            f[s->name()] = Binding::of_view(eval_view(f, s->rhs()));
            return;
        }
        fail("unknown stmt kind");
    }

    // Pricing points; the interpreter prices nothing.
    void on_assign() {}
    void on_iter() {}
    void on_branch() {}
    void on_config_write() {}

    [[noreturn]] static void fail(const std::string& msg)
    {
        throw InternalError(std::string(P::kName) + ": " + msg);
    }

  private:
    P& self() { return static_cast<P&>(*this); }

    Binding& lookup(Frame& f, const std::string& name)
    {
        auto it = f.find(name);
        if (it == f.end())
            fail("unbound name '" + name + "'");
        return it->second;
    }

    const View& buffer(Frame& f, const std::string& name)
    {
        Binding& b = lookup(f, name);
        if (b.kind != Binding::Kind::Buf)
            fail("'" + name + "' is not a buffer");
        return b.view;
    }

    double binop(const ExprPtr& e, double l, double r)
    {
        // The expression's declared type is the semantics: f32
        // arithmetic rounds each operation to f32, exactly as the C
        // backend compiles it (which builds with -ffp-contract off).
        // Without this, mixed-precision kernels (sdsdot / dsdot: f32
        // products into an f64 accumulator) diverge between the
        // interpreter and generated C.
        auto fp = [&](double v) {
            if constexpr (P::kRoundF32) {
                if (e->type() == ScalarType::F32)
                    return static_cast<double>(static_cast<float>(v));
            }
            return v;
        };
        switch (e->op()) {
          case BinOpKind::Add: return fp(l + r);
          case BinOpKind::Sub: return fp(l - r);
          case BinOpKind::Mul: return fp(l * r);
          case BinOpKind::Div: {
            if (e->type() == ScalarType::Index) {
                int64_t li = static_cast<int64_t>(l);
                int64_t ri = static_cast<int64_t>(r);
                if (ri == 0)
                    fail("division by zero");
                // floor division
                int64_t q = li / ri;
                if ((li % ri != 0) && ((li < 0) != (ri < 0)))
                    q -= 1;
                return static_cast<double>(q);
            }
            if constexpr (P::kTotalFloatDiv) {
                if (r == 0)
                    return 0.0;
            }
            return fp(l / r);
          }
          case BinOpKind::Mod: {
            int64_t li = static_cast<int64_t>(l);
            int64_t ri = static_cast<int64_t>(r);
            if (ri == 0)
                fail("modulo by zero");
            int64_t m = li % ri;
            if (m != 0 && ((li < 0) != (ri < 0)))
                m += ri;
            return static_cast<double>(m);
          }
          case BinOpKind::Lt: return l < r ? 1.0 : 0.0;
          case BinOpKind::Le: return l <= r ? 1.0 : 0.0;
          case BinOpKind::Gt: return l > r ? 1.0 : 0.0;
          case BinOpKind::Ge: return l >= r ? 1.0 : 0.0;
          case BinOpKind::Eq: return l == r ? 1.0 : 0.0;
          case BinOpKind::Ne: return l != r ? 1.0 : 0.0;
          case BinOpKind::And: return (l != 0.0 && r != 0.0) ? 1.0 : 0.0;
          case BinOpKind::Or: return (l != 0.0 || r != 0.0) ? 1.0 : 0.0;
        }
        fail("bad binop");
    }

    /** Bind a sub-procedure call's actuals to the callee's formals. */
    Frame bind_args(Frame& f, const StmtPtr& call)
    {
        const auto& formals = call->callee()->args();
        const auto& actuals = call->args();
        if (formals.size() != actuals.size())
            fail("call arity mismatch");
        Frame inner;
        for (size_t i = 0; i < formals.size(); i++) {
            const ProcArg& formal = formals[i];
            Binding& b = inner[formal.name];
            if (!formal.dims.empty())
                b = Binding::of_view(eval_view(f, actuals[i]));
            else if (formal.is_size || formal.type == ScalarType::Index)
                b = Binding::of_index(eval_int(f, actuals[i]));
            else
                b = Binding::of_scalar(
                    self().scalar_arg(formal.type, eval(f, actuals[i])));
        }
        return inner;
    }
};

}  // namespace exo2

#endif  // EXO2_INTERP_WALK_H_
