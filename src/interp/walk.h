#ifndef EXO2_INTERP_WALK_H_
#define EXO2_INTERP_WALK_H_

/**
 * @file
 * The one IR evaluator (DESIGN.md §11).
 *
 * `Walker` evaluates a procedure with concrete sizes. It first lowers
 * the proc, and every proc it runs a call to, into a slot-resolved
 * `Program`: each distinct name of a proc gets one frame slot, so a
 * name is an array index at run time, and a buffer access adds
 * index·stride to its view's offset in place. A program lives as long
 * as its walker, one `interp_run` or one `simulate_cost` miss.
 *
 * The walker owns everything the two evaluation modes share: name
 * binding, index arithmetic (floor div/mod), views and windows,
 * For/If/Alloc/WindowDecl, configuration state, stride(), and argument
 * binding for sub-procedure calls. A policy derives from it (CRTP, so
 * every hook is a static call) and supplies only what differs: the
 * reference interpreter (src/interp/interp.cc) computes real data, the
 * cost simulator (src/machine/cost_sim.cc) prices accesses instead.
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
 *   double load(Frame, const View&, const LExpr& read)
 *   void store(Frame, const View&, const LStmt& assign, double v)
 *   void store_scalar(Binding&, const LStmt& assign, double v)
 *   View alloc(const LStmt& alloc, const int64_t* dims, size_t rank)
 *   double call_extern(const std::string& fn, const std::vector<double>&)
 *   double scalar_arg(ScalarType formal, double v)
 *   void instr_call(Frame, const LStmt& call)          if kPriceInstrs
 *   size_t locals_mark(), void release_locals(size_t)  if kScopeBlocks
 * and may override the pricing points on_assign, on_iter, on_branch and
 * on_config_write (no-ops here). `Mem` is what a view points into. An
 * access's indices are `read.kids` / `assign.kids`; `offset` sums them.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/ir/proc.h"

namespace exo2 {

/** Most dimensions a buffer or window may have in evaluation. */
constexpr size_t kMaxRank = 8;

/** Position of a lowered node in its Program's `exprs` or `stmts`. */
using NodeId = uint32_t;

/** Consecutive lowered nodes: a block, or an expression list. */
struct NodeRange
{
    NodeId first = 0;
    uint32_t count = 0;
};

/** An `Expr` with its names resolved to slots. */
struct LExpr
{
    const Expr* src = nullptr;
    ExprKind kind = ExprKind::Const;
    BinOpKind op = BinOpKind::Add;
    ScalarType type = ScalarType::Index;
    int dim = 0;         ///< Stride: the dimension
    uint32_t slot = 0;   ///< Read/Window/Stride: frame slot of the name;
                         ///< ReadConfig: config slot
    NodeId lhs = 0;      ///< BinOp/USub operand
    NodeId rhs = 0;      ///< BinOp operand
    NodeRange kids;      ///< Read indices and Extern args (in `exprs`),
                         ///< Window dims (in `wdims`)
    double value = 0.0;  ///< Const
};

/** One dimension of a lowered window: a point `lo`, or `lo:hi`. */
struct LWindowDim
{
    NodeId lo = 0;
    NodeId hi = 0;
    bool point = true;
};

struct LProc;

/** A `Stmt` with its names resolved to slots. */
struct LStmt
{
    const Stmt* src = nullptr;
    StmtKind kind = StmtKind::Pass;
    uint32_t slot = 0;    ///< target / iterator slot; WriteConfig: config slot
    NodeId a = 0;         ///< rhs, For lo, If cond, WindowDecl window
    NodeId b = 0;         ///< For hi
    NodeRange kids;       ///< Assign/Reduce indices, Alloc dims, Call args
    NodeRange body;       ///< For/If body (in `stmts`)
    NodeRange orelse;     ///< If else branch (in `stmts`)
    const LProc* callee = nullptr;  ///< Call, unless the walker prices it
    uint32_t alloc = 0;   ///< Alloc: one id per Stmt node, not per use
};

/** A lowered proc; its frame has one slot per distinct name. */
struct LProc
{
    const Proc* src = nullptr;
    uint32_t id = 0;  ///< position in Program::procs()
    uint32_t nslots = 0;
    std::vector<uint32_t> formals;       ///< slot of each formal
    std::vector<NodeRange> formal_dims;  ///< each formal's dims
    NodeRange preds;
    NodeRange body;
};

/**
 * A proc and every proc it calls, lowered for one evaluation. One slot
 * per name, not per declaration, keeps the tree semantics exactly: a
 * rebinding overwrites the slot and a scope end restores it, as a
 * string-keyed frame did. Procs cannot recurse, so each has one frame.
 */
class Program
{
  public:
    /** Lower `entry`; with `price_instrs`, instruction callees are
     *  priced rather than run, so their bodies are not lowered. */
    Program(const Proc& entry, bool price_instrs);

    const LProc& entry() const { return *procs_.front(); }
    const std::vector<std::unique_ptr<LProc>>& procs() const
    {
        return procs_;
    }
    size_t num_config() const { return config_.size(); }
    size_t num_allocs() const { return allocs_.size(); }

    std::vector<LExpr> exprs;
    std::vector<LWindowDim> wdims;
    std::vector<LStmt> stmts;

  private:
    using Names = std::unordered_map<std::string, uint32_t>;

    const LProc* lower(const Proc& p);
    NodeId expr(Names& names, const ExprPtr& e);
    NodeRange list(Names& names, const std::vector<ExprPtr>& es);
    LExpr lower_expr(Names& names, const ExprPtr& e);
    NodeRange block(Names& names, const std::vector<StmtPtr>& ss);
    LStmt lower_stmt(Names& names, const StmtPtr& s);
    static uint32_t slot(Names& names, const std::string& name);
    uint32_t config_slot(const std::string& cfg, const std::string& field);

    bool price_instrs_;
    std::vector<std::unique_ptr<LProc>> procs_;
    std::unordered_map<const Proc*, const LProc*> lowered_;
    std::unordered_map<std::string, uint32_t> config_;
    std::unordered_map<const Stmt*, uint32_t> allocs_;
};

/** A strided view into policy-defined memory; units are elements. */
template <class Mem>
struct StridedView
{
    Mem mem{};
    int64_t offset = 0;
    size_t rank = 0;
    int64_t dims[kMaxRank] = {};
    int64_t strides[kMaxRank] = {};

    /** The dense row-major view of a whole `rank`-dim buffer. */
    static StridedView whole(Mem m, const int64_t* dims, size_t rank)
    {
        if (rank > kMaxRank) {
            throw InternalError("buffer rank " + std::to_string(rank) +
                                " exceeds " + std::to_string(kMaxRank));
        }
        StridedView v;
        v.mem = m;
        v.rank = rank;
        int64_t s = 1;
        for (size_t d = rank; d-- > 0;) {
            v.dims[d] = dims[d];
            v.strides[d] = s;
            s *= dims[d];
        }
        return v;
    }
};

template <class P, class Mem>
class Walker
{
  public:
    using View = StridedView<Mem>;

    /** Runtime binding of a name's slot. */
    struct Binding
    {
        enum class Kind : uint8_t { Unbound, Index, Scalar, Buf };
        Kind kind = Kind::Unbound;
        int64_t index = 0;
        double scalar = 0.0;
        View view;

        static Binding of_index(int64_t i)
        {
            Binding b;
            b.kind = Kind::Index;
            b.index = i;
            return b;
        }
        static Binding of_scalar(double v)
        {
            Binding b;
            b.kind = Kind::Scalar;
            b.scalar = v;
            return b;
        }
        static Binding of_view(const View& v)
        {
            Binding b;
            b.kind = Kind::Buf;
            b.view = v;
            return b;
        }
    };

    /** A proc's slots while it runs. */
    using Frame = Binding*;

    explicit Walker(const Proc& entry)
        : prog_(entry, P::kPriceInstrs), config_(prog_.num_config(), 0.0)
    {
        for (const auto& p : prog_.procs())
            frames_.emplace_back(p->nslots);
    }

    const Program& program() const { return prog_; }

    /** A frame for the entry proc with every slot unbound. */
    std::vector<Binding> entry_frame() const
    {
        return std::vector<Binding>(prog_.entry().nslots);
    }

    /** The slot of the entry proc's `i`th formal in `frame`. */
    Binding& formal(std::vector<Binding>& frame, size_t i) const
    {
        return frame[prog_.entry().formals[i]];
    }

    /** The entry proc's `i`th formal's dims, evaluated in `frame`. */
    std::vector<int64_t> formal_dims(std::vector<Binding>& frame, size_t i)
    {
        NodeRange r = prog_.entry().formal_dims[i];
        std::vector<int64_t> dims;
        for (uint32_t d = 0; d < r.count; d++)
            dims.push_back(eval_int(frame.data(), r.first + d));
        return dims;
    }

    /** Run the entry proc from a copy of `entry`, which binds its
     *  formals. Configuration state carries over between runs. */
    void run(const std::vector<Binding>& entry)
    {
        const LProc& p = prog_.entry();
        std::vector<Binding>& f = frames_[p.id];
        f = entry;
        enter(p, f.data());
    }

    const LExpr& expr(NodeId i) const { return prog_.exprs[i]; }

    double eval(Frame f, const LExpr& e)
    {
        switch (e.kind) {
          case ExprKind::Const:
            return e.value;
          case ExprKind::Read: {
            Binding& b = bound(f, e.slot, e.src->name());
            if (b.kind == Binding::Kind::Index)
                return static_cast<double>(b.index);
            if (b.kind == Binding::Kind::Scalar)
                return b.scalar;
            return self().load(f, b.view, e);
          }
          case ExprKind::BinOp: {
            double l = eval(f, expr(e.lhs));
            if constexpr (P::kShortCircuit) {
                if (e.op == BinOpKind::And)
                    return (l != 0.0 && eval(f, expr(e.rhs)) != 0.0) ? 1.0
                                                                     : 0.0;
                if (e.op == BinOpKind::Or)
                    return (l != 0.0 || eval(f, expr(e.rhs)) != 0.0) ? 1.0
                                                                     : 0.0;
            }
            return binop(e, l, eval(f, expr(e.rhs)));
          }
          case ExprKind::USub:
            // Negation is exact in binary floating point; no rounding.
            return -eval(f, expr(e.lhs));
          case ExprKind::Stride: {
            const View& v = buffer(f, e);
            if (e.dim < 0 || static_cast<size_t>(e.dim) >= v.rank)
                fail("stride() dim out of range");
            return static_cast<double>(v.strides[e.dim]);
          }
          case ExprKind::ReadConfig:
            return config_[e.slot];
          case ExprKind::Extern: {
            std::vector<double> args;
            args.reserve(e.kids.count);
            for (uint32_t k = 0; k < e.kids.count; k++)
                args.push_back(eval(f, expr(e.kids.first + k)));
            return self().call_extern(e.src->name(), args);
          }
          case ExprKind::Window:
            fail("window outside call argument");
        }
        fail("unknown expr kind");
    }

    int64_t eval_int(Frame f, NodeId id)
    {
        // Most indices are a loop iterator or a literal.
        const LExpr& e = expr(id);
        if (e.kind == ExprKind::Read &&
            f[e.slot].kind == Binding::Kind::Index)
            return f[e.slot].index;
        if (e.kind == ExprKind::Const)
            return static_cast<int64_t>(e.value);
        return static_cast<int64_t>(eval(f, e));
    }

    /** Element offset of `v` at indices `idx`: the view's offset plus
     *  index·stride, in place. Unchecked: indices past the view's rank
     *  are evaluated and ignored. */
    int64_t offset(Frame f, const View& v, NodeRange idx)
    {
        int64_t at = v.offset;
        for (uint32_t d = 0; d < idx.count; d++) {
            int64_t i = eval_int(f, idx.first + d);
            if (d < v.rank)
                at += i * v.strides[d];
        }
        return at;
    }

    /** Resolve a buffer or window call argument to a view. */
    View eval_view(Frame f, const LExpr& e)
    {
        if (e.kind == ExprKind::Read && e.kids.count == 0)
            return buffer(f, e);
        if (e.kind != ExprKind::Window)
            fail("expected buffer or window argument");
        const View& base = buffer(f, e);
        if constexpr (P::kCheckWindows) {
            if (e.kids.count != base.rank)
                fail("window arity mismatch");
        }
        View v;
        v.mem = base.mem;
        v.offset = base.offset;
        for (size_t d = 0; d < base.rank; d++) {
            if (d >= e.kids.count)
                fail("window arity mismatch");
            const LWindowDim& wd = prog_.wdims[e.kids.first + d];
            int64_t lo = eval_int(f, wd.lo);
            if constexpr (P::kCheckWindows) {
                // A point must index the dimension. A slice's low bound
                // may be negative: range-masked instructions mask off
                // their low lanes, and the policy's access check
                // catches any actual out-of-range access.
                if (wd.point ? lo < 0 || lo >= base.dims[d]
                             : lo > base.dims[d]) {
                    fail(std::string(wd.point ? "window point index "
                                              : "window low bound ") +
                         std::to_string(lo) + " out of range");
                }
            }
            v.offset += lo * base.strides[d];
            if (wd.point)
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
            v.dims[v.rank] = hi - lo;
            v.strides[v.rank] = base.strides[d];
            v.rank++;
        }
        return v;
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
    Program prog_;
    std::vector<std::vector<Binding>> frames_;  ///< one per LProc::id
    std::vector<double> config_;  ///< `cfg.field`, global across calls
    /** Bindings an exec_block restores at its end (kScopeBlocks). */
    std::vector<std::pair<uint32_t, Binding>> saved_;

    P& self() { return static_cast<P&>(*this); }
    const LStmt& stmt(NodeId i) const { return prog_.stmts[i]; }

    void enter(const LProc& p, Frame f)
    {
        if constexpr (P::kCheckAsserts) {
            for (uint32_t k = 0; k < p.preds.count; k++) {
                if (eval(f, expr(p.preds.first + k)) == 0.0)
                    fail("assertion failed in " + p.src->name() + ": " +
                         print_expr(p.src->preds()[k]));
            }
        }
        exec_block(f, p.body);
    }

    void exec_block(Frame f, NodeRange block)
    {
        if constexpr (!P::kScopeBlocks) {
            for (uint32_t k = 0; k < block.count; k++)
                exec(f, stmt(block.first + k));
        } else {
            // Scope allocations and window bindings to the block so that
            // loops do not accumulate dead local buffers.
            size_t mark = self().locals_mark();
            size_t saved = saved_.size();
            for (uint32_t k = 0; k < block.count; k++) {
                const LStmt& s = stmt(block.first + k);
                if (s.kind == StmtKind::Alloc ||
                    s.kind == StmtKind::WindowDecl)
                    saved_.emplace_back(s.slot, f[s.slot]);
                exec(f, s);
            }
            for (; saved_.size() > saved; saved_.pop_back())
                f[saved_.back().first] = saved_.back().second;
            self().release_locals(mark);
        }
    }

    void exec(Frame f, const LStmt& s)
    {
        switch (s.kind) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            self().on_assign();
            double v = eval(f, expr(s.a));
            Binding& b = bound(f, s.slot, s.src->name());
            if (b.kind == Binding::Kind::Buf)
                self().store(f, b.view, s, v);
            else
                self().store_scalar(b, s, v);
            return;
          }
          case StmtKind::Alloc: {
            if (s.kids.count > kMaxRank)
                fail("buffer rank exceeds " + std::to_string(kMaxRank));
            int64_t dims[kMaxRank] = {};
            for (uint32_t d = 0; d < s.kids.count; d++)
                dims[d] = eval_int(f, s.kids.first + d);
            if (s.kids.count == 0)
                f[s.slot] = Binding::of_scalar(0.0);
            else
                f[s.slot] =
                    Binding::of_view(self().alloc(s, dims, s.kids.count));
            return;
          }
          case StmtKind::For: {
            int64_t lo = eval_int(f, s.a);
            int64_t hi = eval_int(f, s.b);
            Binding& it = f[s.slot];
            Binding saved = it;
            for (int64_t i = lo; i < hi; i++) {
                self().on_iter();
                it.kind = Binding::Kind::Index;
                it.index = i;
                exec_block(f, s.body);
            }
            it = saved;
            return;
          }
          case StmtKind::If:
            self().on_branch();
            exec_block(f, eval(f, expr(s.a)) != 0.0 ? s.body : s.orelse);
            return;
          case StmtKind::Pass:
            return;
          case StmtKind::Call: {
            const ProcPtr& callee = s.src->callee();
            if (!callee)
                fail("unresolved call");
            if constexpr (P::kPriceInstrs) {
                if (callee->is_instr()) {
                    self().instr_call(f, s);
                    return;
                }
            }
            call(f, s);
            return;
          }
          case StmtKind::WriteConfig: {
            self().on_config_write();
            double v = eval(f, expr(s.a));
            config_[s.slot] = v;
            return;
          }
          case StmtKind::WindowDecl: {
            View v = eval_view(f, expr(s.a));
            f[s.slot] = Binding::of_view(v);
            return;
          }
        }
        fail("unknown stmt kind");
    }

    /** Bind a sub-procedure call's actuals to the callee's formals in
     *  the callee's frame, then run it. */
    void call(Frame f, const LStmt& s)
    {
        const LProc& callee = *s.callee;
        const std::vector<ProcArg>& formals = callee.src->args();
        if (formals.size() != s.kids.count)
            fail("call arity mismatch");
        std::vector<Binding>& frame = frames_[callee.id];
        for (Binding& b : frame)
            b.kind = Binding::Kind::Unbound;
        Frame inner = frame.data();
        for (size_t k = 0; k < formals.size(); k++) {
            const ProcArg& formal = formals[k];
            const LExpr& actual = expr(s.kids.first + k);
            Binding& b = inner[callee.formals[k]];
            if (!formal.dims.empty())
                b = Binding::of_view(eval_view(f, actual));
            else if (formal.is_size || formal.type == ScalarType::Index)
                b = Binding::of_index(eval_int(f, s.kids.first + k));
            else
                b = Binding::of_scalar(
                    self().scalar_arg(formal.type, eval(f, actual)));
        }
        enter(callee, inner);
    }

    Binding& bound(Frame f, uint32_t slot, const std::string& name)
    {
        Binding& b = f[slot];
        if (b.kind == Binding::Kind::Unbound)
            fail("unbound name '" + name + "'");
        return b;
    }

    const View& buffer(Frame f, const LExpr& e)
    {
        Binding& b = bound(f, e.slot, e.src->name());
        if (b.kind != Binding::Kind::Buf)
            fail("'" + e.src->name() + "' is not a buffer");
        return b.view;
    }

    double binop(const LExpr& e, double l, double r)
    {
        // The expression's declared type is the semantics: f32
        // arithmetic rounds each operation to f32, exactly as the C
        // backend compiles it (which builds with -ffp-contract off).
        // Without this, mixed-precision kernels (sdsdot / dsdot: f32
        // products into an f64 accumulator) diverge between the
        // interpreter and generated C.
        auto fp = [&](double v) {
            if constexpr (P::kRoundF32) {
                if (e.type == ScalarType::F32)
                    return static_cast<double>(static_cast<float>(v));
            }
            return v;
        };
        switch (e.op) {
          case BinOpKind::Add: return fp(l + r);
          case BinOpKind::Sub: return fp(l - r);
          case BinOpKind::Mul: return fp(l * r);
          case BinOpKind::Div: {
            if (e.type == ScalarType::Index) {
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
};

}  // namespace exo2

#endif  // EXO2_INTERP_WALK_H_
