#include "src/primitives/extensions.h"

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {

ProcPtr
parallelize_reduction(const ProcPtr& p, const Cursor& around,
                      const Cursor& lane_loop, const Cursor& reduce_stmt,
                      const std::string& acc_name, int lanes,
                      const MemoryPtr& mem)
{
    ScheduleStats::count_rewrite("parallelize_reduction");
    ensure_unused(p, acc_name);
    Cursor ac = expect_stmt_cursor(p, around);
    Cursor lc = expect_loop_cursor(p, lane_loop);
    Cursor rc = expect_stmt_cursor(p, reduce_stmt);
    StmtPtr red = rc.stmt();
    require(red->kind() == StmtKind::Reduce,
            "parallelize_reduction: expected a reduction statement");
    StmtPtr lane = lc.stmt();
    Affine lo = to_affine(lane->lo());
    Affine hi = to_affine(lane->hi());
    require(lo.is_const() && lo.constant == 0 && hi.is_const() &&
                hi.constant == lanes,
            "parallelize_reduction: lane loop must be seq(0, lanes)");
    // The reduction statement must be inside the lane loop, which must
    // be inside `around`.
    auto has_prefix = [](const Path& path, const Path& prefix) {
        if (path.size() < prefix.size())
            return false;
        for (size_t i = 0; i < prefix.size(); i++) {
            if (!(path[i] == prefix[i]))
                return false;
        }
        return true;
    };
    require(has_prefix(lc.loc().path, ac.loc().path),
            "parallelize_reduction: lane loop not inside `around`");
    require(has_prefix(rc.loc().path, lc.loc().path),
            "parallelize_reduction: reduction not inside the lane loop");

    // Target must be loop-invariant across the `around` subtree: its
    // indices may not use any iterator bound within it.
    StmtPtr around_stmt = ac.stmt();
    std::vector<std::string> inner_iters;
    std::function<void(const StmtPtr&)> collect = [&](const StmtPtr& s) {
        if (s->kind() == StmtKind::For)
            inner_iters.push_back(s->iter());
        for (const auto& c : s->body())
            collect(c);
        for (const auto& c : s->orelse())
            collect(c);
    };
    collect(around_stmt);
    for (const auto& it : inner_iters) {
        for (const auto& e : red->idx()) {
            require(!expr_uses(e, it),
                    "parallelize_reduction: target is not loop-invariant");
        }
    }
    // Other accesses to the target buffer inside the subtree must be
    // provably disjoint from the reduction target location (e.g. the
    // trsv pattern `x[i] += -(A[i,j] * x[j])` with j < i).
    {
        Context ctx = Context::at(p, ac.loc().path);
        int own = 0;
        for (const auto& acc : collect_accesses(around_stmt)) {
            if (acc.buf != red->name())
                continue;
            if (acc.kind == AccessKind::Reduce && !acc.whole_buffer &&
                acc.idx.size() == red->idx().size()) {
                bool same = true;
                for (size_t d = 0; d < acc.idx.size(); d++) {
                    if (!affine_equal(acc.idx[d], red->idx()[d]))
                        same = false;
                }
                if (same) {
                    own++;
                    continue;
                }
            }
            // Disjointness test against the invariant target location.
            Access target;
            target.buf = red->name();
            target.kind = AccessKind::Write;
            target.idx = red->idx();
            require(!accesses_conflict(ctx, target, acc),
                    "parallelize_reduction: target '" + red->name() +
                        "' is accessed elsewhere in the loop nest");
        }
        require(own == 1,
                "parallelize_reduction: expected exactly one reduction "
                "into the target");
    }

    // Build the accumulator pieces.
    ScalarType t = red->type();
    StmtPtr alloc = Stmt::make_alloc(acc_name, t, {idx_const(lanes)}, mem);
    std::string zi = fresh_in(p, "l0");
    StmtPtr zero_loop = Stmt::make_for(
        zi, idx_const(0), idx_const(lanes),
        {Stmt::make_assign(acc_name, {var(zi)},
                           Expr::make_const(0.0, t), t)});
    std::string ri = fresh_in(p, "l1");
    StmtPtr red_loop = Stmt::make_for(
        ri, idx_const(0), idx_const(lanes),
        {Stmt::make_reduce(red->name(), red->idx(),
                           Expr::make_read(acc_name, {var(ri)}, t), t)});

    // One batched version: rewrite the reduction in place (same shape),
    // insert alloc + zero loop before `around` and the reduce loop
    // after it — a single provenance hop instead of three.
    StmtPtr new_red = Stmt::make_reduce(
        acc_name, {var(lane->iter())}, red->rhs(), t);
    EditBatch batch(p);
    batch.replace_stmt_same_shape(rc.loc().path, new_red);
    int pos = 0;
    ListAddr addr = list_addr_of(ac.loc().path, &pos);
    batch.insert(addr, pos, {alloc, zero_loop});
    batch.insert(addr, pos + 3, {red_loop});
    return batch.commit("parallelize_reduction");
}

ProcPtr
split_guard(const ProcPtr& p, const Cursor& if_stmt)
{
    ScheduleStats::count_rewrite("split_guard");
    Cursor c = expect_stmt_cursor(p, if_stmt);
    StmtPtr s = c.stmt();
    require(s->kind() == StmtKind::If, "split_guard: expected an if");
    require(s->orelse().empty(), "split_guard: else clause unsupported");
    if (s->body().size() <= 1)
        return p;
    // Each statement gets an if of its own: a declaration must not be
    // cut off from the statements after it that use it.
    ListAddr body{c.loc().path, PathLabel::Body};
    for (int k = 0; k < static_cast<int>(s->body().size()); k++)
        require_binders_do_not_escape(p, body, k, k + 1, "split_guard");
    std::vector<std::string> cond_reads;
    expr_collect_reads(s->cond(), &cond_reads);
    for (const auto& st : s->body()) {
        for (const auto& nm : cond_reads) {
            require(!stmt_writes(st, nm),
                    "split_guard: body writes '" + nm +
                        "' read by the condition");
        }
    }
    std::vector<StmtPtr> repl;
    for (const auto& st : s->body())
        repl.push_back(Stmt::make_if(s->cond(), {st}));
    int n = static_cast<int>(repl.size());
    int pos = 0;
    ListAddr addr = list_addr_of(c.loc().path, &pos);
    // Forwarding: body[j] -> (pos+j).body[0]; the if itself -> first.
    ListAddr old_body{c.loc().path, PathLabel::Body};
    ForwardFn shift = fwd_replace_range(addr, pos, pos + 1, n);
    ForwardFn fwd = [old_body, pos, shift](const CursorLoc& l)
        -> std::optional<CursorLoc> {
        size_t d = old_body.parent.size();
        bool through =
            l.path.size() > d && l.path[d].label == old_body.label;
        for (size_t i = 0; i < d && through; i++) {
            if (!(l.path[i] == old_body.parent[i]))
                through = false;
        }
        if (through) {
            CursorLoc out = l;
            int j = l.path[d].index;
            out.path[d - 1].index = pos + j;
            out.path[d].index = 0;
            if (l.path.size() == d + 1 && l.kind != CursorKind::Node)
                return std::nullopt;  // gaps/blocks across the split
            return out;
        }
        return shift(l);
    };
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> nl(list.begin(), list.begin() + pos);
    nl.insert(nl.end(), repl.begin(), repl.end());
    nl.insert(nl.end(), list.begin() + pos + 1, list.end());
    return p->with_body(rebuild_list(p, addr, std::move(nl)), fwd,
                        "split_guard");
}

ProcPtr
extend_loop_bound(const ProcPtr& p, const Cursor& loop,
                  const ExprPtr& new_lo, const ExprPtr& new_hi)
{
    ScheduleStats::count_rewrite("extend_loop_bound");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    Context ctx = Context::at(p, lc.loc().path);
    ExprPtr lo = new_lo ? new_lo : s->lo();
    ExprPtr hi = new_hi ? new_hi : s->hi();
    require(ctx.prove_le(lo, s->lo()),
            "extend_loop_bound: new lower bound not provably <= old");
    require(ctx.prove_le(s->hi(), hi),
            "extend_loop_bound: new upper bound not provably >= old");
    ExprPtr iv = var(s->iter());
    ExprPtr cond;
    if (new_hi)
        cond = lt(iv, s->hi());
    if (new_lo) {
        ExprPtr c2 = ge(iv, s->lo());
        cond = cond ? land(c2, cond) : c2;
    }
    std::vector<StmtPtr> body = s->body();
    if (cond)
        body = {Stmt::make_if(cond, std::move(body))};
    StmtPtr widened =
        Stmt::make_for(s->iter(), lo, hi, std::move(body), s->loop_mode());
    // Forwarding: old body relocates one level deeper (under the if).
    Path guard_path = lc.loc().path;
    guard_path.push_back({PathLabel::Body, 0});
    ForwardFn fwd =
        cond ? fwd_relocate_list(ListAddr{lc.loc().path, PathLabel::Body},
                                 ListAddr{guard_path, PathLabel::Body},
                                 fwd_identity())
             : fwd_identity();
    return p->with_body(rebuild_node(p, lc.loc().path, NodeRef(widened)),
                        fwd, "extend_loop_bound");
}

ProcPtr
partial_eval(const ProcPtr& p, const std::string& size_arg, int64_t value)
{
    ScheduleStats::count_rewrite("partial_eval");
    const ProcArg* a = p->find_arg(size_arg);
    require(a != nullptr && a->is_size,
            "partial_eval: '" + size_arg + "' is not a size argument");
    ExprPtr c = idx_const(value);
    std::vector<ProcArg> args;
    for (const auto& arg : p->args()) {
        if (arg.name == size_arg)
            continue;
        ProcArg na = arg;
        for (auto& d : na.dims)
            d = expr_subst(d, size_arg, c);
        args.push_back(na);
    }
    std::vector<ExprPtr> preds;
    for (const auto& pr : p->preds())
        preds.push_back(expr_subst(pr, size_arg, c));
    std::vector<StmtPtr> body = block_subst(p->body_stmts(), size_arg, c);
    return p->with_signature(std::move(args), std::move(preds),
                             std::move(body), fwd_identity(),
                             "partial_eval");
}

ProcPtr
bind_expr_block(const ProcPtr& p, const Cursor& block, const ExprPtr& expr,
                const std::string& new_name)
{
    ScheduleStats::count_rewrite("bind_expr_block");
    ensure_unused(p, new_name);
    Cursor bc = p->forward(block);
    require(bc.is_valid(), "bind_expr_block: cursor invalidated");
    int lo = 0;
    int hi = 0;
    ListAddr addr{};
    if (bc.kind() == CursorKind::Node) {
        addr = list_addr_of(bc.loc().path, &lo);
        hi = lo + 1;
    } else {
        require(bc.kind() == CursorKind::Block,
                "bind_expr_block: expected stmt/block cursor");
        addr = list_addr_of(bc.loc().path, &lo);
        hi = bc.loc().hi;
    }
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> body(list.begin() + lo, list.begin() + hi);
    std::vector<std::string> reads;
    expr_collect_reads(expr, &reads);
    for (const auto& st : body) {
        for (const auto& nm : reads) {
            require(!stmt_writes(st, nm),
                    "bind_expr_block: block writes '" + nm +
                        "' read by the bound expression");
        }
    }
    // The expression must mean the same at the block entry: no name it
    // reads may be bound inside the block, by a declaration or by a
    // loop. (A read of an inner iterator passes the bounds proof below
    // vacuously when that loop sits in a provably zero-trip one.)
    for (const auto& nm : reads) {
        require(!block_binds_name(body, nm),
                "bind_expr_block: expression reads block-local '" + nm +
                    "'");
    }
    // Evaluating it there must be safe: the block's statements may be
    // guarded, and hoisting a read above a guard is only legal when
    // the access cannot fault.
    require_evaluable_at(p, bc.loc().path, expr, "bind_expr_block");

    ExprPtr replacement =
        Expr::make_read(new_name, {}, expr->type());
    std::function<ExprPtr(const ExprPtr&)> sub =
        [&](const ExprPtr& cur) -> ExprPtr {
        return cur == expr ? replacement : map_children(cur, sub);
    };
    // The occurrences in the block's writes are replaced; loop bounds,
    // guards and call arguments keep theirs.
    std::vector<StmtPtr> bound_body =
        map_block_in_scope(body, new_name, [&](const StmtPtr& st) {
            return st->is_write() ? map_exprs(st, sub) : st;
        });
    std::vector<StmtPtr> repl;
    repl.push_back(Stmt::make_alloc(new_name, expr->type(), {},
                                    mem_dram()));
    repl.push_back(Stmt::make_assign(new_name, {}, expr, expr->type()));
    repl.insert(repl.end(), bound_body.begin(), bound_body.end());

    // Forwarding: block stmts shift by 2; structure preserved.
    ListAddr old_addr = addr;
    ForwardFn fwd = [old_addr, lo, hi](const CursorLoc& l)
        -> std::optional<CursorLoc> {
        size_t d = old_addr.parent.size();
        bool through =
            l.path.size() > d && l.path[d].label == old_addr.label;
        for (size_t i = 0; i < d && through; i++) {
            if (!(l.path[i] == old_addr.parent[i]))
                through = false;
        }
        if (!through)
            return l;
        CursorLoc out = l;
        int j = l.path[d].index;
        if (j >= lo) {
            out.path[d].index = j + 2;
            if (l.path.size() == d + 1 && l.kind == CursorKind::Block)
                out.hi = l.hi + 2;
        }
        (void)hi;
        return out;
    };
    std::vector<StmtPtr> nl(list.begin(), list.begin() + lo);
    nl.insert(nl.end(), repl.begin(), repl.end());
    nl.insert(nl.end(), list.begin() + hi, list.end());
    return p->with_body(rebuild_list(p, addr, std::move(nl)), fwd,
                        "bind_expr_block");
}

}  // namespace exo2
