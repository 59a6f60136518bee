#include "src/primitives/loops.h"

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {

namespace {

/** Require that a loop's lower bound is literally zero. */
void
require_zero_based(const StmtPtr& loop, const std::string& who)
{
    require(affine_is_zero(to_affine(loop->lo())),
            who + ": loop must start at 0 (use shift_loop first)");
}

/** The list address of a loop's body. */
ListAddr
body_list(const Path& loop_path)
{
    return ListAddr{loop_path, PathLabel::Body};
}

}  // namespace

ProcPtr
divide_loop(const ProcPtr& p, const Cursor& loop, int64_t factor,
            const std::vector<std::string>& new_iters, TailStrategy tail)
{
    ScheduleStats::count_rewrite("divide_loop");
    require(factor >= 1, "divide_loop: factor must be >= 1");
    require(new_iters.size() == 2, "divide_loop: need [outer, inner] names");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    require_zero_based(s, "divide_loop");
    const std::string& io = new_iters[0];
    const std::string& ii = new_iters[1];
    // The divided iterator disappears, so its name may be reused for
    // the outer tile index (Halide's convention in H_tile).
    if (io != s->iter())
        ensure_unused(p, io);
    if (ii != s->iter())
        ensure_unused(p, ii);
    require(io != ii, "divide_loop: iterator names must differ");

    Context ctx = Context::at(p, lc.loc().path);
    ExprPtr bound = s->hi();
    ExprPtr c = idx_const(factor);
    ExprPtr new_idx = c * var(io) + var(ii);
    std::vector<StmtPtr> main_body = block_subst(s->body(), s->iter(),
                                                 new_idx);

    int pos = 0;
    ListAddr parent = list_addr_of(lc.loc().path, &pos);
    std::vector<StmtPtr> repl;
    ListAddr new_body_list;  // where the original body relocated to

    switch (tail) {
      case TailStrategy::Perfect: {
        require(ctx.prove_divisible(bound, factor),
                "divide_loop(perfect): cannot prove " + print_expr(bound) +
                    " divisible by " + std::to_string(factor));
        StmtPtr inner =
            Stmt::make_for(ii, idx_const(0), c, std::move(main_body));
        StmtPtr outer =
            Stmt::make_for(io, idx_const(0), bound / c, {inner});
        repl = {outer};
        Path ip = lc.loc().path;
        ip.push_back({PathLabel::Body, 0});
        new_body_list = body_list(ip);
        break;
      }
      case TailStrategy::Guard: {
        ExprPtr guard = lt(new_idx, bound);
        StmtPtr iff = Stmt::make_if(guard, std::move(main_body));
        StmtPtr inner = Stmt::make_for(ii, idx_const(0), c, {iff});
        ExprPtr ceil = (bound + idx_const(factor - 1)) / c;
        StmtPtr outer = Stmt::make_for(io, idx_const(0), ceil, {inner});
        repl = {outer};
        Path ip = lc.loc().path;
        ip.push_back({PathLabel::Body, 0});
        ip.push_back({PathLabel::Body, 0});
        new_body_list = body_list(ip);
        break;
      }
      case TailStrategy::Cut:
      case TailStrategy::CutAndGuard: {
        StmtPtr inner =
            Stmt::make_for(ii, idx_const(0), c, std::move(main_body));
        StmtPtr outer =
            Stmt::make_for(io, idx_const(0), bound / c, {inner});
        ExprPtr tail_base = c * (bound / c);
        std::vector<StmtPtr> tail_body =
            block_subst(s->body(), s->iter(), tail_base + var(ii));
        StmtPtr tail_loop = Stmt::make_for(ii, idx_const(0), bound % c,
                                           std::move(tail_body));
        StmtPtr tail_stmt = tail_loop;
        if (tail == TailStrategy::CutAndGuard) {
            tail_stmt = Stmt::make_if(gt(bound % c, idx_const(0)),
                                      {tail_loop});
        }
        repl = {outer, tail_stmt};
        Path ip = lc.loc().path;
        ip.push_back({PathLabel::Body, 0});
        new_body_list = body_list(ip);
        break;
      }
    }

    ForwardFn rest = fwd_replace_range(parent, pos, pos + 1,
                                       static_cast<int>(repl.size()));
    ForwardFn fwd =
        fwd_relocate_list(body_list(lc.loc().path), new_body_list, rest);

    const auto& old_list = stmt_list_at(p, parent);
    std::vector<StmtPtr> nl(old_list.begin(), old_list.begin() + pos);
    nl.insert(nl.end(), repl.begin(), repl.end());
    nl.insert(nl.end(), old_list.begin() + pos + 1, old_list.end());
    return p->with_body(rebuild_list(p, parent, std::move(nl)), fwd,
                        "divide_loop");
}

ProcPtr
divide_loop(const ProcPtr& p, const std::string& loop_name, int64_t factor,
            const std::vector<std::string>& new_iters, TailStrategy tail)
{
    return divide_loop(p, p->find_loop(loop_name), factor, new_iters, tail);
}

ProcPtr
reorder_loops(const ProcPtr& p, const Cursor& loop)
{
    ScheduleStats::count_rewrite("reorder_loops");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr outer = lc.stmt();
    require(outer->body().size() == 1 &&
                outer->body()[0]->kind() == StmtKind::For,
            "reorder_loops: body must be exactly one nested loop");
    StmtPtr inner = outer->body()[0];
    require(!expr_uses(inner->lo(), outer->iter()) &&
                !expr_uses(inner->hi(), outer->iter()),
            "reorder_loops: inner bounds depend on outer iterator");
    Context ctx = Context::at(p, lc.loc().path);
    std::string why;
    bool commute = loop_iterations_commute(ctx, outer, &why);
    require(commute, "reorder_loops: iterations do not commute: " + why);

    StmtPtr new_inner = Stmt::make_for(outer->iter(), outer->lo(),
                                       outer->hi(), inner->body(),
                                       outer->loop_mode());
    StmtPtr new_outer = Stmt::make_for(inner->iter(), inner->lo(),
                                       inner->hi(), {new_inner},
                                       inner->loop_mode());
    return apply_replace_stmt_same_shape(p, lc.loc().path, new_outer,
                                         "reorder_loops");
}

ProcPtr
reorder_loops(const ProcPtr& p, const std::string& loop_name)
{
    return reorder_loops(p, p->find_loop(loop_name));
}

ProcPtr
divide_with_recompute(const ProcPtr& p, const Cursor& loop,
                      const ExprPtr& n_tiles, int64_t c,
                      const std::vector<std::string>& new_iters)
{
    ScheduleStats::count_rewrite("divide_with_recompute");
    require(new_iters.size() == 2,
            "divide_with_recompute: need [outer, inner] names");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    require_zero_based(s, "divide_with_recompute");
    ensure_unused(p, new_iters[0]);
    ensure_unused(p, new_iters[1]);
    require(block_idempotent(s->body()),
            "divide_with_recompute: body must be idempotent");
    Context ctx = Context::at(p, lc.loc().path);
    ExprPtr bound = s->hi();
    require(ctx.prove_le(n_tiles * idx_const(c), bound),
            "divide_with_recompute: cannot prove n_tiles*c <= bound");
    std::string why;
    bool commute = loop_iterations_commute(ctx, s, &why);
    require(commute,
            "divide_with_recompute: iterations must commute: " + why);

    const std::string& io = new_iters[0];
    const std::string& ii = new_iters[1];
    ExprPtr new_idx = idx_const(c) * var(io) + var(ii);
    std::vector<StmtPtr> body = block_subst(s->body(), s->iter(), new_idx);
    ExprPtr inner_hi =
        idx_const(c) + bound - n_tiles * idx_const(c);
    StmtPtr inner = Stmt::make_for(ii, idx_const(0), inner_hi,
                                   std::move(body));
    StmtPtr outer = Stmt::make_for(io, idx_const(0), n_tiles, {inner});

    Path ip = lc.loc().path;
    ip.push_back({PathLabel::Body, 0});
    ForwardFn fwd = fwd_relocate_list(body_list(lc.loc().path),
                                      body_list(ip), fwd_identity());
    return p->with_body(rebuild_node(p, lc.loc().path, NodeRef(outer)), fwd,
                        "divide_with_recompute");
}

ProcPtr
mult_loops(const ProcPtr& p, const Cursor& outer, const std::string& new_iter)
{
    ScheduleStats::count_rewrite("mult_loops");
    Cursor lc = expect_loop_cursor(p, outer);
    StmtPtr s = lc.stmt();
    require(s->body().size() == 1 && s->body()[0]->kind() == StmtKind::For,
            "mult_loops: body must be exactly one nested loop");
    StmtPtr inner = s->body()[0];
    require_zero_based(s, "mult_loops");
    require_zero_based(inner, "mult_loops");
    Affine c = to_affine(inner->hi());
    require(c.is_const() && c.constant >= 1,
            "mult_loops: inner bound must be a positive constant");
    ensure_unused(p, new_iter);
    ExprPtr k = var(new_iter);
    ExprPtr cc = idx_const(c.constant);
    std::vector<StmtPtr> body = inner->body();
    body = block_subst(body, inner->iter(), k % cc);
    body = block_subst(body, s->iter(), k / cc);
    StmtPtr merged = Stmt::make_for(new_iter, idx_const(0), s->hi() * cc,
                                    std::move(body));
    // Paths: loopPath.body[0].body[j] -> loopPath.body[j].
    Path inner_path = lc.loc().path;
    inner_path.push_back({PathLabel::Body, 0});
    ForwardFn fwd = fwd_relocate_list(
        body_list(inner_path), body_list(lc.loc().path),
        fwd_invalidate_below(lc.loc().path));
    return p->with_body(rebuild_node(p, lc.loc().path, NodeRef(merged)), fwd,
                        "mult_loops");
}

ProcPtr
cut_loop(const ProcPtr& p, const Cursor& loop, const ExprPtr& e)
{
    ScheduleStats::count_rewrite("cut_loop");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    Context ctx = Context::at(p, lc.loc().path);
    require(ctx.prove_le(s->lo(), e) && ctx.prove_le(e, s->hi()),
            "cut_loop: cutoff not provably within loop bounds");
    StmtPtr first = Stmt::make_for(s->iter(), s->lo(), e, s->body(),
                                   s->loop_mode());
    StmtPtr second = Stmt::make_for(s->iter(), e, s->hi(), s->body(),
                                    s->loop_mode());
    int pos = 0;
    ListAddr parent = list_addr_of(lc.loc().path, &pos);
    ForwardFn fwd = fwd_relocate_list(
        body_list(lc.loc().path), body_list(lc.loc().path),
        fwd_replace_range(parent, pos, pos + 1, 2));
    const auto& old_list = stmt_list_at(p, parent);
    std::vector<StmtPtr> nl(old_list.begin(), old_list.begin() + pos);
    nl.push_back(first);
    nl.push_back(second);
    nl.insert(nl.end(), old_list.begin() + pos + 1, old_list.end());
    return p->with_body(rebuild_list(p, parent, std::move(nl)), fwd,
                        "cut_loop");
}

ProcPtr
join_loops(const ProcPtr& p, const Cursor& loop1, const Cursor& loop2)
{
    ScheduleStats::count_rewrite("join_loops");
    Cursor c1 = expect_loop_cursor(p, loop1);
    Cursor c2 = expect_loop_cursor(p, loop2);
    StmtPtr s1 = c1.stmt();
    StmtPtr s2 = c2.stmt();
    int pos1 = 0;
    int pos2 = 0;
    ListAddr l1 = list_addr_of(c1.loc().path, &pos1);
    ListAddr l2 = list_addr_of(c2.loc().path, &pos2);
    require(l1.parent == l2.parent && l1.label == l2.label &&
                pos2 == pos1 + 1,
            "join_loops: loops must be adjacent");
    Context ctx = Context::at(p, c1.loc().path);
    require(ctx.prove_eq(s1->hi(), s2->lo()),
            "join_loops: first upper bound must equal second lower bound");
    require(s1->iter() == s2->iter() ||
                !block_binds_name(s2->body(), s1->iter()),
            "join_loops: '" + s1->iter() +
                "' is re-bound inside the second loop's body");
    std::vector<StmtPtr> b2 = block_subst(s2->body(), s2->iter(),
                                          var(s1->iter()));
    require(block_equal(s1->body(), b2),
            "join_loops: loop bodies are not identical");
    StmtPtr joined = Stmt::make_for(s1->iter(), s1->lo(), s2->hi(),
                                    s1->body(), s1->loop_mode());
    ForwardFn fwd = fwd_relocate_list(
        body_list(c1.loc().path), body_list(c1.loc().path),
        fwd_replace_range(l1, pos1, pos1 + 2, 1));
    const auto& old_list = stmt_list_at(p, l1);
    std::vector<StmtPtr> nl(old_list.begin(), old_list.begin() + pos1);
    nl.push_back(joined);
    nl.insert(nl.end(), old_list.begin() + pos1 + 2, old_list.end());
    return p->with_body(rebuild_list(p, l1, std::move(nl)), fwd,
                        "join_loops");
}

ProcPtr
shift_loop(const ProcPtr& p, const Cursor& loop, const ExprPtr& new_lo)
{
    ScheduleStats::count_rewrite("shift_loop");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    Context ctx = Context::at(p, lc.loc().path);
    require(ctx.prove_ge0(new_lo),
            "shift_loop: new lower bound must be nonnegative");
    ExprPtr delta = new_lo - s->lo();
    std::vector<StmtPtr> body =
        block_subst(s->body(), s->iter(), var(s->iter()) - delta);
    StmtPtr shifted = Stmt::make_for(s->iter(), new_lo, s->hi() + delta,
                                     std::move(body), s->loop_mode());
    return apply_replace_stmt_same_shape(p, lc.loc().path, shifted,
                                         "shift_loop");
}

ProcPtr
fission(const ProcPtr& p, const Cursor& gap, int n_lifts)
{
    Cursor gc = expect_gap_cursor(p, gap);
    ProcPtr cur = p;
    CursorLoc loc = gc.loc();
    for (int lift = 0; lift < n_lifts; lift++) {
        ScheduleStats::count_rewrite("fission");
        int g = loc.path.back().index;
        ListAddr body_addr = list_addr_of(loc.path, &g);
        require(!body_addr.parent.empty(),
                "fission: gap is not inside a loop");
        StmtPtr loop_stmt = stmt_at(cur, body_addr.parent);
        require(loop_stmt->kind() == StmtKind::For,
                "fission: enclosing statement is not a loop");
        require(body_addr.label == PathLabel::Body,
                "fission: gap must be in a loop body");
        const auto& body = loop_stmt->body();
        int n = static_cast<int>(body.size());
        require(g > 0 && g < n, "fission: gap at the edge of the body");
        std::vector<StmtPtr> b1(body.begin(), body.begin() + g);
        std::vector<StmtPtr> b2(body.begin() + g, body.end());
        // Safety: the second half must not use declarations of the
        // first, which it would lose.
        std::string lost = captured_name(b1, b2);
        require(lost.empty(), "fission: second half depends on '" + lost +
                                  "' declared in the first half");
        // Safety: no dependence from s2(i) to s1(i') for i' > i. We
        // check that accesses of b1 at iteration i1 and b2 at i2 cannot
        // conflict when i1 > i2.
        Context ctx = Context::at(cur, body_addr.parent);
        {
            auto accs1 = collect_accesses_block(b1);
            auto accs2 = collect_accesses_block(b2);
            const std::string& iter = loop_stmt->iter();
            std::string i1 = fresh_in(cur, iter + "$a");
            std::string i2 = fresh_in(cur, iter + "$b");
            for (const auto& a : accs1) {
                for (const auto& b : accs2) {
                    if (a.buf != b.buf)
                        continue;
                    if (a.kind == AccessKind::Read &&
                        b.kind == AccessKind::Read) {
                        continue;
                    }
                    if (a.kind == AccessKind::Reduce &&
                        b.kind == AccessKind::Reduce) {
                        continue;
                    }
                    bool conflict = true;
                    if (!a.whole_buffer && !b.whole_buffer &&
                        a.idx.size() == b.idx.size() && !a.idx.empty()) {
                        LinearSystem::Scope sys(ctx.system());
                        for (const auto& nm : {i1, i2}) {
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Ge, var(nm), loop_stmt->lo()));
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Lt, var(nm), loop_stmt->hi()));
                        }
                        sys.add_pred(Expr::make_binop(BinOpKind::Gt,
                                                      var(i1), var(i2)));
                        for (const auto& bd : a.binders) {
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Ge, var(bd.name),
                                expr_subst(bd.lo, iter, var(i1))));
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Lt, var(bd.name),
                                expr_subst(bd.hi, iter, var(i1))));
                        }
                        for (const auto& bd : b.binders) {
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Ge, var(bd.name),
                                expr_subst(bd.lo, iter, var(i2))));
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Lt, var(bd.name),
                                expr_subst(bd.hi, iter, var(i2))));
                        }
                        for (const auto& gd : a.guards)
                            sys.add_pred(expr_subst(gd, iter, var(i1)));
                        for (const auto& gd : b.guards)
                            sys.add_pred(expr_subst(gd, iter, var(i2)));
                        for (size_t d = 0; d < a.idx.size(); d++) {
                            sys.add_eq0(affine_sub(
                                to_affine(
                                    expr_subst(a.idx[d], iter, var(i1))),
                                to_affine(
                                    expr_subst(b.idx[d], iter, var(i2)))));
                        }
                        conflict = !ctx.system().infeasible();
                    }
                    require(!conflict,
                            "fission: loop-carried dependence on '" +
                                a.buf + "' between the halves");
                }
            }
        }
        StmtPtr loop1 = loop_stmt->with_body(std::move(b1));
        StmtPtr loop2 = loop_stmt->with_body(std::move(b2));
        int pos = 0;
        ListAddr parent = list_addr_of(body_addr.parent, &pos);
        // Forwarding: body[j<g] stays in loop1; body[j>=g] -> loop2 at
        // index j-g; siblings after the loop shift by one.
        ForwardFn shift = fwd_replace_range(parent, pos, pos + 1, 2);
        ListAddr old_body = body_addr;
        ForwardFn fwd = [old_body, g, shift](const CursorLoc& l)
            -> std::optional<CursorLoc> {
            size_t d = old_body.parent.size();
            bool through = l.path.size() > d &&
                           l.path[d].label == old_body.label;
            for (size_t i = 0; i < d && through; i++) {
                if (!(l.path[i] == old_body.parent[i]))
                    through = false;
            }
            if (through) {
                CursorLoc out = l;
                int j = l.path[d].index;
                // Blocks straddling the gap are invalidated below.
                bool second = j >= g;
                if (second) {
                    out.path[d - 1].index += 1;  // loop2 = next sibling
                    out.path[d].index = j - g;
                    if (l.kind == CursorKind::Block &&
                        l.path.size() == d + 1) {
                        if (l.hi <= g)
                            return l;  // handled below
                        out.hi = l.hi - g;
                    }
                }
                // Blocks straddling the gap are invalidated.
                if (l.kind == CursorKind::Block && l.path.size() == d + 1 &&
                    j < g && l.hi > g) {
                    return std::nullopt;
                }
                return out;
            }
            return shift(l);
        };
        const auto& old_list = stmt_list_at(cur, parent);
        std::vector<StmtPtr> nl(old_list.begin(), old_list.begin() + pos);
        nl.push_back(loop1);
        nl.push_back(loop2);
        nl.insert(nl.end(), old_list.begin() + pos + 1, old_list.end());
        cur = cur->with_body(rebuild_list(cur, parent, std::move(nl)), fwd,
                             "fission");
        // Next lift: the gap between loop1 and loop2.
        loc.kind = CursorKind::Gap;
        loc.path = body_addr.parent;
        loc.path.back().index = pos + 1;
        loc.hi = -1;
    }
    return cur;
}

ProcPtr
remove_loop(const ProcPtr& p, const Cursor& loop)
{
    ScheduleStats::count_rewrite("remove_loop");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    require(block_idempotent(s->body()),
            "remove_loop: loop body must be idempotent");
    for (const auto& st : s->body()) {
        require(!stmt_uses(st, s->iter()),
                "remove_loop: body depends on the loop iterator");
    }
    Context ctx = Context::at(p, lc.loc().path);
    if (!ctx.prove_lt(s->lo(), s->hi())) {
        // Zero-trip escape hatch: if every write targets a buffer the
        // body declares, which dies with the iteration, running the
        // body once when the loop would have run zero times is
        // unobservable. (An allocation outside the loop is zero-filled,
        // so writing it is observable.)
        for (const auto& acc : collect_accesses_block(s->body())) {
            require(acc.kind == AccessKind::Read || acc.local,
                    "remove_loop: cannot prove the loop executes at "
                    "least once (writes non-local '" +
                        acc.buf + "')");
        }
    }
    return apply_unwrap(p, lc.loc().path, s->body(), "remove_loop");
}

ProcPtr
add_loop(const ProcPtr& p, const Cursor& stmt, const std::string& iter,
         const ExprPtr& hi, bool guard)
{
    ScheduleStats::count_rewrite("add_loop");
    Cursor sc = expect_stmt_cursor(p, stmt);
    ensure_unused(p, iter);
    if (!guard) {
        require(stmt_idempotent(sc.stmt()),
                "add_loop: statement must be idempotent without a guard");
    }
    Context ctx = Context::at(p, sc.loc().path);
    require(ctx.prove_ge0(hi - idx_const(1)),
            "add_loop: loop bound must be positive");
    int pos = 0;
    ListAddr parent = list_addr_of(sc.loc().path, &pos);
    // The loop body opens a new scope: an Alloc being wrapped must not
    // be referenced after the wrapped statement.
    require_binders_do_not_escape(p, parent, pos, pos + 1, "add_loop");
    // Batched: guard wrap + loop wrap commit as one version.
    EditBatch batch(p);
    if (guard) {
        batch.wrap(parent, pos, pos + 1, [&](std::vector<StmtPtr> block) {
            return Stmt::make_if(eq(var(iter), idx_const(0)),
                                 std::move(block));
        });
    }
    batch.wrap(parent, pos, pos + 1, [&](std::vector<StmtPtr> block) {
        return Stmt::make_for(iter, idx_const(0), hi, std::move(block));
    });
    return batch.commit("add_loop");
}

ProcPtr
unroll_loop(const ProcPtr& p, const Cursor& loop)
{
    ScheduleStats::count_rewrite("unroll_loop");
    Cursor lc = expect_loop_cursor(p, loop);
    StmtPtr s = lc.stmt();
    Affine lo = to_affine(s->lo());
    Affine hi = to_affine(s->hi());
    require(lo.is_const() && hi.is_const(),
            "unroll_loop: bounds must be constants");
    require(hi.constant - lo.constant > 0,
            "unroll_loop: trip count must be positive");
    int64_t trips = hi.constant - lo.constant;
    require(trips <= 1024, "unroll_loop: trip count too large to unroll");
    // Each copy is placed after the one before it.
    std::string captured = trips > 1 ? captured_name(s->body(), s->body())
                                     : "";
    require(captured.empty(), "unroll_loop: a copy's '" + captured +
                                  "' would capture the next copy's use "
                                  "of the outer '" + captured + "'");
    std::vector<StmtPtr> out;
    for (int64_t k = 0; k < trips; k++) {
        auto copy =
            block_subst(s->body(), s->iter(), idx_const(lo.constant + k));
        out.insert(out.end(), copy.begin(), copy.end());
    }
    int pos = 0;
    ListAddr parent = list_addr_of(lc.loc().path, &pos);
    ForwardFn fwd = fwd_unwrap(parent, pos, static_cast<int>(out.size()));
    const auto& old_list = stmt_list_at(p, parent);
    std::vector<StmtPtr> nl(old_list.begin(), old_list.begin() + pos);
    nl.insert(nl.end(), out.begin(), out.end());
    nl.insert(nl.end(), old_list.begin() + pos + 1, old_list.end());
    return p->with_body(rebuild_list(p, parent, std::move(nl)), fwd,
                        "unroll_loop");
}

ProcPtr
unroll_loop(const ProcPtr& p, const std::string& loop_name)
{
    return unroll_loop(p, p->find_loop(loop_name));
}

}  // namespace exo2
