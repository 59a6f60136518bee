#include "src/primitives/scope.h"

#include <map>

#include "src/primitives/loops.h"

#include "src/analysis/effects.h"
#include "src/inspect/bounds.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"

namespace exo2 {

ProcPtr
reorder_stmts(const ProcPtr& p, const Cursor& first, const Cursor& second)
{
    ScheduleStats::count_rewrite("reorder_stmts");
    Cursor c1 = expect_stmt_cursor(p, first);
    Cursor c2 = expect_stmt_cursor(p, second);
    int pos1 = 0;
    int pos2 = 0;
    ListAddr l1 = list_addr_of(c1.loc().path, &pos1);
    ListAddr l2 = list_addr_of(c2.loc().path, &pos2);
    require(l1.parent == l2.parent && l1.label == l2.label &&
                pos2 == pos1 + 1,
            "reorder_stmts: statements must be adjacent");
    Context ctx = Context::at(p, c1.loc().path);
    std::string why;
    bool commute = stmts_commute(ctx, c1.stmt(), c2.stmt(), &why);
    require(commute, "reorder_stmts: statements do not commute: " + why);
    // Move the second statement before the first.
    return apply_move(p, l1, pos2, pos2 + 1, l1, pos1, "reorder_stmts");
}

ProcPtr
reorder_stmts(const ProcPtr& p, const Cursor& pair_block)
{
    Cursor blk = p->forward(pair_block);
    require(blk.is_valid() && blk.kind() == CursorKind::Block &&
                blk.block_size() == 2,
            "reorder_stmts: expected a two-statement block");
    return reorder_stmts(p, blk[0], blk[1]);
}

ProcPtr
commute_expr(const ProcPtr& p, const Cursor& expr)
{
    ScheduleStats::count_rewrite("commute_expr");
    Cursor c = p->forward(expr);
    require(c.is_valid() && c.kind() == CursorKind::Node,
            "commute_expr: expected an expression cursor");
    ExprPtr e = c.expr();
    require(e->kind() == ExprKind::BinOp &&
                (e->op() == BinOpKind::Add || e->op() == BinOpKind::Mul),
            "commute_expr: expression must be + or *");
    ExprPtr swapped = Expr::make_binop(e->op(), e->rhs(), e->lhs());
    return apply_replace_expr(p, c.loc().path, swapped, "commute_expr");
}

ProcPtr
specialize(const ProcPtr& p, const Cursor& stmt,
           const std::vector<ExprPtr>& conds)
{
    ScheduleStats::count_rewrite("specialize");
    require(!conds.empty(), "specialize: need at least one condition");
    Cursor c = p->forward(stmt);
    require(c.is_valid(), "specialize: cursor invalidated");
    int lo = 0;
    int hi = 0;
    ListAddr addr{};
    if (c.kind() == CursorKind::Node) {
        addr = list_addr_of(c.loc().path, &lo);
        hi = lo + 1;
    } else if (c.kind() == CursorKind::Block) {
        addr = list_addr_of(c.loc().path, &lo);
        hi = c.loc().hi;
    } else {
        throw SchedulingError("specialize: expected a stmt/block cursor");
    }
    for (const auto& cond : conds) {
        require(cond && cond->type() == ScalarType::Bool,
                "specialize: conditions must be boolean predicates");
        require_evaluable_at(p, c.loc().path, cond, "specialize");
    }
    // The branch bodies open a new scope: allocations in the wrapped
    // range must not be referenced after it.
    require_binders_do_not_escape(p, addr, lo, hi, "specialize");
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> block(list.begin() + lo, list.begin() + hi);
    // Build the chain inside-out.
    std::vector<StmtPtr> chain = block;  // final else: original code
    for (size_t i = conds.size(); i-- > 0;) {
        StmtPtr iff = Stmt::make_if(conds[i], block, chain);
        chain = {iff};
    }
    // Forwarding: the exact block maps to the outermost if; inner paths
    // relocate into the first specialized copy (then-branch chain head).
    Path first_copy = addr.parent;
    first_copy.push_back({addr.label, lo});
    first_copy.push_back({PathLabel::Body, 0});
    // The then-branch of the outermost if holds `block` directly.
    ListAddr new_list;
    new_list.parent = addr.parent;
    new_list.parent.push_back({addr.label, lo});
    new_list.label = PathLabel::Body;
    // Compose: relocate [lo,hi) region paths into the then-branch, then
    // shift siblings.
    ForwardFn shift = fwd_replace_range(addr, lo, hi, 1);
    ListAddr old_addr = addr;
    ForwardFn fwd = [old_addr, lo, hi, new_list,
                     shift](const CursorLoc& l) -> std::optional<CursorLoc> {
        size_t d = old_addr.parent.size();
        bool through = l.path.size() > d &&
                       l.path[d].label == old_addr.label;
        for (size_t i = 0; i < d && through; i++) {
            if (!(l.path[i] == old_addr.parent[i]))
                through = false;
        }
        if (through) {
            int j = l.path[d].index;
            bool final_step = l.path.size() == d + 1;
            if (j >= lo && (j < hi || (final_step && j <= hi &&
                                       l.kind != CursorKind::Node))) {
                if (final_step && l.kind == CursorKind::Block &&
                    (j < lo || l.hi > hi)) {
                    return std::nullopt;
                }
                CursorLoc out = l;
                Path np = new_list.parent;
                np.push_back({new_list.label, j - lo});
                np.insert(np.end(),
                          l.path.begin() + static_cast<long>(d) + 1,
                          l.path.end());
                out.path = std::move(np);
                return out;
            }
        }
        return shift(l);
    };
    std::vector<StmtPtr> nl(list.begin(), list.begin() + lo);
    nl.insert(nl.end(), chain.begin(), chain.end());
    nl.insert(nl.end(), list.begin() + hi, list.end());
    return p->with_body(rebuild_list(p, addr, std::move(nl)), fwd,
                        "specialize");
}

ProcPtr
fuse(const ProcPtr& p, const Cursor& scope1, const Cursor& scope2)
{
    ScheduleStats::count_rewrite("fuse");
    Cursor c1 = expect_stmt_cursor(p, scope1);
    Cursor c2 = expect_stmt_cursor(p, scope2);
    StmtPtr s1 = c1.stmt();
    StmtPtr s2 = c2.stmt();
    int pos1 = 0;
    int pos2 = 0;
    ListAddr l1 = list_addr_of(c1.loc().path, &pos1);
    ListAddr l2 = list_addr_of(c2.loc().path, &pos2);
    require(l1.parent == l2.parent && l1.label == l2.label &&
                pos2 == pos1 + 1,
            "fuse: scopes must be adjacent");
    Context ctx = Context::at(p, c1.loc().path);

    StmtPtr fused;
    int len1 = static_cast<int>(s1->body().size());

    if (s1->kind() == StmtKind::For && s2->kind() == StmtKind::For) {
        require(ctx.prove_eq(s1->lo(), s2->lo()) &&
                    ctx.prove_eq(s1->hi(), s2->hi()),
                "fuse: loop bounds are not provably equal");
        // Renaming one loop's iterator to the other's must not be
        // captured by a binder of that name nested in the body.
        require(s1->iter() == s2->iter() ||
                    !block_binds_name(s1->body(), s2->iter()),
                "fuse: '" + s2->iter() +
                    "' is re-bound inside the first loop's body");
        require(s1->iter() == s2->iter() ||
                    !block_binds_name(s2->body(), s1->iter()),
                "fuse: '" + s1->iter() +
                    "' is re-bound inside the second loop's body");
        std::string captured = captured_name(s1->body(), s2->body());
        require(captured.empty(), "fuse: the first body's '" + captured +
                                      "' would capture the second's use "
                                      "of the outer '" + captured + "'");
        std::vector<StmtPtr> b2 =
            block_subst(s2->body(), s2->iter(), var(s1->iter()));
        // Pure-recomputation acceptance: buffers written in s1 only by
        // Assigns whose inputs are never written in either loop, and
        // whose per-iteration writes cover s2's per-iteration reads.
        auto recompute_producer_ok = [&](const std::string& buf) {
            std::function<bool(const StmtPtr&)> pure =
                [&](const StmtPtr& st) {
                    if ((st->kind() == StmtKind::Assign ||
                         st->kind() == StmtKind::Reduce) &&
                        st->name() == buf) {
                        if (st->kind() != StmtKind::Assign)
                            return false;
                        std::vector<std::string> reads;
                        expr_collect_reads(st->rhs(), &reads);
                        for (const auto& r : reads) {
                            if (stmt_writes(s1, r) || stmt_writes(s2, r))
                                return false;
                        }
                    }
                    if (st->kind() == StmtKind::Call &&
                        stmt_writes(st, buf)) {
                        return false;
                    }
                    for (const auto& c : st->body()) {
                        if (!pure(c))
                            return false;
                    }
                    for (const auto& c : st->orelse()) {
                        if (!pure(c))
                            return false;
                    }
                    return true;
                };
            if (!pure(s1))
                return false;
            if (stmt_writes(s2, buf))
                return false;  // the consumer must only read it
            // Coverage: s1's writes (as a window in the iterator) must
            // contain s2's reads.
            try {
                auto w = inspect::infer_write_bounds(p, c1, buf);
                auto r = inspect::infer_read_bounds(p, c2, buf);
                for (auto& d : r) {
                    d.lo = expr_subst(d.lo, s2->iter(), var(s1->iter()));
                    d.hi = expr_subst(d.hi, s2->iter(), var(s1->iter()));
                }
                if (w.size() != r.size())
                    return false;
                Context::Scope in(ctx);
                ctx.enter_loop(s1->iter(), s1->lo(), s1->hi());
                for (size_t d = 0; d < w.size(); d++) {
                    if (!ctx.prove_le(w[d].lo, r[d].lo) ||
                        !ctx.prove_le(r[d].hi, w[d].hi)) {
                        return false;
                    }
                }
                return true;
            } catch (const SchedulingError&) {
                return false;
            }
        };
        // Safety: s1 at iteration i1 must commute with s2 at i2 < i1
        // (those are the pairs whose execution order flips).
        {
            std::map<std::string, bool> recompute_cache;
            auto a1 = collect_accesses_block(s1->body());
            auto a2 = collect_accesses_block(s2->body());
            std::string i1 = fresh_in(p, s1->iter() + "$a");
            std::string i2 = fresh_in(p, s2->iter() + "$b");
            for (const auto& a : a1) {
                for (const auto& b : a2) {
                    if (a.buf != b.buf)
                        continue;
                    if (a.kind == AccessKind::Read &&
                        b.kind == AccessKind::Read)
                        continue;
                    if (a.kind == AccessKind::Reduce &&
                        b.kind == AccessKind::Reduce)
                        continue;
                    bool conflict = true;
                    if (!a.whole_buffer && !b.whole_buffer &&
                        a.idx.size() == b.idx.size() && !a.idx.empty()) {
                        LinearSystem::Scope sys(ctx.system());
                        sys.add_pred(Expr::make_binop(
                            BinOpKind::Ge, var(i1), s1->lo()));
                        sys.add_pred(Expr::make_binop(
                            BinOpKind::Lt, var(i1), s1->hi()));
                        sys.add_pred(Expr::make_binop(
                            BinOpKind::Ge, var(i2), s2->lo()));
                        sys.add_pred(Expr::make_binop(
                            BinOpKind::Lt, var(i2), var(i1)));
                        for (const auto& bd : a.binders) {
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Ge, var(bd.name),
                                expr_subst(bd.lo, s1->iter(), var(i1))));
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Lt, var(bd.name),
                                expr_subst(bd.hi, s1->iter(), var(i1))));
                        }
                        for (const auto& bd : b.binders) {
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Ge, var(bd.name),
                                expr_subst(bd.lo, s2->iter(), var(i2))));
                            sys.add_pred(Expr::make_binop(
                                BinOpKind::Lt, var(bd.name),
                                expr_subst(bd.hi, s2->iter(), var(i2))));
                        }
                        for (const auto& g : a.guards)
                            sys.add_pred(
                                expr_subst(g, s1->iter(), var(i1)));
                        for (const auto& g : b.guards)
                            sys.add_pred(
                                expr_subst(g, s2->iter(), var(i2)));
                        for (size_t d = 0; d < a.idx.size(); d++) {
                            sys.add_eq0(affine_sub(
                                to_affine(expr_subst(a.idx[d], s1->iter(),
                                                     var(i1))),
                                to_affine(expr_subst(b.idx[d], s2->iter(),
                                                     var(i2)))));
                        }
                        conflict = !ctx.system().infeasible();
                    }
                    if (conflict) {
                        auto it = recompute_cache.find(a.buf);
                        if (it == recompute_cache.end()) {
                            it = recompute_cache
                                     .emplace(a.buf,
                                              recompute_producer_ok(a.buf))
                                     .first;
                        }
                        if (it->second)
                            conflict = false;
                    }
                    require(!conflict,
                            "fuse: iterations do not commute on '" + a.buf +
                                "'");
                }
            }
        }
        // The fused loop adopts the *second* loop's iterator name so
        // nominal references to the consumer nest stay valid (Halide's
        // compute_at keeps the consumer loop names, Section 6.3.2).
        std::vector<StmtPtr> body =
            block_subst(s1->body(), s1->iter(), var(s2->iter()));
        b2 = s2->body();
        body.insert(body.end(), b2.begin(), b2.end());
        fused = Stmt::make_for(s2->iter(), s1->lo(), s1->hi(),
                               std::move(body), s1->loop_mode());
    } else if (s1->kind() == StmtKind::If && s2->kind() == StmtKind::If) {
        require(s1->cond() == s2->cond(),
                "fuse: if conditions must be identical");
        // The first if's branches must not change the condition's value.
        std::vector<std::string> cond_reads;
        expr_collect_reads(s1->cond(), &cond_reads);
        for (const auto& name : cond_reads) {
            require(!stmt_writes(s1, name),
                    "fuse: first scope writes '" + name +
                        "' read by the condition");
        }
        std::string captured = captured_name(s1->body(), s2->body());
        if (captured.empty())
            captured = captured_name(s1->orelse(), s2->orelse());
        require(captured.empty(), "fuse: the first branch's '" + captured +
                                      "' would capture the second's use "
                                      "of the outer '" + captured + "'");
        std::vector<StmtPtr> body = s1->body();
        body.insert(body.end(), s2->body().begin(), s2->body().end());
        std::vector<StmtPtr> orelse = s1->orelse();
        orelse.insert(orelse.end(), s2->orelse().begin(),
                      s2->orelse().end());
        fused = s1->with_body(std::move(body))->with_orelse(
            std::move(orelse));
    } else {
        throw SchedulingError("fuse: scopes must be two Fors or two Ifs");
    }

    // Forwarding: s1 body keeps indices; s2 body index j -> len1 + j
    // (both now under the fused stmt at pos1); following stmts shift -1.
    ForwardFn shift = fwd_replace_range(l1, pos1, pos1 + 2, 1);
    Path fused_path = c1.loc().path;
    ListAddr new_body{fused_path, PathLabel::Body};
    ListAddr old_b2{c2.loc().path, PathLabel::Body};
    ForwardFn move_b2 = [old_b2, new_body, len1,
                         shift](const CursorLoc& l)
        -> std::optional<CursorLoc> {
        size_t d = old_b2.parent.size();
        bool through =
            l.path.size() > d && l.path[d].label == old_b2.label;
        for (size_t i = 0; i < d && through; i++) {
            if (!(l.path[i] == old_b2.parent[i]))
                through = false;
        }
        if (through) {
            CursorLoc out = l;
            Path np = new_body.parent;
            np.push_back({new_body.label, l.path[d].index + len1});
            np.insert(np.end(), l.path.begin() + static_cast<long>(d) + 1,
                      l.path.end());
            out.path = std::move(np);
            return out;
        }
        return shift(l);
    };
    // s1 body: the fused stmt sits at pos1 where s1 was; inner paths
    // unchanged -> fall through move_b2 to shift, which maps the region
    // [pos1, pos1+2) ... but s1-body paths go through index pos1 which is
    // *inside* the replaced range. Handle them first.
    ListAddr old_b1{c1.loc().path, PathLabel::Body};
    ForwardFn fwd = fwd_relocate_list(old_b1, new_body, move_b2);

    const auto& list = stmt_list_at(p, l1);
    std::vector<StmtPtr> nl(list.begin(), list.begin() + pos1);
    nl.push_back(fused);
    nl.insert(nl.end(), list.begin() + pos2 + 1, list.end());
    return p->with_body(rebuild_list(p, l1, std::move(nl)), fwd, "fuse");
}

namespace {

/** Is `child_path` the sole statement of its parent's body? */
void
require_sole_child(const StmtPtr& parent, const std::string& who)
{
    require(parent->body().size() == 1,
            who + ": scope must be the only statement in its parent body");
}

}  // namespace

ProcPtr
lift_scope(const ProcPtr& p, const Cursor& scope)
{
    ScheduleStats::count_rewrite("lift_scope");
    Cursor sc = expect_stmt_cursor(p, scope);
    StmtPtr inner = sc.stmt();
    require(inner->kind() == StmtKind::For || inner->kind() == StmtKind::If,
            "lift_scope: scope must be a For or If");
    Cursor par = sc.parent();
    StmtPtr outer = par.stmt();
    require(outer->kind() == StmtKind::For || outer->kind() == StmtKind::If,
            "lift_scope: parent must be a For or If");
    int pos = 0;
    ListAddr in_list = list_addr_of(sc.loc().path, &pos);
    require(in_list.label == PathLabel::Body && pos == 0,
            "lift_scope: scope must be in its parent's body");
    require_sole_child(outer, "lift_scope");
    Path outer_path = par.loc().path;

    if (outer->kind() == StmtKind::For && inner->kind() == StmtKind::For)
        return reorder_loops(p, par);

    if (outer->kind() == StmtKind::For && inner->kind() == StmtKind::If) {
        // for i: if e: s [else: s2]  ->  if e: for i: s [else: for i: s2]
        require(!expr_uses(inner->cond(), outer->iter()),
                "lift_scope: condition depends on the loop iterator");
        // The original re-evaluates the condition every iteration; the
        // lifted form evaluates it once. If an iteration can change the
        // condition's value, the programs differ.
        {
            std::vector<std::string> cond_reads;
            expr_collect_reads(inner->cond(), &cond_reads);
            for (const auto& nm : cond_reads) {
                require(!stmt_writes(inner, nm),
                        "lift_scope: loop body writes '" + nm +
                            "' read by the condition");
            }
        }
        StmtPtr then_loop = outer->with_body(inner->body());
        std::vector<StmtPtr> new_orelse;
        if (!inner->orelse().empty())
            new_orelse = {outer->with_body(inner->orelse())};
        StmtPtr new_if =
            Stmt::make_if(inner->cond(), {then_loop}, new_orelse);
        // Old then-body: outer_path.body[0].body[j] -> new:
        // outer_path.body[0].body[j] (if->for). Same spine! Orelse:
        // outer_path.body[0].orelse[j] -> outer_path.orelse[0].body[j].
        Path old_or = sc.loc().path;
        ListAddr old_orelse{old_or, PathLabel::Orelse};
        Path new_or_loop = outer_path;
        new_or_loop.push_back({PathLabel::Orelse, 0});
        ListAddr new_orelse_body{new_or_loop, PathLabel::Body};
        ForwardFn fwd = fwd_relocate_list(old_orelse, new_orelse_body,
                                          fwd_identity());
        return p->with_body(rebuild_node(p, outer_path, NodeRef(new_if)),
                            fwd, "lift_scope");
    }

    if (outer->kind() == StmtKind::If && inner->kind() == StmtKind::For) {
        // if e: for i: s  ->  for i: if e: s   (outer must have no else)
        require(outer->orelse().empty(),
                "lift_scope: outer if cannot have an else clause");
        // The lifted form re-evaluates the condition every iteration;
        // if the body can change its value, later iterations would be
        // guarded differently than the original single evaluation.
        {
            std::vector<std::string> cond_reads;
            expr_collect_reads(outer->cond(), &cond_reads);
            for (const auto& nm : cond_reads) {
                require(!stmt_writes(inner, nm),
                        "lift_scope: loop body writes '" + nm +
                            "' read by the condition");
            }
        }
        StmtPtr new_if = Stmt::make_if(outer->cond(), inner->body());
        StmtPtr new_for = inner->with_body({new_if});
        // Old body: outer_path.body[0].body[j] ->
        // outer_path.body[0].body[j]. Same spine.
        return p->with_body(rebuild_node(p, outer_path, NodeRef(new_for)),
                            fwd_identity(), "lift_scope");
    }

    // If-in-If (Appendix A.3, first row).
    StmtPtr s3_src = nullptr;  // outer else
    std::vector<StmtPtr> s3 = outer->orelse();
    (void)s3_src;
    std::vector<StmtPtr> s = inner->body();
    std::vector<StmtPtr> s2 = inner->orelse();
    // new: if e2: (if e: s else: s3) else: (if e: s2 else: s3)
    StmtPtr then_if = Stmt::make_if(outer->cond(), s, s3);
    std::vector<StmtPtr> new_orelse;
    if (!s2.empty() || !s3.empty())
        new_orelse = {Stmt::make_if(outer->cond(), s2, s3)};
    StmtPtr new_if = Stmt::make_if(inner->cond(), {then_if}, new_orelse);
    // s: outer.body[0].body[j] -> outer.body[0].body[j] (same spine).
    // s2: outer.body[0].orelse[j] -> outer.orelse[0].body[j].
    // s3: outer.orelse[j] -> outer.body[0].orelse[j] (first copy).
    Path inner_path = sc.loc().path;
    ListAddr old_s2{inner_path, PathLabel::Orelse};
    Path new_or_if = outer_path;
    new_or_if.push_back({PathLabel::Orelse, 0});
    ListAddr new_s2{new_or_if, PathLabel::Body};
    ListAddr old_s3{outer_path, PathLabel::Orelse};
    Path new_then_if = outer_path;
    new_then_if.push_back({PathLabel::Body, 0});
    ListAddr new_s3{new_then_if, PathLabel::Orelse};
    ForwardFn fwd = fwd_relocate_list(
        old_s2, new_s2, fwd_relocate_list(old_s3, new_s3, fwd_identity()));
    return p->with_body(rebuild_node(p, outer_path, NodeRef(new_if)), fwd,
                        "lift_scope");
}

ProcPtr
lift_scope(const ProcPtr& p, const std::string& loop_name)
{
    return lift_scope(p, p->find_loop(loop_name));
}

}  // namespace exo2
