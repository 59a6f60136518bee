#include "src/primitives/buffers.h"

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/primitives/simplify.h"

namespace exo2 {

namespace {

/** Forward + check that the cursor denotes an Alloc statement. */
Cursor
expect_alloc_cursor(const ProcPtr& p, const Cursor& c)
{
    Cursor f = expect_stmt_cursor(p, c);
    require(f.stmt()->kind() == StmtKind::Alloc,
            "expected an allocation cursor");
    return f;
}

/** Any statement in the list suffix after `pos` touching `name`? */
bool
used_after(const std::vector<StmtPtr>& list, int pos,
           const std::string& name)
{
    for (size_t i = static_cast<size_t>(pos) + 1; i < list.size(); i++) {
        if (stmt_uses(list[i], name))
            return true;
    }
    return false;
}

}  // namespace

ProcPtr
lift_alloc(const ProcPtr& p, const Cursor& alloc, int n_lifts)
{
    ProcPtr cur = p;
    Cursor ac = expect_alloc_cursor(cur, alloc);
    for (int k = 0; k < n_lifts; k++) {
        ScheduleStats::count_rewrite("lift_alloc");
        ac = expect_alloc_cursor(cur, ac);
        StmtPtr s = ac.stmt();
        int pos = 0;
        ListAddr addr = list_addr_of(ac.loc().path, &pos);
        require(!addr.parent.empty(),
                "lift_alloc: allocation is already at the top level");
        StmtPtr parent = stmt_at(cur, addr.parent);
        if (parent->kind() == StmtKind::For) {
            for (const auto& d : s->dims()) {
                require(!expr_uses(d, parent->iter()),
                        "lift_alloc: dimension depends on loop iterator");
            }
        }
        int ppos = 0;
        ListAddr paddr = list_addr_of(addr.parent, &ppos);
        // Anti-capture: lifting grows the alloc's scope to the whole
        // parent statement and the parent's later siblings. Any
        // pre-existing reference to the name there binds to a different
        // declaration and would be captured by the lifted alloc.
        {
            const auto& list = stmt_list_at(cur, addr);
            for (int i = 0; i < pos; i++) {
                require(!stmt_uses(list[i], s->name()),
                        "lift_alloc: '" + s->name() +
                            "' is referenced (or re-declared) before the "
                            "allocation; lifting would capture it");
            }
            require(!(parent->cond() && expr_uses(parent->cond(),
                                                  s->name())) &&
                        !(parent->lo() && expr_uses(parent->lo(),
                                                    s->name())) &&
                        !(parent->hi() && expr_uses(parent->hi(),
                                                    s->name())),
                    "lift_alloc: parent header references '" + s->name() +
                        "'");
            const auto& other = addr.label == PathLabel::Body
                                    ? parent->orelse()
                                    : parent->body();
            require(!block_uses_unshadowed(other, s->name()),
                    "lift_alloc: '" + s->name() +
                        "' is used in the parent's other branch; "
                        "lifting would capture it");
            const auto& plist = stmt_list_at(cur, paddr);
            require(!block_uses_unshadowed(
                        std::vector<StmtPtr>(plist.begin() + ppos + 1,
                                             plist.end()),
                        s->name()),
                    "lift_alloc: '" + s->name() +
                        "' is used after the parent statement; "
                        "lifting would capture it");
        }
        ProcPtr next =
            apply_move(cur, addr, pos, pos + 1, paddr, ppos, "lift_alloc");
        ac = next->forward(ac);
        // Lifted out of a parallel loop (now right after it), the
        // buffer is shared by every iteration.
        Path parent_path = ac.loc().path;
        parent_path.back().index++;
        require_par_loop_independent(next, parent_path, "lift_alloc");
        cur = next;
    }
    return cur;
}

ProcPtr
sink_alloc(const ProcPtr& p, const Cursor& alloc)
{
    ScheduleStats::count_rewrite("sink_alloc");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    int pos = 0;
    ListAddr addr = list_addr_of(ac.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    require(pos + 1 < static_cast<int>(list.size()),
            "sink_alloc: nothing follows the allocation");
    StmtPtr target = list[static_cast<size_t>(pos) + 1];
    require(target->kind() == StmtKind::For ||
                target->kind() == StmtKind::If,
            "sink_alloc: next statement is not a For or If");
    require(!used_after(list, pos + 1, s->name()),
            "sink_alloc: buffer used outside the target scope");
    // The alloc lands at the start of the target's *then/body* block:
    // uses in the target's header expressions or its else branch would
    // be left outside the new scope (found by the tri-oracle after
    // specialize duplicated uses into both branches).
    require(!(target->cond() && expr_uses(target->cond(), s->name())) &&
                !(target->lo() && expr_uses(target->lo(), s->name())) &&
                !(target->hi() && expr_uses(target->hi(), s->name())),
            "sink_alloc: target header reads '" + s->name() + "'");
    require(!block_uses_unshadowed(target->orelse(), s->name()),
            "sink_alloc: '" + s->name() +
                "' is used in the target's else branch");
    // Destination: start of target body (post-deletion coords: target is
    // at `pos` after removing the alloc).
    Path tpath = addr.parent;
    tpath.push_back({addr.label, pos});
    ListAddr dst{tpath, PathLabel::Body};
    return apply_move(p, addr, pos, pos + 1, dst, 0, "sink_alloc");
}

ProcPtr
delete_buffer(const ProcPtr& p, const Cursor& alloc)
{
    ScheduleStats::count_rewrite("delete_buffer");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    int pos = 0;
    ListAddr addr = list_addr_of(ac.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    require(!used_after(list, pos, s->name()),
            "delete_buffer: buffer '" + s->name() + "' is not dead");
    return apply_erase(p, addr, pos, pos + 1, "delete_buffer");
}

ProcPtr
reuse_buffer(const ProcPtr& p, const Cursor& a_alloc, const Cursor& b_alloc)
{
    ScheduleStats::count_rewrite("reuse_buffer");
    Cursor ac = expect_alloc_cursor(p, a_alloc);
    Cursor bc = expect_alloc_cursor(p, b_alloc);
    StmtPtr sa = ac.stmt();
    StmtPtr sb = bc.stmt();
    require(sa->type() == sb->type(),
            "reuse_buffer: element types differ");
    require(sa->dims().size() == sb->dims().size(),
            "reuse_buffer: ranks differ");
    Context ctx = Context::at(p, bc.loc().path);
    for (size_t i = 0; i < sa->dims().size(); i++) {
        require(ctx.prove_eq(sa->dims()[i], sb->dims()[i]),
                "reuse_buffer: dimension sizes differ");
    }
    int bpos = 0;
    ListAddr baddr = list_addr_of(bc.loc().path, &bpos);
    const auto& list = stmt_list_at(p, baddr);
    // `a` must be dead after b's allocation (we are about to clobber it).
    require(!used_after(list, bpos, sa->name()),
            "reuse_buffer: '" + sa->name() + "' is still live");
    std::vector<StmtPtr> repl = rename_buffer_block(
        std::vector<StmtPtr>(list.begin() + bpos + 1, list.end()),
        sb->name(), sa->name());
    return apply_replace_range(p, baddr, bpos,
                               static_cast<int>(list.size()),
                               std::move(repl), "reuse_buffer");
}

namespace {

/**
 * Rewrite all accesses to the alloc'd buffer in its scope (the suffix
 * of its containing list) and replace the Alloc with `new_alloc`.
 * `allow_windows` guards primitives that cannot translate windows.
 */
ProcPtr
rewrite_alloc_and_scope(const ProcPtr& p, const Cursor& ac,
                        StmtPtr new_alloc, const PointRewriteFn& point_fn,
                        const WindowRewriteFn& window_fn,
                        const std::string& action)
{
    int pos = 0;
    ListAddr addr = list_addr_of(ac.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> nl(list.begin(), list.begin() + pos);
    nl.push_back(new_alloc);
    std::vector<StmtPtr> scope = rewrite_buffer_access_block(
        std::vector<StmtPtr>(list.begin() + pos + 1, list.end()),
        new_alloc->name(), point_fn, window_fn);
    nl.insert(nl.end(), scope.begin(), scope.end());
    // Shape is preserved for all statements (indices rewritten in
    // place): keep cursors stable.
    auto body = rebuild_list(p, addr, std::move(nl));
    return p->with_body(std::move(body), fwd_identity(), action);
}

}  // namespace

ProcPtr
resize_dim(const ProcPtr& p, const Cursor& alloc, int dim, const ExprPtr& sz,
           const ExprPtr& off)
{
    ScheduleStats::count_rewrite("resize_dim");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(dim >= 0 && dim < static_cast<int>(s->dims().size()),
            "resize_dim: dimension out of range");
    // Every access to this dim must stay within [off, off + sz).
    bool ok = true;
    std::string bad;
    visit_alloc_scope_accesses(
        p, ac.loc().path, s->name(),
        [&](const Context& ctx, const std::vector<ExprPtr>& idx) {
            if (static_cast<size_t>(dim) >= idx.size())
                return;
            const ExprPtr& e = idx[static_cast<size_t>(dim)];
            if (!ctx.prove_le(off, e) ||
                !ctx.prove_lt(e, off + sz)) {
                ok = false;
                bad = print_expr(e);
            }
        });
    require(ok, "resize_dim: access '" + bad +
                    "' not provably within the resized bounds");
    auto dims = s->dims();
    dims[static_cast<size_t>(dim)] = sz;
    StmtPtr new_alloc = s->with_dims(std::move(dims));
    bool shift = !affine_is_zero(to_affine(off));
    PointRewriteFn point_fn = nullptr;
    WindowRewriteFn window_fn = nullptr;
    if (shift) {
        point_fn = [dim, off](const std::vector<ExprPtr>& idx) {
            auto out = idx;
            if (static_cast<size_t>(dim) < out.size()) {
                out[static_cast<size_t>(dim)] =
                    out[static_cast<size_t>(dim)] - off;
            }
            return out;
        };
        window_fn = [dim, off](const std::vector<WindowDim>& dims_in) {
            auto out = dims_in;
            if (static_cast<size_t>(dim) < out.size()) {
                out[static_cast<size_t>(dim)].lo =
                    out[static_cast<size_t>(dim)].lo - off;
                if (out[static_cast<size_t>(dim)].hi) {
                    out[static_cast<size_t>(dim)].hi =
                        out[static_cast<size_t>(dim)].hi - off;
                }
            }
            return out;
        };
    }
    return rewrite_alloc_and_scope(p, ac, new_alloc, point_fn, window_fn,
                                   "resize_dim");
}

ProcPtr
expand_dim(const ProcPtr& p, const Cursor& alloc, const ExprPtr& sz,
           const ExprPtr& idx)
{
    ScheduleStats::count_rewrite("expand_dim");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    bool ok = true;
    visit_alloc_scope_accesses(
        p, ac.loc().path, s->name(),
        [&](const Context& ctx, const std::vector<ExprPtr>& unused) {
            (void)unused;
            if (!ctx.prove_ge0(idx) || !ctx.prove_lt(idx, sz))
                ok = false;
        });
    require(ok,
            "expand_dim: cannot prove 0 <= " + print_expr(idx) + " < " +
                print_expr(sz) + " at every access");
    Context actx = Context::at(p, ac.loc().path);
    require(actx.prove_ge0(sz - idx_const(1)),
            "expand_dim: size must be positive");
    std::vector<ExprPtr> dims;
    dims.push_back(sz);
    for (const auto& d : s->dims())
        dims.push_back(d);
    StmtPtr new_alloc = s->with_dims(std::move(dims));
    PointRewriteFn point_fn = [idx](const std::vector<ExprPtr>& old) {
        std::vector<ExprPtr> out;
        out.push_back(idx);
        out.insert(out.end(), old.begin(), old.end());
        return out;
    };
    WindowRewriteFn window_fn = [idx](const std::vector<WindowDim>& old) {
        std::vector<WindowDim> out;
        out.push_back(WindowDim{idx, nullptr});
        out.insert(out.end(), old.begin(), old.end());
        return out;
    };
    return rewrite_alloc_and_scope(p, ac, new_alloc, point_fn, window_fn,
                                   "expand_dim");
}

ProcPtr
rearrange_dim(const ProcPtr& p, const Cursor& alloc,
              const std::vector<int>& perm)
{
    ScheduleStats::count_rewrite("rearrange_dim");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    size_t n = s->dims().size();
    require(perm.size() == n, "rearrange_dim: permutation arity mismatch");
    std::vector<bool> seen(n, false);
    for (int x : perm) {
        require(x >= 0 && static_cast<size_t>(x) < n && !seen[x],
                "rearrange_dim: invalid permutation");
        seen[static_cast<size_t>(x)] = true;
    }
    std::vector<ExprPtr> dims;
    for (int x : perm)
        dims.push_back(s->dims()[static_cast<size_t>(x)]);
    StmtPtr new_alloc = s->with_dims(std::move(dims));
    PointRewriteFn point_fn = [perm, n](const std::vector<ExprPtr>& old) {
        if (old.size() != n)
            throw SchedulingError("rearrange_dim: partial access");
        std::vector<ExprPtr> out;
        for (int x : perm)
            out.push_back(old[static_cast<size_t>(x)]);
        return out;
    };
    WindowRewriteFn window_fn = [perm, n](const std::vector<WindowDim>& old) {
        if (old.size() != n)
            throw SchedulingError("rearrange_dim: partial window");
        std::vector<WindowDim> out;
        for (int x : perm)
            out.push_back(old[static_cast<size_t>(x)]);
        return out;
    };
    return rewrite_alloc_and_scope(p, ac, new_alloc, point_fn, window_fn,
                                   "rearrange_dim");
}

ProcPtr
divide_dim(const ProcPtr& p, const Cursor& alloc, int dim, int64_t c)
{
    ScheduleStats::count_rewrite("divide_dim");
    require(c >= 1, "divide_dim: factor must be >= 1");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(dim >= 0 && dim < static_cast<int>(s->dims().size()),
            "divide_dim: dimension out of range");
    Context ctx = Context::at(p, ac.loc().path);
    ExprPtr dsz = s->dims()[static_cast<size_t>(dim)];
    require(ctx.prove_divisible(dsz, c),
            "divide_dim: dimension size not divisible by " +
                std::to_string(c));
    std::vector<ExprPtr> dims;
    for (size_t i = 0; i < s->dims().size(); i++) {
        if (static_cast<int>(i) == dim) {
            dims.push_back(simplify_expr(ctx, s->dims()[i] / idx_const(c)));
            dims.push_back(idx_const(c));
        } else {
            dims.push_back(s->dims()[i]);
        }
    }
    StmtPtr new_alloc = s->with_dims(std::move(dims));
    PointRewriteFn point_fn = [dim, c](const std::vector<ExprPtr>& old) {
        std::vector<ExprPtr> out;
        for (size_t i = 0; i < old.size(); i++) {
            if (static_cast<int>(i) == dim) {
                out.push_back(old[i] / idx_const(c));
                out.push_back(old[i] % idx_const(c));
            } else {
                out.push_back(old[i]);
            }
        }
        return out;
    };
    WindowRewriteFn window_fn = [](const std::vector<WindowDim>&)
        -> std::vector<WindowDim> {
        throw SchedulingError(
            "divide_dim: buffer is already windowed; divide before "
            "introducing windows");
    };
    return rewrite_alloc_and_scope(p, ac, new_alloc, point_fn, window_fn,
                                   "divide_dim");
}

ProcPtr
mult_dim(const ProcPtr& p, const Cursor& alloc, int dim)
{
    ScheduleStats::count_rewrite("mult_dim");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(dim >= 0 && dim + 1 < static_cast<int>(s->dims().size()),
            "mult_dim: need two adjacent dimensions");
    Affine c = to_affine(s->dims()[static_cast<size_t>(dim) + 1]);
    require(c.is_const() && c.constant >= 1,
            "mult_dim: second dimension must be a positive constant");
    int64_t cc = c.constant;
    std::vector<ExprPtr> dims;
    for (size_t i = 0; i < s->dims().size(); i++) {
        if (static_cast<int>(i) == dim) {
            dims.push_back(s->dims()[i] * idx_const(cc));
        } else if (static_cast<int>(i) == dim + 1) {
            continue;
        } else {
            dims.push_back(s->dims()[i]);
        }
    }
    StmtPtr new_alloc = s->with_dims(std::move(dims));
    PointRewriteFn point_fn = [dim, cc](const std::vector<ExprPtr>& old) {
        std::vector<ExprPtr> out;
        for (size_t i = 0; i < old.size(); i++) {
            if (static_cast<int>(i) == dim) {
                out.push_back(old[i] * idx_const(cc) + old[i + 1]);
                i++;  // skip merged dim
            } else {
                out.push_back(old[i]);
            }
        }
        return out;
    };
    WindowRewriteFn window_fn = [](const std::vector<WindowDim>&)
        -> std::vector<WindowDim> {
        throw SchedulingError("mult_dim: windowed buffers not supported");
    };
    return rewrite_alloc_and_scope(p, ac, new_alloc, point_fn, window_fn,
                                   "mult_dim");
}

namespace {

/** Which of the `n` split buffers the constant point `e` selects. */
size_t
split_index(const ExprPtr& e, size_t n, const std::string& why)
{
    Affine a = to_affine(e);
    require(a.is_const() && a.constant >= 0 &&
                a.constant < static_cast<int64_t>(n),
            why);
    return static_cast<size_t>(a.constant);
}

/**
 * Rewrite `name[k, rest...] -> name_k[rest...]` throughout an expr, for
 * reads and windows whose dimension 0 is a constant point; refuse every
 * other reference to `name`, which no split buffer could stand for.
 */
ExprPtr
split_buffer_expr(const ExprPtr& e, const std::string& name,
                  const std::vector<std::string>& names)
{
    auto rw = [&](const ExprPtr& k) {
        return split_buffer_expr(k, name, names);
    };
    if (e->kind() == ExprKind::Read && e->name() == name) {
        require(!e->idx().empty(),
                "unroll_buffer: whole-buffer reference to '" + name + "'");
        size_t k = split_index(
            e->idx()[0], names.size(),
            "unroll_buffer: non-constant index in dimension 0");
        std::vector<ExprPtr> rest;
        for (size_t i = 1; i < e->idx().size(); i++)
            rest.push_back(rw(e->idx()[i]));
        return Expr::make_read(names[k], std::move(rest), e->type());
    }
    if (e->kind() == ExprKind::Window && e->name() == name) {
        const std::vector<WindowDim>& dims = e->window_dims();
        require(dims[0].is_point(),
                "unroll_buffer: window spans dimension 0 of '" + name + "'");
        size_t k = split_index(
            dims[0].lo, names.size(),
            "unroll_buffer: non-constant window point in dimension 0");
        std::vector<WindowDim> rest;
        for (size_t i = 1; i < dims.size(); i++) {
            rest.push_back(WindowDim{rw(dims[i].lo),
                                     dims[i].hi ? rw(dims[i].hi) : nullptr});
        }
        return Expr::make_window(names[k], std::move(rest), e->type());
    }
    require(!(e->kind() == ExprKind::Stride && e->name() == name),
            "unroll_buffer: stride of '" + name + "'");
    return map_children(e, rw);
}

/** The one-statement part of unroll_buffer's rewrite. */
StmtPtr
split_buffer_here(const StmtPtr& s, const std::string& name,
                  const std::vector<std::string>& names)
{
    auto rw = [&](const ExprPtr& e) {
        return split_buffer_expr(e, name, names);
    };
    if (!(s->is_write() && s->name() == name))
        return map_exprs(s, rw);
    std::vector<ExprPtr> idx;
    for (const auto& i : s->idx())
        idx.push_back(rw(i));
    require(!idx.empty(), "unroll_buffer: scalar access");
    size_t k = split_index(idx[0], names.size(),
                           "unroll_buffer: non-constant write index");
    return s->with_name(names[k])
        ->with_idx(std::vector<ExprPtr>(idx.begin() + 1, idx.end()))
        ->with_rhs(rw(s->rhs()));
}

}  // namespace

ProcPtr
unroll_buffer(const ProcPtr& p, const Cursor& alloc, int dim)
{
    ScheduleStats::count_rewrite("unroll_buffer");
    Cursor ac = expect_alloc_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(dim == 0, "unroll_buffer: only dimension 0 is supported");
    require(!s->dims().empty(), "unroll_buffer: scalar buffer");
    Affine c = to_affine(s->dims()[0]);
    require(c.is_const() && c.constant >= 1 && c.constant <= 64,
            "unroll_buffer: dimension must be a small constant");
    int64_t n = c.constant;
    std::vector<ExprPtr> rest(s->dims().begin() + 1, s->dims().end());
    int pos = 0;
    ListAddr addr = list_addr_of(ac.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    std::vector<std::string> names;
    std::vector<StmtPtr> repl;
    for (int64_t k = 0; k < n; k++) {
        std::string nm = s->name() + "_" + std::to_string(k);
        ensure_unused(p, nm);
        names.push_back(nm);
        repl.push_back(Stmt::make_alloc(nm, s->type(), rest, s->mem()));
    }
    std::vector<StmtPtr> scope = map_block_in_scope(
        std::vector<StmtPtr>(list.begin() + pos + 1, list.end()), s->name(),
        [&](const StmtPtr& st) {
            return split_buffer_here(st, s->name(), names);
        });
    repl.insert(repl.end(), scope.begin(), scope.end());
    return apply_replace_range(p, addr, pos, static_cast<int>(list.size()),
                               std::move(repl), "unroll_buffer");
}

ProcPtr
bind_expr(const ProcPtr& p, const Cursor& e, const std::string& new_name,
          bool cse)
{
    ScheduleStats::count_rewrite("bind_expr");
    Cursor ec = p->forward(e);
    require(ec.is_valid() && ec.kind() == CursorKind::Node,
            "bind_expr: expected an expression cursor");
    ExprPtr expr = ec.expr();
    require(is_numeric(expr->type()),
            "bind_expr: can only bind numeric expressions");
    ensure_unused(p, new_name);
    // Find the enclosing statement: longest prefix ending in a
    // stmt-list step.
    Path path = ec.loc().path;
    size_t stmt_depth = 0;
    for (size_t i = path.size(); i-- > 0;) {
        if (is_stmt_list_label(path[i].label)) {
            stmt_depth = i;
            break;
        }
    }
    Path stmt_path(path.begin(), path.begin() + stmt_depth + 1);
    int pos = 0;
    ListAddr addr = list_addr_of(stmt_path, &pos);

    StmtPtr alloc_stmt =
        Stmt::make_alloc(new_name, expr->type(), {}, mem_dram());
    StmtPtr assign_stmt =
        Stmt::make_assign(new_name, {}, expr, expr->type());
    // Batched: the alloc/assign insertion and the use rewrite commit as
    // a single version with one composed forwarding entry.
    EditBatch batch(p);
    batch.insert(addr, pos, {alloc_stmt, assign_stmt});
    ExprPtr replacement = Expr::make_read(new_name, {}, expr->type());
    if (!cse) {
        std::optional<CursorLoc> ec2 = batch.forward(ec.loc());
        require(ec2.has_value(), "bind_expr: expression lost");
        batch.replace_expr(ec2->path, replacement);
        return batch.commit("bind_expr");
    }
    // CSE: replace every structurally-equal occurrence in the enclosing
    // statement, header and body. The bound value is read once, before
    // the statement: a single write reads all its operands before it
    // writes, but a For or If that writes or binds a name the
    // expression reads would see a stale value after that write.
    std::optional<CursorLoc> sloc2 =
        batch.forward(CursorLoc{CursorKind::Node, stmt_path, -1});
    require(sloc2.has_value(), "bind_expr: statement lost");
    StmtPtr target = stmt_at(batch.staged(), sloc2->path);
    if (target->kind() == StmtKind::For || target->kind() == StmtKind::If) {
        std::vector<std::string> reads;
        expr_collect_reads(expr, &reads);
        for (const auto& nm : reads) {
            require(!stmt_writes(target, nm) &&
                        !block_binds_name({target}, nm),
                    "bind_expr: the enclosing statement writes or binds '" +
                        nm + "', which the expression reads");
        }
    }
    std::function<ExprPtr(const ExprPtr&)> sub =
        [&](const ExprPtr& cur) -> ExprPtr {
        return cur == expr ? replacement : map_children(cur, sub);
    };
    StmtPtr new_target =
        map_in_scope(target, new_name, [&](const StmtPtr& st) {
            return map_exprs(st, sub);
        });
    batch.replace_stmt_same_shape(sloc2->path, new_target);
    return batch.commit("bind_expr(cse)");
}

StageMemResult
stage_mem(const ProcPtr& p, const Cursor& block, const std::string& buf,
          const std::vector<WindowDim>& window, const std::string& new_name)
{
    ScheduleStats::count_rewrite("stage_mem");
    ensure_unused(p, new_name);
    Cursor bc = p->forward(block);
    require(bc.is_valid(), "stage_mem: cursor invalidated");
    int blo = 0;
    int bhi = 0;
    ListAddr addr{};
    if (bc.kind() == CursorKind::Node) {
        addr = list_addr_of(bc.loc().path, &blo);
        bhi = blo + 1;
    } else if (bc.kind() == CursorKind::Block) {
        addr = list_addr_of(bc.loc().path, &blo);
        bhi = bc.loc().hi;
    } else {
        throw SchedulingError("stage_mem: expected a stmt/block cursor");
    }
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> body(list.begin() + blo, list.begin() + bhi);

    // Element type of the staged buffer.
    Binding staged = binding_at(p, bc.loc().path, buf);
    require(staged && !(staged.decl && staged.decl->kind() == StmtKind::For),
            "stage_mem: '" + buf + "' is not a buffer at the block");
    ScalarType elem = staged.arg ? staged.arg->type : staged.decl->type();

    // Interval dims become tmp dimensions.
    std::vector<ExprPtr> extents;
    for (size_t d = 0; d < window.size(); d++) {
        if (!window[d].is_point())
            extents.push_back(window[d].hi - window[d].lo);
    }

    // Safety: all accesses to `buf` in the block lie inside the window.
    {
        bool ok = true;
        std::string bad;
        Context base = Context::at(p, bc.loc().path);
        auto chk = [&](const Context& ctx,
                       const std::vector<ExprPtr>& idx) {
            if (idx.size() != window.size()) {
                ok = false;
                return;
            }
            for (size_t d = 0; d < window.size(); d++) {
                if (window[d].is_point()) {
                    if (!ctx.prove_eq(idx[d], window[d].lo)) {
                        ok = false;
                        bad = print_expr(idx[d]);
                    }
                } else {
                    if (!ctx.prove_le(window[d].lo, idx[d]) ||
                        !ctx.prove_lt(idx[d], window[d].hi)) {
                        ok = false;
                        bad = print_expr(idx[d]);
                    }
                }
            }
        };
        visit_buffer_accesses(base, body, buf, chk);
        require(ok, "stage_mem: access '" + bad +
                        "' escapes the staged window of '" + buf + "'");
    }

    bool writes = false;
    bool reads = false;
    for (const auto& st : body) {
        if (stmt_writes(st, buf))
            writes = true;
        if (stmt_reads(st, buf))
            reads = true;
    }

    // Build the staged code.
    StmtPtr alloc_stmt =
        Stmt::make_alloc(new_name, elem, extents, mem_dram());

    // Copy loops: for k0 < e0: ... tmp[k...] = buf[lo + k...]
    auto make_copy = [&](bool load) -> StmtPtr {
        std::vector<std::string> iters;
        for (size_t k = 0; k < extents.size(); k++)
            iters.push_back(fresh_in(p, "i" + std::to_string(k)));
        std::vector<ExprPtr> buf_idx;
        std::vector<ExprPtr> tmp_idx;
        size_t k = 0;
        for (size_t d = 0; d < window.size(); d++) {
            if (window[d].is_point()) {
                buf_idx.push_back(window[d].lo);
            } else {
                buf_idx.push_back(window[d].lo + var(iters[k]));
                tmp_idx.push_back(var(iters[k]));
                k++;
            }
        }
        StmtPtr inner;
        if (load) {
            inner = Stmt::make_assign(
                new_name, tmp_idx,
                Expr::make_read(buf, buf_idx, elem), elem);
        } else {
            inner = Stmt::make_assign(
                buf, buf_idx,
                Expr::make_read(new_name, tmp_idx, elem), elem);
        }
        for (size_t d = extents.size(); d-- > 0;) {
            inner = Stmt::make_for(iters[d], idx_const(0), extents[d],
                                   {inner});
        }
        return inner;
    };

    // Rewrite accesses in the block: buf[idx] -> tmp[idx_i - lo_i] for
    // interval dims (point dims dropped).
    std::vector<WindowDim> win = window;
    PointRewriteFn point_fn = [win](const std::vector<ExprPtr>& old) {
        std::vector<ExprPtr> out;
        for (size_t d = 0; d < win.size() && d < old.size(); d++) {
            if (win[d].is_point())
                continue;
            Affine lo = to_affine(win[d].lo);
            if (affine_is_zero(lo))
                out.push_back(old[d]);
            else
                out.push_back(old[d] - win[d].lo);
        }
        return out;
    };
    WindowRewriteFn window_fn = [win](const std::vector<WindowDim>& old) {
        std::vector<WindowDim> out;
        for (size_t d = 0; d < win.size() && d < old.size(); d++) {
            if (win[d].is_point())
                continue;
            WindowDim nd;
            nd.lo = old[d].lo - win[d].lo;
            if (old[d].hi)
                nd.hi = old[d].hi - win[d].lo;
            out.push_back(nd);
        }
        return out;
    };
    std::vector<StmtPtr> new_body = rename_buffer_block(
        rewrite_buffer_access_block(body, buf, point_fn, window_fn), buf,
        new_name);

    std::vector<StmtPtr> repl;
    repl.push_back(alloc_stmt);
    int load_off = -1;
    if (reads) {
        load_off = static_cast<int>(repl.size());
        repl.push_back(make_copy(/*load=*/true));
    }
    int body_off = static_cast<int>(repl.size());
    repl.insert(repl.end(), new_body.begin(), new_body.end());
    int store_off = -1;
    if (writes) {
        store_off = static_cast<int>(repl.size());
        repl.push_back(make_copy(/*load=*/false));
    }

    // Forwarding: block stmts shift by body_off; inner structure kept.
    int added = static_cast<int>(repl.size()) - (bhi - blo);
    ListAddr old_addr = addr;
    ForwardFn fwd = [old_addr, blo, bhi, body_off,
                     added](const CursorLoc& l) -> std::optional<CursorLoc> {
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
        bool final_step = l.path.size() == d + 1;
        if (final_step && l.kind == CursorKind::Block) {
            if (l.hi <= blo)
                return out;
            if (j >= bhi) {
                out.path[d].index = j + added;
                out.hi = l.hi + added;
                return out;
            }
            if (j >= blo && l.hi <= bhi) {
                out.path[d].index = j + body_off;
                out.hi = l.hi + body_off;
                return out;
            }
            return std::nullopt;
        }
        if (j < blo)
            return out;
        if (j >= bhi) {
            out.path[d].index = j + added;
            return out;
        }
        out.path[d].index = j + body_off;
        return out;
    };

    std::vector<StmtPtr> nl(list.begin(), list.begin() + blo);
    nl.insert(nl.end(), repl.begin(), repl.end());
    nl.insert(nl.end(), list.begin() + bhi, list.end());
    ProcPtr p2 =
        p->with_body(rebuild_list(p, addr, std::move(nl)), fwd, "stage_mem");

    StageMemResult res;
    res.p = p2;
    auto node_at_index = [&](int off) {
        Path np = addr.parent;
        np.push_back({addr.label, blo + off});
        return Cursor(p2, CursorLoc{CursorKind::Node, np, -1});
    };
    res.alloc = node_at_index(0);
    res.load = load_off >= 0 ? node_at_index(load_off) : Cursor();
    res.store = store_off >= 0 ? node_at_index(store_off) : Cursor();
    Path bp = addr.parent;
    bp.push_back({addr.label, blo + body_off});
    CursorLoc bl;
    bl.kind = CursorKind::Block;
    bl.path = bp;
    bl.hi = blo + body_off + (bhi - blo);
    res.block = Cursor(p2, bl);
    return res;
}

}  // namespace exo2
