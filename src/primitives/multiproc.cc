#include "src/primitives/multiproc.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"

namespace exo2 {

namespace {

// ---- Unification against instruction semantics bodies ------------------

/** Buffer-argument binding produced by unification. */
struct BufBinding
{
    std::string target;            ///< target buffer name
    std::vector<ExprPtr> prefix;   ///< leading point coordinates
    std::vector<ExprPtr> offsets;  ///< per-formal-dim window offsets
    ScalarType type = ScalarType::F32;
    bool bound = false;
};

struct Unifier
{
    const ProcPtr& instr;
    const ProcPtr& target_proc;
    Path site;  ///< the first matched statement
    std::map<std::string, ExprPtr> scalars;   ///< formal -> target expr
    std::map<std::string, BufBinding> buffers;
    std::map<std::string, std::string> iters; ///< formal -> target iter
    std::vector<std::string> target_iters;    ///< iters of matched loops

    Unifier(const ProcPtr& i, const ProcPtr& t, Path at)
        : instr(i), target_proc(t), site(std::move(at)) {}

    /** Memory kind of the target buffer `name` is bound to at the
     *  match (an instruction body declares nothing, so every buffer it
     *  matches is bound outside the matched statements). */
    MemoryKind target_mem_kind(const std::string& name) const
    {
        Binding b = binding_at(target_proc, site, name);
        MemoryPtr mem;
        if (b.arg)
            mem = b.arg->mem;
        else if (b.decl && b.decl->kind() == StmtKind::Alloc)
            mem = b.decl->mem();
        return mem ? mem->kind() : MemoryKind::Dram;
    }

    bool is_formal_scalar(const std::string& n) const
    {
        const ProcArg* a = instr->find_arg(n);
        return a && a->dims.empty();
    }

    bool is_formal_buffer(const std::string& n) const
    {
        const ProcArg* a = instr->find_arg(n);
        return a && !a->dims.empty();
    }

    bool iter_independent(const ExprPtr& e) const
    {
        for (const auto& it : target_iters) {
            if (expr_uses(e, it))
                return false;
        }
        return true;
    }

    /** Substitute bound scalars and iter mappings into a formal expr. */
    ExprPtr subst_formal(const ExprPtr& e) const
    {
        ExprPtr out = e;
        for (const auto& [name, repl] : scalars)
            out = expr_subst(out, name, repl);
        for (const auto& [fi, ti] : iters)
            out = expr_subst(out, fi, var(ti));
        return out;
    }

    bool unify_expr(const ExprPtr& f, const ExprPtr& t)
    {
        if (!f || !t)
            return f == t;
        // Scalar formal argument: bind to the whole target expression.
        if (f->kind() == ExprKind::Read && f->idx().empty() &&
            is_formal_scalar(f->name())) {
            if (!iter_independent(t))
                return false;
            auto it = scalars.find(f->name());
            if (it != scalars.end())
                return affine_equal(it->second, t) || it->second == t;
            scalars[f->name()] = t;
            return true;
        }
        // Buffer formal access.
        if (f->kind() == ExprKind::Read && !f->idx().empty() &&
            is_formal_buffer(f->name())) {
            if (t->kind() != ExprKind::Read || t->idx().empty())
                return false;
            return unify_buffer_access(f->name(), f->idx(), t->name(),
                                       t->idx(), t->type());
        }
        // Index-typed expressions: compare affine forms after
        // substitution (handles iterator renaming).
        if (f->type() == ScalarType::Index &&
            t->type() == ScalarType::Index) {
            ExprPtr fs = subst_formal(f);
            if (affine_equal(fs, t))
                return true;
            // Fall through to structural match for div/mod shapes.
        }
        // Mask-bound binding: formal `lhs < m` or `lhs >= l` (with an
        // unbound scalar bound) unifies with any same-operator target
        // by solving for the bound; the substituted formal is then
        // identically equivalent to the target.
        if (f->kind() == ExprKind::BinOp && t->kind() == ExprKind::BinOp &&
            (f->op() == BinOpKind::Lt || f->op() == BinOpKind::Ge) &&
            t->op() == f->op() &&
            f->rhs()->kind() == ExprKind::Read &&
            f->rhs()->idx().empty() &&
            is_formal_scalar(f->rhs()->name()) &&
            scalars.find(f->rhs()->name()) == scalars.end()) {
            ExprPtr solved = affine_to_expr(affine_add(
                affine_sub(to_affine(t->rhs()), to_affine(t->lhs())),
                to_affine(subst_formal(f->lhs()))));
            if (iter_independent(solved)) {
                scalars[f->rhs()->name()] = solved;
                return true;
            }
        }
        if (f->kind() != t->kind())
            return false;
        switch (f->kind()) {
          case ExprKind::Const:
            return f->const_value() == t->const_value();
          case ExprKind::Read: {
            if (f->idx().size() != t->idx().size())
                return false;
            std::string fname = f->name();
            auto fit = iters.find(fname);
            if (fit != iters.end())
                fname = fit->second;
            if (fname != t->name())
                return false;
            for (size_t i = 0; i < f->idx().size(); i++) {
                if (!unify_expr(f->idx()[i], t->idx()[i]))
                    return false;
            }
            return true;
          }
          case ExprKind::BinOp:
            return f->op() == t->op() &&
                   unify_expr(f->lhs(), t->lhs()) &&
                   unify_expr(f->rhs(), t->rhs());
          case ExprKind::USub:
            return unify_expr(f->lhs(), t->lhs());
          case ExprKind::Extern: {
            if (f->name() != t->name() ||
                f->idx().size() != t->idx().size()) {
                return false;
            }
            for (size_t i = 0; i < f->idx().size(); i++) {
                if (!unify_expr(f->idx()[i], t->idx()[i]))
                    return false;
            }
            return true;
          }
          case ExprKind::Stride:
            return f->name() == t->name() &&
                   f->stride_dim() == t->stride_dim();
          case ExprKind::ReadConfig:
            return f->name() == t->name() && f->field() == t->field();
          case ExprKind::Window:
            return false;  // windows inside instr bodies unsupported
        }
        return false;
    }

    bool unify_buffer_access(const std::string& formal,
                             const std::vector<ExprPtr>& fidx,
                             const std::string& target,
                             const std::vector<ExprPtr>& tidx,
                             ScalarType t_type)
    {
        size_t k = fidx.size();
        if (tidx.size() < k)
            return false;
        // Memory spaces must agree (loads and stores are otherwise
        // structurally identical).
        const ProcArg* farg = instr->find_arg(formal);
        MemoryKind fkind =
            farg && farg->mem ? farg->mem->kind() : MemoryKind::Dram;
        if (fkind != target_mem_kind(target))
            return false;
        // Element precisions must agree: binding an f64 buffer to an
        // f32 window formal type-puns the storage in generated C
        // (found by the tri-oracle on dsdot/sdsdot, whose f64
        // accumulator must not match the f32 reduce_add instruction).
        if (farg && farg->type != t_type)
            return false;
        size_t lead = tidx.size() - k;
        BufBinding cand;
        cand.target = target;
        cand.type = t_type;
        for (size_t d = 0; d < lead; d++) {
            if (!iter_independent(tidx[d]))
                return false;
            cand.prefix.push_back(tidx[d]);
        }
        for (size_t j = 0; j < k; j++) {
            ExprPtr fs = subst_formal(fidx[j]);
            ExprPtr off = affine_to_expr(
                affine_sub(to_affine(tidx[lead + j]), to_affine(fs)));
            if (!iter_independent(off))
                return false;
            cand.offsets.push_back(off);
        }
        auto it = buffers.find(formal);
        if (it == buffers.end() || !it->second.bound) {
            cand.bound = true;
            buffers[formal] = cand;
            return true;
        }
        const BufBinding& prev = it->second;
        if (prev.target != cand.target ||
            prev.prefix.size() != cand.prefix.size()) {
            return false;
        }
        for (size_t d = 0; d < cand.prefix.size(); d++) {
            if (!affine_equal(prev.prefix[d], cand.prefix[d]))
                return false;
        }
        for (size_t j = 0; j < k; j++) {
            if (!affine_equal(prev.offsets[j], cand.offsets[j]))
                return false;
        }
        return true;
    }

    bool unify_stmt(const StmtPtr& f, const StmtPtr& t)
    {
        if (f->kind() != t->kind())
            return false;
        switch (f->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            if (!unify_expr(f->rhs(), t->rhs()))
                return false;
            if (is_formal_buffer(f->name())) {
                if (t->kind() != f->kind())
                    return false;
                // t->type() is the written buffer's element type (the
                // rhs type is the value's, which may differ in
                // mixed-precision accumulations).
                return unify_buffer_access(f->name(), f->idx(), t->name(),
                                           t->idx(), t->type());
            }
            return false;  // instr writes must target buffer args
          }
          case StmtKind::For: {
            if (!unify_expr(f->lo(), t->lo()) ||
                !unify_expr(f->hi(), t->hi())) {
                return false;
            }
            iters[f->iter()] = t->iter();
            target_iters.push_back(t->iter());
            if (f->body().size() != t->body().size())
                return false;
            for (size_t i = 0; i < f->body().size(); i++) {
                if (!unify_stmt(f->body()[i], t->body()[i]))
                    return false;
            }
            target_iters.pop_back();
            return true;
          }
          case StmtKind::If: {
            if (!unify_expr(f->cond(), t->cond()))
                return false;
            if (f->body().size() != t->body().size() ||
                f->orelse().size() != t->orelse().size()) {
                return false;
            }
            for (size_t i = 0; i < f->body().size(); i++) {
                if (!unify_stmt(f->body()[i], t->body()[i]))
                    return false;
            }
            for (size_t i = 0; i < f->orelse().size(); i++) {
                if (!unify_stmt(f->orelse()[i], t->orelse()[i]))
                    return false;
            }
            return true;
          }
          case StmtKind::Pass:
            return true;
          case StmtKind::WriteConfig:
            return f->name() == t->name() && f->field() == t->field() &&
                   unify_expr(f->rhs(), t->rhs());
          default:
            return false;
        }
    }

    /** Build the Call arguments after a successful unification. */
    std::vector<ExprPtr> build_args() const
    {
        std::vector<ExprPtr> args;
        for (const auto& a : instr->args()) {
            if (a.dims.empty()) {
                auto it = scalars.find(a.name);
                if (it == scalars.end()) {
                    throw SchedulingError(
                        "replace: argument '" + a.name + "' of " +
                        instr->name() + " was not bound");
                }
                args.push_back(it->second);
                continue;
            }
            auto it = buffers.find(a.name);
            if (it == buffers.end() || !it->second.bound) {
                throw SchedulingError("replace: buffer argument '" +
                                      a.name + "' of " + instr->name() +
                                      " was not bound");
            }
            const BufBinding& b = it->second;
            std::vector<WindowDim> dims;
            for (const auto& pt : b.prefix)
                dims.push_back(WindowDim{pt, nullptr});
            for (size_t j = 0; j < b.offsets.size(); j++) {
                ExprPtr extent = a.dims[j];
                // Substitute bound scalars into the formal extent.
                for (const auto& [n, e] : scalars)
                    extent = expr_subst(extent, n, e);
                WindowDim wd;
                wd.lo = b.offsets[j];
                wd.hi = affine_to_expr(affine_add(to_affine(b.offsets[j]),
                                                  to_affine(extent)));
                dims.push_back(wd);
            }
            args.push_back(Expr::make_window(b.target, std::move(dims),
                                             b.type));
        }
        return args;
    }
};

}  // namespace

ProcPtr
replace(const ProcPtr& p, const Cursor& s, const ProcPtr& instr)
{
    ScheduleStats::count_rewrite("replace");
    require(instr != nullptr, "replace: null instruction");
    Cursor c = p->forward(s);
    require(c.is_valid(), "replace: cursor invalidated");
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
        throw SchedulingError("replace: expected a stmt/block cursor");
    }
    const auto& list = stmt_list_at(p, addr);
    const auto& fbody = instr->body_stmts();
    require(static_cast<int>(fbody.size()) == hi - lo,
            "replace: statement count mismatch against " + instr->name());
    Unifier u(instr, p, c.loc().path);
    for (size_t i = 0; i < fbody.size(); i++) {
        require(u.unify_stmt(fbody[i], list[static_cast<size_t>(lo) + i]),
                "replace: unification with " + instr->name() + " failed");
    }
    StmtPtr call = Stmt::make_call(instr, u.build_args());
    return apply_replace_range(p, addr, lo, hi, {call}, "replace");
}

namespace {

/** Try to replace starting at each statement; returns true on change. */
bool
try_replace_somewhere(ProcPtr* p, const ProcPtr& instr)
{
    // Walk all statements in pre-order, trying a 1:1 (or n:n for
    // multi-statement instr bodies) unification at each list position.
    struct Walker
    {
        const ProcPtr& instr;
        ProcPtr result;
        bool changed = false;

        bool visit_list(const ProcPtr& p, const Path& parent,
                        PathLabel label, const std::vector<StmtPtr>& list)
        {
            int n = static_cast<int>(instr->body_stmts().size());
            for (int i = 0; i + n <= static_cast<int>(list.size()); i++) {
                Path at = parent;
                at.push_back({label, i});
                Unifier u(instr, p, std::move(at));
                bool ok = true;
                for (int j = 0; j < n && ok; j++) {
                    ok = u.unify_stmt(
                        instr->body_stmts()[static_cast<size_t>(j)],
                        list[static_cast<size_t>(i + j)]);
                }
                if (ok) {
                    std::vector<ExprPtr> args;
                    try {
                        args = u.build_args();
                    } catch (const SchedulingError&) {
                        continue;
                    }
                    StmtPtr call = Stmt::make_call(instr, args);
                    ListAddr addr{parent, label};
                    result = apply_replace_range(p, addr, i, i + n, {call},
                                                 "replace");
                    ScheduleStats::count_rewrite("replace");
                    changed = true;
                    return true;
                }
            }
            for (size_t i = 0; i < list.size(); i++) {
                Path here = parent;
                here.push_back({label, static_cast<int>(i)});
                const StmtPtr& st = list[i];
                if (!st->body().empty() &&
                    visit_list(p, here, PathLabel::Body, st->body())) {
                    return true;
                }
                if (!st->orelse().empty() &&
                    visit_list(p, here, PathLabel::Orelse, st->orelse())) {
                    return true;
                }
            }
            return false;
        }
    };
    Walker w{instr, nullptr};
    if (w.visit_list(*p, {}, PathLabel::Body, (*p)->body_stmts())) {
        *p = w.result;
        return true;
    }
    return false;
}

}  // namespace

ProcPtr
replace_all_stmts(const ProcPtr& p, const std::vector<ProcPtr>& instrs)
{
    ProcPtr cur = p;
    for (const auto& instr : instrs) {
        if (!instr || instr->body_stmts().empty())
            continue;
        int guard = 0;
        while (try_replace_somewhere(&cur, instr)) {
            require(++guard < 100000, "replace_all_stmts: runaway");
        }
    }
    return cur;
}

namespace {

/**
 * `b` with every declaration of `from` renamed to `to`, together with
 * the uses each one binds (`rename_buffer_block` renames only uses).
 * References to an outer `from` stay as they are.
 */
std::vector<StmtPtr>
rename_declarations(const std::vector<StmtPtr>& b, const std::string& from,
                    const std::string& to)
{
    std::vector<StmtPtr> out;
    out.reserve(b.size());
    for (size_t i = 0; i < b.size(); i++) {
        if (declares(b[i], from)) {
            // Its scope is the rest of the list; a later declaration of
            // `from` there is renamed with its own uses in turn.
            out.push_back(b[i]->with_name(to));
            std::vector<StmtPtr> rest = rename_declarations(
                rename_buffer_block(
                    std::vector<StmtPtr>(b.begin() + static_cast<long>(i) + 1,
                                         b.end()),
                    from, to),
                from, to);
            out.insert(out.end(), rest.begin(), rest.end());
            return out;
        }
        StmtPtr s = b[i];
        std::vector<StmtPtr> body = rename_declarations(s->body(), from, to);
        if (body != s->body())
            s = s->with_body(std::move(body));
        std::vector<StmtPtr> orelse =
            rename_declarations(s->orelse(), from, to);
        if (orelse != s->orelse())
            s = s->with_orelse(std::move(orelse));
        out.push_back(std::move(s));
    }
    return out;
}

}  // namespace

ProcPtr
inline_call(const ProcPtr& p, const Cursor& call)
{
    ScheduleStats::count_rewrite("inline");
    Cursor cc = expect_stmt_cursor(p, call);
    StmtPtr s = cc.stmt();
    require(s->kind() == StmtKind::Call, "inline: expected a call");
    ProcPtr callee = s->callee();
    require(callee != nullptr, "inline: unresolved callee");
    require(s->args().size() == callee->args().size(),
            "inline: arity mismatch");

    std::vector<StmtPtr> body = callee->body_stmts();
    // Rename local declarations fresh to avoid collisions, each
    // declaration together with the uses it binds (a formal or an
    // iterator has no declaration to rename). A fresh name is unused in
    // the callee too, or two of its declarations would merge.
    std::vector<std::string> names = used_names(callee);
    for (const auto& nm : names) {
        std::string fresh = nm;
        for (int i = 1; fresh_in(p, fresh) != fresh ||
                        (fresh != nm && std::count(names.begin(), names.end(),
                                                   fresh) != 0);
             i++) {
            fresh = nm + "_" + std::to_string(i);
        }
        if (fresh != nm)
            body = rename_declarations(body, nm, fresh);
    }

    for (size_t i = 0; i < callee->args().size(); i++) {
        const ProcArg& f = callee->args()[i];
        ExprPtr actual = s->args()[i];
        if (f.dims.empty()) {
            body = block_subst(body, f.name, actual);
            continue;
        }
        if (actual->kind() == ExprKind::Read && actual->idx().empty()) {
            body = rename_buffer_block(body, f.name, actual->name());
            continue;
        }
        require(actual->kind() == ExprKind::Window,
                "inline: unsupported buffer argument shape");
        std::vector<WindowDim> win = actual->window_dims();
        PointRewriteFn point_fn = [win](const std::vector<ExprPtr>& idx) {
            std::vector<ExprPtr> out;
            size_t k = 0;
            for (const auto& d : win) {
                if (d.is_point()) {
                    out.push_back(d.lo);
                } else {
                    ExprPtr inner =
                        k < idx.size() ? idx[k] : idx_const(0);
                    k++;
                    out.push_back(affine_to_expr(affine_add(
                        to_affine(d.lo), to_affine(inner))));
                }
            }
            return out;
        };
        WindowRewriteFn window_fn =
            [win](const std::vector<WindowDim>& dims) {
                std::vector<WindowDim> out;
                size_t k = 0;
                for (const auto& d : win) {
                    if (d.is_point()) {
                        out.push_back(d);
                    } else {
                        WindowDim nd = d;
                        if (k < dims.size()) {
                            nd.lo = d.lo + dims[k].lo;
                            nd.hi = dims[k].hi ? (d.lo + dims[k].hi)
                                               : nullptr;
                            if (!nd.hi) {
                                // point into an interval dim
                                nd.hi = nullptr;
                            }
                        }
                        k++;
                        out.push_back(nd);
                    }
                }
                return out;
            };
        body = rename_buffer_block(
            rewrite_buffer_access_block(body, f.name, point_fn, window_fn),
            f.name, actual->name());
    }

    int pos = 0;
    ListAddr addr = list_addr_of(cc.loc().path, &pos);
    return apply_replace_range(p, addr, pos, pos + 1, std::move(body),
                               "inline");
}

ProcPtr
call_eqv(const ProcPtr& p, const Cursor& call, const ProcPtr& eqv)
{
    ScheduleStats::count_rewrite("call_eqv");
    Cursor cc = expect_stmt_cursor(p, call);
    StmtPtr s = cc.stmt();
    require(s->kind() == StmtKind::Call, "call_eqv: expected a call");
    require(procs_equivalent(s->callee(), eqv),
            "call_eqv: procedures are not equivalent");
    return apply_replace_stmt_same_shape(p, cc.loc().path,
                                         s->with_callee(eqv), "call_eqv");
}

ProcPtr
call_eqv_all(const ProcPtr& p, const ProcPtr& eqv)
{
    ProcPtr cur = p;
    for (int guard = 0; guard < 100000; guard++) {
        auto calls = cur->find_all("_(_)");
        bool changed = false;
        for (const auto& c : calls) {
            StmtPtr s = c.stmt();
            if (s->callee() && s->callee() != eqv &&
                procs_equivalent(s->callee(), eqv)) {
                cur = call_eqv(cur, c, eqv);
                changed = true;
                break;
            }
        }
        if (!changed)
            return cur;
    }
    throw InternalError("call_eqv_all did not converge");
}

ProcPtr
extract_subproc_impl(const ProcPtr& p, const Cursor& c,
                     const std::string& name, ProcPtr* out_sub)
{
    ScheduleStats::count_rewrite("extract_subproc");
    Cursor bc = p->forward(c);
    require(bc.is_valid(), "extract_subproc: cursor invalidated");
    int lo = 0;
    int hi = 0;
    ListAddr addr{};
    if (bc.kind() == CursorKind::Node) {
        addr = list_addr_of(bc.loc().path, &lo);
        hi = lo + 1;
    } else {
        require(bc.kind() == CursorKind::Block,
                "extract_subproc: expected stmt/block");
        addr = list_addr_of(bc.loc().path, &lo);
        hi = bc.loc().hi;
    }
    const auto& list = stmt_list_at(p, addr);
    std::vector<StmtPtr> block(list.begin() + lo, list.begin() + hi);

    // The block's free names are the ones it uses from outside; each
    // becomes an argument shaped by what it is bound to there.
    std::vector<ProcArg> args;
    std::vector<ExprPtr> call_args;
    std::set<std::string> taken;
    // Order: proc args first (stable), then any allocs from outside.
    auto add_free = [&](const std::string& nm) {
        if (taken.count(nm) || !block_uses_unshadowed(block, nm))
            return;
        taken.insert(nm);
        Binding b = binding_at(p, bc.loc().path, nm);
        require(static_cast<bool>(b),
                "extract_subproc: '" + nm + "' is not bound at the block");
        ProcArg na;
        if (b.arg) {
            na = *b.arg;
        } else if (b.decl->kind() == StmtKind::For) {
            // Outer loop iterator: pass as a size-like scalar.
            na.name = nm;
            na.type = ScalarType::Index;
            na.is_size = true;
            args.push_back(na);
            call_args.push_back(var(nm));
            return;
        } else {
            na.name = nm;
            na.type = b.decl->type();
            na.dims = binding_dims(b);
            na.mem = b.decl->kind() == StmtKind::Alloc ? b.decl->mem()
                                                       : mem_dram();
        }
        if (!na.dims.empty())
            na.is_window = true;
        args.push_back(na);
        call_args.push_back(Expr::make_read(nm, {}, na.type));
    };
    for (const auto& a : p->args())
        add_free(a.name);
    // Collect any remaining free names.
    std::vector<std::string> mentioned;
    for (const auto& st : block) {
        for (const auto& acc : collect_accesses(st)) {
            if (acc.buf.rfind("$cfg:", 0) == 0)
                continue;
            if (std::find(mentioned.begin(), mentioned.end(), acc.buf) ==
                mentioned.end()) {
                mentioned.push_back(acc.buf);
            }
        }
    }
    for (const auto& nm : mentioned)
        add_free(nm);

    ProcPtr sub = Proc::make(name, args, {}, block);
    if (out_sub)
        *out_sub = sub;
    StmtPtr call = Stmt::make_call(sub, call_args);
    return apply_replace_range(p, addr, lo, hi, {call}, "extract_subproc");
}

std::pair<ProcPtr, ProcPtr>
extract_subproc(const ProcPtr& p, const Cursor& s, const std::string& name)
{
    ProcPtr sub;
    ProcPtr np = extract_subproc_impl(p, s, name, &sub);
    return {np, sub};
}

}  // namespace exo2
