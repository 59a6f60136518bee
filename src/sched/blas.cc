#include "src/sched/blas.h"

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"

namespace exo2 {
namespace sched {

ProcPtr
round_loop(const ProcPtr& p, const Cursor& loop, int factor)
{
    Cursor lc = p->forward(loop);
    StmtPtr s = lc.stmt();
    ExprPtr f = idx_const(factor);
    ExprPtr rounded = (s->hi() + idx_const(factor - 1)) / f * f;
    return extend_loop_bound(p, lc, nullptr, rounded);
}

ProcPtr
adjust_triang(const ProcPtr& p, const Cursor& inner, int factor)
{
    Cursor lc = p->forward(inner);
    StmtPtr s = lc.stmt();
    ExprPtr f = idx_const(factor);
    ExprPtr new_lo;
    ExprPtr new_hi;
    // Round an iterator-dependent lower bound down and the upper bound
    // up so that the bounds are uniform within each group of `factor`
    // consecutive outer iterations (making unroll-and-jam fusible).
    Affine lo = to_affine(s->lo());
    Affine hi = to_affine(s->hi());
    if (!lo.is_const())
        new_lo = (s->lo() - idx_const(factor - 1)) / f * f;
    if (!hi.is_const())
        new_hi = (s->hi() + idx_const(factor - 1)) / f * f;
    if (!new_lo && !new_hi)
        return p;
    return extend_loop_bound(p, lc, new_lo, new_hi);
}

ProcPtr
unroll_and_jam(const ProcPtr& p, const Cursor& outer, int r_fac)
{
    if (r_fac <= 1)
        return p;
    Cursor oc = p->forward(outer);
    std::string base = oc.stmt()->iter();
    std::string io = fresh_in(p, base + "o");
    std::string iu = fresh_in(p, base + "u");
    ProcPtr cur = divide_loop(p, oc, r_fac, {io, iu}, TailStrategy::Cut);
    cur = unroll_loop(cur, cur->find_loop(iu));
    // Jam: fuse the duplicated inner loops pairwise, reordering the
    // interleaved scalar statements out of the way when possible.
    Cursor io_loop = cur->find_loop(io);
    for (int guard = 0; guard < 512; guard++) {
        io_loop = cur->forward(io_loop);
        const auto& body = io_loop.stmt()->body();
        bool changed = false;
        for (size_t k = 0; k + 1 < body.size(); k++) {
            if (body[k]->kind() != StmtKind::For)
                continue;
            if (body[k + 1]->kind() == StmtKind::For) {
                StmtPtr a = body[k];
                StmtPtr b = body[k + 1];
                if (a->lo() != b->lo() || a->hi() != b->hi())
                    continue;
                try {
                    cur = fuse(cur, io_loop.body()[static_cast<int>(k)],
                               io_loop.body()[static_cast<int>(k + 1)]);
                    changed = true;
                    break;
                } catch (const SchedulingError&) {
                    continue;
                }
            }
            // A scalar statement separates two jam candidates: try to
            // move the next For before it.
            if (k + 2 < body.size() &&
                body[k + 2]->kind() == StmtKind::For) {
                try {
                    cur = reorder_before(
                        cur, io_loop.body()[static_cast<int>(k + 2)]);
                    changed = true;
                    break;
                } catch (const SchedulingError&) {
                    continue;
                }
            }
        }
        if (!changed)
            break;
    }
    return cur;
}

ProcPtr
optimize_level_1(const ProcPtr& p, const Cursor& loop,
                 ScalarType precision, const Machine& machine,
                 int interleave_factor, bool masked_tail)
{
    ProcPtr cur = p;
    Cursor lc = cur->forward(loop);

    // CSE repeated loads (mostly effective on jammed level-2 bodies).
    cur = cse_reads(cur, lc);
    lc = cur->forward(loop);

    // Vectorize with a cut tail; predicated machines get a masked tail.
    VectorizeOpts opts;
    opts.tail = (masked_tail && machine.supports_predication())
                    ? TailStrategy::CutAndGuard
                    : TailStrategy::Cut;
    std::string vo;
    cur = vectorize(cur, lc, machine, precision, opts, &vo);

    // LICM: hoist broadcasts and vector allocations out of the main
    // vector loop.
    try {
        Cursor main = cur->find_loop(vo);
        cur = hoist_from_loop(cur, main);
    } catch (const SchedulingError&) {
    }

    // Interleave for ILP.
    if (interleave_factor > 1) {
        try {
            Cursor main = cur->find_loop(vo);
            cur = interleave_loop(cur, main, interleave_factor);
        } catch (const SchedulingError&) {
        }
    }
    return cleanup(cur);
}

namespace {

/** The inner loop's reused 1-D vector (Figure 7b, step 1). */
std::string
get_reused_vector(const ProcPtr& p, const Cursor& in_loop)
{
    StmtPtr loop = in_loop.stmt();
    const std::string& j = loop->iter();
    std::string found;
    std::function<void(const ExprPtr&)> scan_expr =
        [&](const ExprPtr& e) {
            if (!e)
                return;
            if (e->kind() == ExprKind::Read && e->idx().size() == 1 &&
                expr_uses(e->idx()[0], j) &&
                p->find_arg(e->name()) != nullptr) {
                if (found.empty())
                    found = e->name();
            }
            for (const auto& k : e->children())
                scan_expr(k);
        };
    std::function<void(const StmtPtr&)> scan = [&](const StmtPtr& s) {
        if ((s->kind() == StmtKind::Assign ||
             s->kind() == StmtKind::Reduce) &&
            s->idx().size() == 1 && expr_uses(s->idx()[0], j) &&
            p->find_arg(s->name()) != nullptr && found.empty()) {
            found = s->name();
        }
        for (const auto& i : s->idx())
            scan_expr(i);
        scan_expr(s->rhs());
        for (const auto& c : s->body())
            scan(c);
        for (const auto& c : s->orelse())
            scan(c);
    };
    for (const auto& s : loop->body())
        scan(s);
    require(!found.empty(), "opt_skinny: no reused vector found");
    return found;
}

}  // namespace

ProcPtr
opt_skinny(const ProcPtr& p, const Cursor& out_loop, ScalarType precision,
           const Machine& machine, int64_t max_len)
{
    int vw = machine.vec_width(precision);
    ProcPtr cur = p;
    Cursor oc = cur->forward(out_loop);

    // (1) Inspect: inner loop and the reused vector.
    Cursor in_loop = get_inner_loop(cur, oc);
    std::string vec = get_reused_vector(cur, in_loop);
    const ProcArg* va = cur->find_arg(vec);
    require(va && va->dims.size() == 1, "opt_skinny: vector must be 1-D");
    ExprPtr vec_len = va->dims[0];

    // (2) Round the inner loop up to the vector width and stage the
    // reused vector into registers around the doubly nested loops.
    cur = round_loop(cur, in_loop, vw);
    std::vector<WindowDim> win{WindowDim{idx_const(0), vec_len}};
    std::string reg = fresh_in(cur, "var0");
    auto cs = stage_mem(cur, cur->forward(oc), vec, win, reg);
    cur = cs.p;
    // Grow the staging buffer to a multiple of the vector width, split
    // it into registers, and place it in the vector register file.
    ExprPtr rounded =
        (vec_len + idx_const(vw - 1)) / idx_const(vw) * idx_const(vw);
    cur = resize_dim(cur, cs.alloc, 0, rounded, idx_const(0));
    cur = divide_dim(cur, cur->forward(cs.alloc), 0, vw);
    cur = set_memory(cur, cur->forward(cs.alloc), machine.mem_type());

    // (3) Vectorize the load, inner math loop, and store with masks.
    VectorizeOpts mopts;
    mopts.masked = true;
    std::vector<Cursor> loops;
    if (cs.load.is_valid())
        loops.push_back(cs.load);
    loops.push_back(in_loop);
    if (cs.store.is_valid())
        loops.push_back(cs.store);
    for (const Cursor& l : loops) {
        Cursor fl = cur->forward(l);
        if (!fl.is_valid())
            continue;
        // Copy loops produced by stage_mem are unguarded `for (0, N)`;
        // round them first so the masked path applies.
        StmtPtr s = fl.stmt();
        bool guarded = s->body().size() == 1 &&
                       s->body()[0]->kind() == StmtKind::If;
        if (!guarded)
            cur = round_loop(cur, fl, vw);
        cur = vectorize(cur, cur->forward(l), machine, precision, mopts);
    }

    // (4) Specialize: with constant sizes (after partial_eval) the
    // loops fully unroll into register code.
    cur = simplify(cur);
    cur = unroll_all(cur, std::max<int64_t>(max_len, 64));
    return cleanup(cur);
}

ProcPtr
optimize_level_2_general(const ProcPtr& p, const Cursor& o_loop,
                         ScalarType precision, const Machine& machine,
                         int r_fac, int c_fac, bool masked_tail)
{
    ProcPtr cur = p;
    Cursor oc = cur->forward(o_loop);

    // Triangular kernels: make the inner bounds group-uniform first.
    Cursor inner = get_inner_loop(cur, oc);
    if (!(inner == oc)) {
        StmtPtr is = inner.stmt();
        if (expr_uses(is->lo(), oc.stmt()->iter()) ||
            expr_uses(is->hi(), oc.stmt()->iter())) {
            cur = adjust_triang(cur, inner, r_fac);
            oc = cur->forward(o_loop);
        }
    }

    // Batch r_fac rows into the inner loop (unroll-and-jam).
    cur = unroll_and_jam(cur, oc, r_fac);
    cur = simplify(cur);

    // The fused inner loop of the main (divided) copy is now a level-1
    // problem.
    Cursor main_outer;
    try {
        main_outer = cur->find_loop(oc.stmt()->iter() + "o");
    } catch (const SchedulingError&) {
        main_outer = cur->forward(o_loop);
    }
    Cursor in_main = get_inner_loop(cur, main_outer);
    if (!(in_main == main_outer)) {
        cur = optimize_level_1(cur, in_main, precision, machine, c_fac,
                               masked_tail);
    }

    // The tail copy's inner loop is likewise a level-1 problem.
    try {
        Cursor tail_outer = cur->forward(main_outer).next();
        if (tail_outer.stmt()->kind() == StmtKind::For) {
            Cursor in_tail = get_inner_loop(cur, tail_outer);
            if (!(in_tail == tail_outer)) {
                cur = optimize_level_1(cur, in_tail, precision, machine,
                                       c_fac, masked_tail);
            }
        }
    } catch (const InvalidCursorError&) {
    } catch (const SchedulingError&) {
    }
    return cleanup(cur);
}

}  // namespace sched
}  // namespace exo2
