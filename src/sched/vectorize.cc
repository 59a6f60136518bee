#include "src/sched/vectorize.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"

namespace exo2 {
namespace sched {

namespace {

bool
is_temp_read(const ExprPtr& e, const std::set<std::string>& temps)
{
    return e->kind() == ExprKind::Read && temps.count(e->name()) > 0;
}

/** Is `e` a valid single-op RHS over temps? */
bool
rhs_is_normal(const ExprPtr& e, const std::set<std::string>& temps,
              bool target_is_temp)
{
    if (is_temp_read(e, temps))
        return true;  // copy / store form
    if (!target_is_temp)
        return false;  // non-temp target must receive a temp read
    if (e->kind() == ExprKind::Const)
        return true;  // zero / broadcast-const
    if (e->kind() == ExprKind::Read)
        return true;  // load or scalar broadcast
    if (e->kind() == ExprKind::BinOp &&
        (e->op() == BinOpKind::Add || e->op() == BinOpKind::Sub ||
         e->op() == BinOpKind::Mul)) {
        return is_temp_read(e->lhs(), temps) &&
               is_temp_read(e->rhs(), temps);
    }
    if (e->kind() == ExprKind::USub)
        return is_temp_read(e->lhs(), temps);
    if (e->kind() == ExprKind::Extern && e->idx().size() == 1)
        return is_temp_read(e->idx()[0], temps);
    return false;
}

/** Path (relative to the statement) of the first operand to bind. */
bool
find_bind_target(const ExprPtr& e, const std::set<std::string>& temps,
                 bool target_is_temp, bool fma_reduce, Path* out)
{
    // For a normal form nothing to do.
    if (rhs_is_normal(e, temps, target_is_temp) && !fma_reduce)
        return false;
    if (fma_reduce) {
        // Want `t += a * b` with a, b temps: bind non-temp operands.
        if (e->kind() == ExprKind::BinOp && e->op() == BinOpKind::Mul) {
            if (!is_temp_read(e->lhs(), temps)) {
                out->push_back({PathLabel::Rhs, -1});
                out->push_back({PathLabel::OpLhs, -1});
                return true;
            }
            if (!is_temp_read(e->rhs(), temps)) {
                out->push_back({PathLabel::Rhs, -1});
                out->push_back({PathLabel::OpRhs, -1});
                return true;
            }
            return false;  // normal fma
        }
        // Not a product: fall through to generic handling.
    }
    if (e->kind() == ExprKind::BinOp) {
        if (!is_temp_read(e->lhs(), temps)) {
            out->push_back({PathLabel::Rhs, -1});
            out->push_back({PathLabel::OpLhs, -1});
            return true;
        }
        if (!is_temp_read(e->rhs(), temps)) {
            out->push_back({PathLabel::Rhs, -1});
            out->push_back({PathLabel::OpRhs, -1});
            return true;
        }
        return false;
    }
    if (e->kind() == ExprKind::USub) {
        if (!is_temp_read(e->lhs(), temps)) {
            out->push_back({PathLabel::Rhs, -1});
            out->push_back({PathLabel::OpLhs, -1});
            return true;
        }
        return false;
    }
    if (e->kind() == ExprKind::Extern) {
        for (size_t i = 0; i < e->idx().size(); i++) {
            if (!is_temp_read(e->idx()[i], temps)) {
                out->push_back({PathLabel::Rhs, -1});
                out->push_back({PathLabel::Idx, static_cast<int>(i)});
                return true;
            }
        }
        return false;
    }
    return false;
}

}  // namespace

ProcPtr
stage_compute(const ProcPtr& p, const Cursor& lane_loop, bool use_fma,
              std::vector<std::string>* temps_out)
{
    ProcPtr cur = p;
    Cursor loop = cur->forward(lane_loop);
    std::set<std::string> temps;
    if (temps_out)
        temps.insert(temps_out->begin(), temps_out->end());
    // Buffers already living in vector registers behave like staged
    // temps: reads of them are register operands, not loads.
    {
        std::function<void(const std::vector<StmtPtr>&)> scan =
            [&](const std::vector<StmtPtr>& b) {
                for (const auto& s : b) {
                    if (s->kind() == StmtKind::Alloc &&
                        s->mem()->is_vector()) {
                        temps.insert(s->name());
                    }
                    scan(s->body());
                    scan(s->orelse());
                }
            };
        scan(cur->body_stmts());
    }
    // Pre-existing lane-local scalars (e.g. the swap/rot temporaries)
    // are per-lane values: treat them as staged temps so they get
    // expanded to vectors.
    {
        std::function<void(const StmtPtr&)> scan = [&](const StmtPtr& s) {
            if (s->kind() == StmtKind::Alloc && s->dims().empty())
                temps.insert(s->name());
            for (const auto& c : s->body())
                scan(c);
            for (const auto& c : s->orelse())
                scan(c);
        };
        for (const auto& s : loop.stmt()->body())
            scan(s);
    }
    int counter = 0;
    auto fresh_temp = [&]() {
        for (;;) {
            std::string nm = "var" + std::to_string(counter++);
            try {
                ensure_unused(cur, nm);
                return nm;
            } catch (const SchedulingError&) {
            }
        }
    };

    // Process the (dynamic) list of statements under the lane loop,
    // including statements nested under a mask guard.
    for (int guard = 0; guard < 1000; guard++) {
        loop = cur->forward(lane_loop);
        // Collect candidate statement cursors: direct body stmts and
        // single-if bodies.
        std::vector<Cursor> work;
        for (const Cursor& c : loop.body_list()) {
            if (c.stmt()->kind() == StmtKind::If) {
                Cursor blk = c.body();
                for (int i = 0; i < blk.block_size(); i++)
                    work.push_back(blk[i]);
            } else {
                work.push_back(c);
            }
        }
        bool changed = false;
        for (const Cursor& sc : work) {
            StmtPtr s = sc.stmt();
            if (s->kind() == StmtKind::Alloc ||
                s->kind() == StmtKind::Pass) {
                continue;
            }
            if (s->kind() != StmtKind::Assign &&
                s->kind() != StmtKind::Reduce) {
                continue;
            }
            bool target_is_temp = temps.count(s->name()) > 0;
            // Reductions into non-temp targets: stage the operands
            // first (so no other access to the target buffer remains),
            // then stage the target itself.
            if (s->kind() == StmtKind::Reduce && !target_is_temp) {
                bool fma_shape = use_fma &&
                                 s->rhs()->kind() == ExprKind::BinOp &&
                                 s->rhs()->op() == BinOpKind::Mul;
                Path rel;
                if (find_bind_target(s->rhs(), temps, /*target_temp=*/true,
                                     fma_shape, &rel)) {
                    Path full = sc.loc().path;
                    full.insert(full.end(), rel.begin(), rel.end());
                    std::string nm = fresh_temp();
                    cur = bind_expr(cur,
                                    Cursor(cur, CursorLoc{CursorKind::Node,
                                                          full, -1}),
                                    nm);
                    temps.insert(nm);
                    changed = true;
                    break;
                }
                if (!fma_shape &&
                    !(s->rhs()->kind() == ExprKind::Read &&
                      temps.count(s->rhs()->name()))) {
                    // Collapse the (already temp-only) rhs to a single
                    // temp so the merged form is one vector op.
                    Path full = sc.loc().path;
                    full.push_back({PathLabel::Rhs, -1});
                    std::string nm = fresh_temp();
                    cur = bind_expr(cur,
                                    Cursor(cur, CursorLoc{CursorKind::Node,
                                                          full, -1}),
                                    nm);
                    temps.insert(nm);
                    changed = true;
                    break;
                }
                std::vector<WindowDim> win;
                for (const auto& i : s->idx())
                    win.push_back(WindowDim{i, nullptr});
                std::string nm = fresh_temp();
                auto res = stage_mem(cur, sc, s->name(), win, nm);
                cur = res.p;
                temps.insert(nm);
                if (!use_fma) {
                    // Figure 4b: merge load + reduce into one assign.
                    Cursor red = res.block[0];
                    cur = merge_writes(cur, res.load, red);
                }
                changed = true;
                break;
            }
            bool fma_reduce = s->kind() == StmtKind::Reduce &&
                              target_is_temp && use_fma &&
                              s->rhs()->kind() == ExprKind::BinOp &&
                              s->rhs()->op() == BinOpKind::Mul;
            if (s->kind() == StmtKind::Reduce && target_is_temp &&
                !fma_reduce &&
                !(s->rhs()->kind() == ExprKind::Read &&
                  temps.count(s->rhs()->name()))) {
                // `t += e` without FMA shape: bind e so the statement
                // becomes an accumulate of a staged vector.
                Path rel{{PathLabel::Rhs, -1}};
                Path full = sc.loc().path;
                full.insert(full.end(), rel.begin(), rel.end());
                std::string nm = fresh_temp();
                cur = bind_expr(cur, Cursor(cur, CursorLoc{
                                                 CursorKind::Node, full,
                                                 -1}),
                                nm);
                temps.insert(nm);
                changed = true;
                break;
            }
            // Assign with non-temp target and compound rhs: bind rhs.
            if (s->kind() == StmtKind::Assign && !target_is_temp &&
                !is_temp_read(s->rhs(), temps)) {
                Path full = sc.loc().path;
                full.push_back({PathLabel::Rhs, -1});
                std::string nm = fresh_temp();
                cur = bind_expr(
                    cur, Cursor(cur, CursorLoc{CursorKind::Node, full, -1}),
                    nm);
                temps.insert(nm);
                changed = true;
                break;
            }
            // Operand staging.
            Path rel;
            if (find_bind_target(s->rhs(), temps, target_is_temp,
                                 fma_reduce, &rel)) {
                Path full = sc.loc().path;
                full.insert(full.end(), rel.begin(), rel.end());
                std::string nm = fresh_temp();
                cur = bind_expr(
                    cur, Cursor(cur, CursorLoc{CursorKind::Node, full, -1}),
                    nm);
                temps.insert(nm);
                changed = true;
                break;
            }
        }
        if (!changed)
            break;
    }
    if (temps_out)
        temps_out->assign(temps.begin(), temps.end());
    return cur;
}

ProcPtr
fission_into_singles(const ProcPtr& p, const Cursor& lane_loop, int vw,
                     const MemoryPtr& mem,
                     const std::vector<std::string>& temps)
{
    ProcPtr cur = p;
    Cursor loop = cur->forward(lane_loop);
    std::string iter = loop.stmt()->iter();

    // 1. Expand staged scalars to per-lane vectors and hoist them out.
    for (const auto& nm : temps) {
        Cursor ac;
        try {
            ac = loop.find(nm + ": _");
        } catch (const SchedulingError&) {
            continue;  // bound elsewhere (e.g. accumulator)
        }
        cur = expand_dim(cur, cur->forward(ac), idx_const(vw), var(iter));
        cur = set_memory(cur, cur->forward(ac), mem);
        // Lift above the guard (if present) and the lane loop.
        for (int lift = 0; lift < 4; lift++) {
            Cursor cc = cur->forward(ac);
            int pos = 0;
            ListAddr addr = list_addr_of(cc.loc().path, &pos);
            if (addr.parent.empty())
                break;
            StmtPtr parent = stmt_at(cur, addr.parent);
            cur = lift_alloc(cur, cc);
            if (parent->kind() == StmtKind::For)
                break;  // now directly above the lane loop
        }
        loop = cur->forward(lane_loop);
    }

    // 2. Distribute a single mask guard over its statements.
    loop = cur->forward(lane_loop);
    if (loop.stmt()->body().size() == 1 &&
        loop.stmt()->body()[0]->kind() == StmtKind::If) {
        cur = split_guard(cur, loop.body()[0]);
        loop = cur->forward(lane_loop);
    }

    // 3. Fission between every pair of statements.
    Cursor work = lane_loop;
    for (int guard = 0; guard < 256; guard++) {
        loop = cur->forward(work);
        if (!loop.is_valid() || loop.stmt()->kind() != StmtKind::For)
            break;
        if (loop.stmt()->body().size() <= 1)
            break;
        cur = fission(cur, loop.body()[0].after());
        // The forwarded lane loop is the first half; continue with the
        // second half.
        Cursor head = cur->forward(work);
        work = head.next();
    }
    return cur;
}

ProcPtr
interleave_loop(const ProcPtr& p, const Cursor& loop, int factor)
{
    if (factor <= 1)
        return p;
    Cursor lc = p->forward(loop);
    std::string base = lc.stmt()->iter();
    std::string io = fresh_in(p, base + "o");
    std::string iu = fresh_in(p, base + "u");
    ProcPtr cur =
        divide_loop(p, lc, factor, {io, iu}, TailStrategy::Cut);
    // Unroll the inner interleave loop of the main copy.
    cur = unroll_loop(cur, cur->find_loop(iu));
    return cur;
}

ProcPtr
cse_reads(const ProcPtr& p, const Cursor& loop)
{
    ProcPtr cur = p;
    for (int guard = 0; guard < 64; guard++) {
        Cursor lc = cur->forward(loop);
        // Count reads by printed form across the loop body.
        std::map<std::string, std::pair<ExprPtr, int>> counts;
        std::function<void(const ExprPtr&)> scan = [&](const ExprPtr& e) {
            if (!e)
                return;
            if (e->kind() == ExprKind::Read && !e->idx().empty()) {
                auto key = print_expr(e);
                auto it = counts.find(key);
                if (it == counts.end())
                    counts[key] = {e, 1};
                else
                    it->second.second++;
            }
            for (const auto& k : e->children())
                scan(k);
        };
        std::function<void(const StmtPtr&)> scan_stmt =
            [&](const StmtPtr& s) {
                scan(s->rhs());
                for (const auto& c : s->body())
                    scan_stmt(c);
                for (const auto& c : s->orelse())
                    scan_stmt(c);
            };
        for (const auto& s : lc.stmt()->body())
            scan_stmt(s);
        ExprPtr target;
        for (const auto& [key, val] : counts) {
            if (val.second > 1) {
                target = val.first;
                break;
            }
        }
        if (!target)
            return cur;
        std::string nm = fresh_in(cur, "cse");
        // Bind inside the guard when the body is a single if (keeps the
        // hoisted load from executing lanes the guard masks off).
        Cursor block = lc.body();
        if (lc.stmt()->body().size() == 1 &&
            lc.stmt()->body()[0]->kind() == StmtKind::If) {
            block = lc.body()[0].body();
        }
        try {
            cur = bind_expr_block(cur, block, target, nm);
        } catch (const SchedulingError&) {
            return cur;  // unsafe to bind: stop
        }
    }
    return cur;
}

namespace {

/** Steps 2-5 on a lane loop (possibly guarded). */
ProcPtr
vectorize_lane(const ProcPtr& p, const Cursor& around,
               const Cursor& lane_loop, const Machine& machine,
               ScalarType precision, bool use_fma)
{
    int vw = machine.vec_width(precision);
    const VecInstrSet& instrs = machine.instrs(precision);
    const MemoryPtr& mem = machine.mem_type();
    ProcPtr cur = p;
    Cursor lane = cur->forward(lane_loop);
    std::vector<std::string> accs;

    // Step 2: parallelize reductions with loop-invariant targets
    // (inside the lane loop directly or under a mask guard).
    {
        std::vector<Cursor> reduces;
        std::function<void(const Cursor&)> scan = [&](const Cursor& c) {
            StmtPtr s = c.stmt();
            if (s->kind() == StmtKind::Reduce) {
                reduces.push_back(c);
                return;
            }
            if (s->kind() == StmtKind::If) {
                Cursor blk = c.body();
                for (int i = 0; i < blk.block_size(); i++)
                    scan(blk[i]);
            }
        };
        for (const Cursor& c : lane.body_list())
            scan(c);
        StmtPtr lane_stmt = lane.stmt();
        for (const Cursor& c : reduces) {
            StmtPtr s = c.stmt();
            bool invariant = !s->idx().empty();
            for (const auto& e : s->idx()) {
                if (expr_uses(e, lane_stmt->iter()))
                    invariant = false;
            }
            if (!invariant)
                continue;
            std::string acc = fresh_in(cur, "acc");
            try {
                cur = parallelize_reduction(cur, cur->forward(around),
                                            cur->forward(lane_loop),
                                            cur->forward(c), acc, vw, mem);
                accs.push_back(acc);
            } catch (const SchedulingError&) {
                continue;
            }
        }
        lane = cur->forward(lane_loop);
    }

    // Step 3: stage computation (accumulators are pre-staged temps).
    std::vector<std::string> temps = accs;
    cur = stage_compute(cur, lane, use_fma, &temps);

    // Step 4: fission into single-statement lane loops.
    cur = fission_into_singles(cur, cur->forward(lane_loop), vw, mem,
                               temps);

    // Step 5: simplify staged indices (e.g. `(4*vo+vi)%4 -> vi`), then
    // replace with hardware instructions.
    cur = simplify(cur);
    cur = replace_all_stmts(cur, instrs.all());
    return cur;
}

}  // namespace

ProcPtr
vectorize(const ProcPtr& p, const Cursor& loop, const Machine& machine,
          ScalarType precision, VectorizeOpts opts,
          std::string* out_loop_name)
{
    int vw = machine.vec_width(precision);
    bool use_fma = opts.use_fma && machine.has_fma();

    ProcPtr cur = p;
    Cursor lc = cur->forward(loop);
    // divide_loop wants a zero-based loop (e.g. upper-triangular inner
    // loops start at a rounded multiple): re-base first.
    if (!affine_is_zero(to_affine(lc.stmt()->lo()))) {
        cur = shift_loop(cur, lc, idx_const(0));
        lc = cur->forward(loop);
    }
    std::string io = fresh_in(cur, "vo");
    std::string ii = fresh_in(cur, "vi");
    if (out_loop_name)
        *out_loop_name = io;

    if (opts.masked) {
        // The loop body is already guarded (`for i in (0, rounded):
        // if i < n: s`); divide perfectly and vectorize with masks.
        cur = divide_loop(cur, lc, vw, {io, ii}, TailStrategy::Perfect);
        Cursor io_loop = cur->find_loop(io);
        return vectorize_lane(cur, io_loop, io_loop.body()[0], machine,
                              precision, use_fma);
    }

    bool pred_tail = opts.tail == TailStrategy::CutAndGuard &&
                     machine.supports_predication();
    TailStrategy div_tail =
        (opts.tail == TailStrategy::Perfect) ? TailStrategy::Perfect
                                             : TailStrategy::Cut;
    cur = divide_loop(cur, lc, vw, {io, ii}, div_tail);
    Cursor io_loop = cur->find_loop(io);
    cur = vectorize_lane(cur, io_loop, io_loop.body()[0], machine,
                         precision, use_fma);
    if (div_tail == TailStrategy::Cut && pred_tail) {
        // Vectorize the cut tail with masked instructions: guard-divide
        // it (one ceil block), then run the masked lane pipeline.
        Cursor tail = cur->find_loop(ii);  // the remaining scalar tail
        std::string to = fresh_in(cur, "vt");
        std::string ti = fresh_in(cur, "vj");
        cur = divide_loop(cur, tail, vw, {to, ti}, TailStrategy::Guard);
        Cursor to_loop = cur->find_loop(to);
        cur = vectorize_lane(cur, to_loop, to_loop.body()[0], machine,
                             precision, use_fma);
    }
    return cur;
}

}  // namespace sched
}  // namespace exo2
