/**
 * @file
 * Tests for the structural-identity subsystem: expression hash-consing
 * invariants, statement structural hashes, no-op rebuild identity,
 * memoized-vs-uncached analysis cross-checks on randomized schedules,
 * and cursor forwarding across interned edits.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "src/analysis/context.h"
#include "src/analysis/effects.h"
#include "src/analysis/memo.h"
#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/ir/interner.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/primitives/primitives.h"
#include "tests/test_support.h"

namespace exo2 {
namespace {

// -- Interning invariants --------------------------------------------------

TEST(Interning, StructuralEqualityIsPointerEquality)
{
    ExprPtr a = (var("i") * idx_const(8)) + var("j");
    ExprPtr b = (var("i") * idx_const(8)) + var("j");
    EXPECT_EQ(a, b);  // same object, not merely equal
    EXPECT_EQ(a->structural_hash(), b->structural_hash());
    EXPECT_EQ(a->intern_id(), b->intern_id());

    ExprPtr c = (var("i") * idx_const(8)) + var("k");
    EXPECT_NE(a, c);

    // Types distinguish nodes: an f32 literal is not an index literal.
    EXPECT_NE(idx_const(2), num_const(2.0, ScalarType::F32));
    // But equal values of equal type unify however they are built.
    EXPECT_EQ(Expr::make_const(2.0, ScalarType::Index), idx_const(2));
}

TEST(Interning, ParsedAndBuiltExpressionsUnify)
{
    ExprPtr parsed = parse_expr_str("8 * io + ii");
    ExprPtr rebuilt = parse_expr_str("8 * io + ii");
    EXPECT_EQ(parsed, rebuilt);
}

TEST(Interning, NoOpRebuildsPreserveIdentity)
{
    ExprPtr e = (var("i") + var("j")) * idx_const(4);
    EXPECT_EQ(e->with_children(e->children()), e);

    // Substituting a variable that does not occur is the identity.
    EXPECT_EQ(expr_subst(e, "zz", idx_const(0)), e);
    // Substituting i by i is also (pointer-)identity.
    EXPECT_EQ(expr_subst(e, "i", var("i")), e);

    // Round-trip substitution re-interns to the original node.
    ExprPtr once = expr_subst(e, "i", var("t"));
    EXPECT_NE(once, e);
    EXPECT_EQ(expr_subst(once, "t", var("i")), e);
}

TEST(Interning, StmtNoOpSubstPreservesIdentity)
{
    StmtPtr s = Stmt::make_assign(
        "x", {var("i")}, read("y", {var("i")}, ScalarType::F32),
        ScalarType::F32);
    EXPECT_EQ(stmt_subst(s, "zz", idx_const(0)), s);
    StmtPtr loop = Stmt::make_for("i", idx_const(0), var("n"), {s});
    EXPECT_EQ(stmt_subst(loop, "zz", idx_const(0)), loop);
}

TEST(Interning, StmtHashMirrorsEquality)
{
    const char* src = R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 2.0
)";
    ProcPtr p1 = parse_proc(src);
    ProcPtr p2 = parse_proc(src);
    ASSERT_EQ(p1->body_stmts().size(), p2->body_stmts().size());
    const StmtPtr& a = p1->body_stmts()[0];
    const StmtPtr& b = p2->body_stmts()[0];
    EXPECT_NE(a, b);  // stmts are not interned...
    EXPECT_TRUE(stmt_equal(a, b));  // ...but equality holds
    EXPECT_EQ(a->structural_hash(), b->structural_hash());
    EXPECT_EQ(block_hash(p1->body_stmts()), block_hash(p2->body_stmts()));

    ProcPtr p3 = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 3.0
)");
    EXPECT_NE(p1->body_stmts()[0]->structural_hash(),
              p3->body_stmts()[0]->structural_hash());
}

// -- Memoized vs uncached cross-checks -------------------------------------

/** Collect every For statement cursor-addressable by iterator name. */
void
collect_loop_iters(const std::vector<StmtPtr>& b,
                   std::vector<std::string>* out)
{
    for (const auto& s : b) {
        if (s->kind() == StmtKind::For) {
            out->push_back(s->iter());
        }
        collect_loop_iters(s->body(), out);
        collect_loop_iters(s->orelse(), out);
    }
}

/** Compare two access summaries modulo binder alpha-renaming. */
void
expect_accesses_equiv(const std::vector<Access>& a,
                      const std::vector<Access>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].buf, b[i].buf);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].whole_buffer, b[i].whole_buffer);
        EXPECT_EQ(a[i].idx.size(), b[i].idx.size());
        EXPECT_EQ(a[i].binders.size(), b[i].binders.size());
        EXPECT_EQ(a[i].guards.size(), b[i].guards.size());
    }
}

/** Every analysis decision must be identical with and without memo. */
void
cross_check_proc(const ProcPtr& p)
{
    std::vector<std::string> iters;
    collect_loop_iters(p->body_stmts(), &iters);

    for (const auto& it : iters) {
        Cursor lc = p->find_loop(it);
        StmtPtr loop = lc.stmt();
        Context ctx = Context::at(p, lc.loc().path);

        set_analysis_memo_enabled(true);
        bool commute_m = loop_iterations_commute(ctx, loop);
        bool par_m = loop_parallelizable(ctx, loop);
        bool idem_m = block_idempotent(loop->body());
        bool lt_m = ctx.prove_lt(loop->lo(), loop->hi());
        auto accs_m = collect_accesses(loop);

        set_analysis_memo_enabled(false);
        bool commute_u = loop_iterations_commute(ctx, loop);
        bool par_u = loop_parallelizable(ctx, loop);
        bool idem_u = block_idempotent(loop->body());
        bool lt_u = ctx.prove_lt(loop->lo(), loop->hi());
        auto accs_u = collect_accesses(loop);
        set_analysis_memo_enabled(true);

        EXPECT_EQ(commute_m, commute_u) << "loop " << it;
        EXPECT_EQ(par_m, par_u) << "loop " << it;
        EXPECT_EQ(idem_m, idem_u) << "loop " << it;
        EXPECT_EQ(lt_m, lt_u) << "loop " << it;
        expect_accesses_equiv(accs_m, accs_u);
    }

    // Adjacent top-level statements: commutation decisions.
    const auto& body = p->body_stmts();
    Context root = Context::at(p, {});
    for (size_t i = 0; i + 1 < body.size(); i++) {
        set_analysis_memo_enabled(true);
        bool m = stmts_commute(root, body[i], body[i + 1]);
        set_analysis_memo_enabled(false);
        bool u = stmts_commute(root, body[i], body[i + 1]);
        set_analysis_memo_enabled(true);
        EXPECT_EQ(m, u) << "stmt pair " << i;
    }
}

/** to_affine memo entries must be bit-identical to recomputation. */
void
cross_check_affine(const ExprPtr& e)
{
    set_analysis_memo_enabled(true);
    Affine m = to_affine(e);
    set_analysis_memo_enabled(false);
    Affine u = to_affine(e);
    set_analysis_memo_enabled(true);
    EXPECT_EQ(m.constant, u.constant);
    ASSERT_EQ(m.terms.size(), u.terms.size());
    auto im = m.terms.begin();
    auto iu = u.terms.begin();
    for (; im != m.terms.end(); ++im, ++iu) {
        EXPECT_EQ(im->first, iu->first);
        EXPECT_EQ(im->second.coeff, iu->second.coeff);
        EXPECT_EQ(im->second.atom, iu->second.atom);
    }
    EXPECT_EQ(affine_hash(m), affine_hash(u));
}

TEST(MemoCrossCheck, RandomizedSchedules)
{
    std::mt19937 rng(20260728);
    const char* kBase = R"(
def f(n: size, m: size, a: f32[n, m] @ DRAM, x: f32[m] @ DRAM,
      y: f32[n] @ DRAM):
    assert n >= 16
    assert m >= 16
    for i in seq(0, n):
        for j in seq(0, m):
            y[i] += a[i, j] * x[j]
    for k in seq(0, n):
        y[k] = y[k] * 2.0
)";

    for (int trial = 0; trial < 6; trial++) {
        ProcPtr p = parse_proc(kBase);
        int fresh = 0;
        for (int step = 0; step < 5; step++) {
            std::vector<std::string> iters;
            collect_loop_iters(p->body_stmts(), &iters);
            ASSERT_FALSE(iters.empty());
            const std::string& target =
                iters[rng() % iters.size()];
            int which = static_cast<int>(rng() % 4);
            int factor = 2 << (rng() % 3);  // 2, 4, or 8
            TailStrategy tails[] = {TailStrategy::Guard, TailStrategy::Cut,
                                    TailStrategy::CutAndGuard};
            try {
                if (which == 0 || which == 1) {
                    std::string o = target + "o" + std::to_string(fresh);
                    std::string in = target + "i" + std::to_string(fresh);
                    fresh++;
                    p = divide_loop(p, target, factor, {o, in},
                                    tails[rng() % 3]);
                } else if (which == 2) {
                    p = reorder_loops(p, target);
                } else {
                    p = unroll_loop(p, target);
                }
            } catch (const SchedulingError&) {
                continue;  // rejected rewrite: fine, try another
            }
            cross_check_proc(p);
        }
        // Affine cross-checks on the final proc's loop bounds.
        std::vector<std::string> iters;
        collect_loop_iters(p->body_stmts(), &iters);
        for (const auto& it : iters) {
            StmtPtr loop = p->find_loop(it).stmt();
            cross_check_affine(loop->lo());
            cross_check_affine(loop->hi());
        }
    }
}

TEST(MemoCrossCheck, LinearQueriesAgree)
{
    // A context with div/mod axioms, queried with and without memo.
    LinearSystem sys;
    sys.add_pred(parse_expr_str("n % 8 == 0"));
    sys.add_pred(parse_expr_str("n >= 8"));
    sys.add_pred(parse_expr_str("i >= 0"));
    sys.add_pred(parse_expr_str("i < n"));
    const char* queries[] = {
        "i < n", "i <= n - 1", "n >= 4", "n / 8 * 8 == n",
        "i / 8 < n / 8 + 1", "n % 8 == 0", "i < 0", "n < 8",
    };
    for (const char* q : queries) {
        ExprPtr e = parse_expr_str(q);
        set_analysis_memo_enabled(true);
        bool m1 = sys.implies_pred(e);
        bool m2 = sys.implies_pred(e);  // second call: served from cache
        set_analysis_memo_enabled(false);
        bool u = sys.implies_pred(e);
        set_analysis_memo_enabled(true);
        EXPECT_EQ(m1, m2) << q;
        EXPECT_EQ(m1, u) << q;
    }
    for (int64_t k : {2, 4, 8, 16}) {
        set_analysis_memo_enabled(true);
        bool m = sys.implies_divisible(parse_expr_str("n"), k);
        set_analysis_memo_enabled(false);
        bool u = sys.implies_divisible(parse_expr_str("n"), k);
        set_analysis_memo_enabled(true);
        EXPECT_EQ(m, u) << "divisible by " << k;
    }
}

// -- Cursor forwarding across interned edits -------------------------------

TEST(InternedForwarding, CursorsResolveAcrossSchedule)
{
    const auto& k = kernels::find_kernel("sgemv_n");
    ProcPtr p = k.proc;
    Cursor red = p->find("y[_] += _");
    StmtPtr before = red.stmt();
    ASSERT_EQ(before->kind(), StmtKind::Reduce);

    p = divide_loop(p, "i", 8, {"io", "ii"}, TailStrategy::Guard);
    p = divide_loop(p, "j", 8, {"jo", "ji"}, TailStrategy::Guard);
    p = lift_scope(p, "jo");

    Cursor now = p->forward(red);
    ASSERT_TRUE(now.is_valid());
    StmtPtr after = now.stmt();
    ASSERT_EQ(after->kind(), StmtKind::Reduce);
    EXPECT_EQ(after->name(), "y");
    // The forwarded statement is the pattern-findable reduce.
    EXPECT_EQ(print_stmt(after), print_stmt(p->find("y[_] += _").stmt()));
}

TEST(InternedForwarding, NoOpEditKeepsProcAndCursors)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
)");
    Cursor c = p->find("x[_] = _");
    // Replacing the statement with itself is recognized as a no-op: the
    // proc is returned unchanged and the cursor still resolves.
    ProcPtr p2 = apply_replace_stmt_same_shape(p, c.loc().path, c.stmt(),
                                               "noop");
    EXPECT_EQ(p2, p);
    EXPECT_TRUE(stmt_equal(p2->forward(c).stmt(), c.stmt()));
}

TEST(InternerStatsReporting, HitsAccumulate)
{
    InternerStats before = expr_interner_stats();
    ExprPtr a = var("stat_probe_x") + idx_const(1);
    ExprPtr b = var("stat_probe_x") + idx_const(1);
    (void)a;
    (void)b;
    InternerStats after = expr_interner_stats();
    EXPECT_GT(after.hits, before.hits);  // second build hit the table
    EXPECT_GE(after.live_nodes, before.live_nodes);
}

}  // namespace
}  // namespace exo2
