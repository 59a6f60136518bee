/**
 * @file
 * Unit tests for the analysis layer: affine forms, the linear checker
 * (Fourier–Motzkin with div/mod axioms), contexts, and effects.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/analysis/effects.h"
#include "src/analysis/memo.h"
#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/util/rng.h"

namespace exo2 {
namespace {

TEST(Affine, Normalization)
{
    Affine a = to_affine(parse_expr_str("8 * io + ii + 1 - ii"));
    EXPECT_EQ(a.constant, 1);
    EXPECT_EQ(a.coeff_of("io"), 8);
    EXPECT_EQ(a.coeff_of("ii"), 0);
    EXPECT_TRUE(affine_equal(parse_expr_str("(a + b) * 2"),
                             parse_expr_str("2 * a + b + b")));
    EXPECT_FALSE(affine_equal(parse_expr_str("a * b"),
                              parse_expr_str("b * a + 1")));
}

TEST(Affine, OpaqueAtoms)
{
    Affine a = to_affine(parse_expr_str("n / 8 + n / 8"));
    EXPECT_EQ(a.coeff_of("n / 8"), 2);
    Affine b = to_affine(parse_expr_str("i * j"));
    EXPECT_EQ(b.coeff_of("i * j"), 1);
}

TEST(Affine, TermsStaySortedByKey)
{
    // Random operator[] / erase / find sequences against a std::map
    // reference: same contents, iterated in ascending key order. Keys
    // come from a small range, so inserts land before, between and
    // after existing keys, and erases hit present and absent keys.
    ExprPtr atom = var("x");
    AffineTerms terms;
    std::map<AtomKey, int64_t> ref;
    XorShiftRng rng(23);
    for (int step = 0; step < 4000; step++) {
        AtomKey key = static_cast<AtomKey>(rng.below(24));
        switch (rng.below(3)) {
          case 0: {
            int64_t c = rng.below(100) + 1;
            LinTerm& t = terms[key];
            t.atom = atom;
            t.coeff = c;
            ref[key] = c;
            break;
          }
          case 1:
            terms.erase(key);
            ref.erase(key);
            break;
          default: {
            auto it = terms.find(key);
            auto rit = ref.find(key);
            ASSERT_EQ(it == terms.end(), rit == ref.end()) << "step " << step;
            if (it != terms.end()) {
                EXPECT_EQ(it->first, key);
                EXPECT_EQ(it->second.coeff, rit->second);
            }
            break;
          }
        }
        ASSERT_EQ(terms.size(), ref.size()) << "step " << step;
        ASSERT_EQ(terms.empty(), ref.empty());
        auto rit = ref.begin();
        for (const auto& [k, t] : terms) {
            ASSERT_EQ(k, rit->first) << "step " << step;
            ASSERT_EQ(t.coeff, rit->second) << "step " << step;
            ++rit;
        }
    }
}

TEST(Linear, ScopedQueriesLeaveTheSystemUnchanged)
{
    // Names unique to this test, so the first query is a memo miss.
    LinearSystem sys;
    sys.add_pred(parse_expr_str("scq_n % 8 == 0"));
    sys.add_pred(parse_expr_str("scq_n >= 0"));
    sys.add_pred(parse_expr_str("scq_i >= 0"));
    sys.add_pred(parse_expr_str("scq_i < scq_n"));
    const size_t rows = sys.size();
    const ExprPtr first = parse_expr_str("scq_n - 1 - scq_i");

    // Asking the first query again must hit the memo with no new miss:
    // the digest after every scope is the one the first query saw.
    auto expect_first_query_hits = [&](const char* after) {
        EXPECT_EQ(sys.size(), rows) << after;
        AnalysisMemoStats before = analysis_memo_stats();
        EXPECT_TRUE(sys.implies_ge0(first)) << after;
        AnalysisMemoStats now = analysis_memo_stats();
        EXPECT_EQ(now.linear_hits, before.linear_hits + 1) << after;
        EXPECT_EQ(now.linear_misses, before.linear_misses) << after;
    };

    ASSERT_TRUE(analysis_memo_enabled());
    AnalysisMemoStats before = analysis_memo_stats();
    EXPECT_TRUE(sys.implies_ge0(first));  // miss
    EXPECT_GT(analysis_memo_stats().linear_misses, before.linear_misses);
    expect_first_query_hits("implies_ge0 miss");
    expect_first_query_hits("implies_ge0 hit");

    // Divisibility through the mod axioms (not the coefficient fast
    // path): axiomatizes new `%` atoms inside the query's scope.
    EXPECT_TRUE(sys.implies_divisible(parse_expr_str("scq_n"), 4));
    EXPECT_FALSE(sys.implies_divisible(parse_expr_str("scq_n"), 16));
    // Again: the scope also forgot which atoms it axiomatized, so the
    // second query axiomatizes `scq_n % 4` afresh.
    EXPECT_TRUE(sys.implies_divisible(parse_expr_str("scq_n"), 4));
    expect_first_query_hits("implies_divisible");

    EXPECT_TRUE(sys.implies_pred(parse_expr_str("scq_i != scq_n")));
    EXPECT_FALSE(sys.implies_pred(parse_expr_str("scq_i != 0")));
    expect_first_query_hits("implies_pred(Ne)");

    {
        LinearSystem::Scope outer(sys);
        outer.add_pred(parse_expr_str("scq_i >= scq_n"));
        const size_t with_outer = sys.size();
        EXPECT_GT(with_outer, rows);
        EXPECT_TRUE(sys.infeasible());
        {
            LinearSystem::Scope inner(sys);
            inner.add_pred(parse_expr_str("scq_j % 4 == 1"));
            EXPECT_GT(sys.size(), with_outer);
        }
        EXPECT_EQ(sys.size(), with_outer);
        EXPECT_TRUE(sys.infeasible());
    }
    EXPECT_FALSE(sys.infeasible());
    expect_first_query_hits("nested scopes");

    try {
        LinearSystem::Scope hyp(sys);
        hyp.add_pred(parse_expr_str("scq_i / 4 == 2"));
        EXPECT_GT(sys.size(), rows);
        throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
    }
    expect_first_query_hits("exception inside a scope");
}

TEST(Linear, SimpleImplication)
{
    LinearSystem sys;
    sys.add_pred(parse_expr_str("i >= 0"));
    sys.add_pred(parse_expr_str("i < n"));
    sys.add_pred(parse_expr_str("n <= 10"));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("i < 10")));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("i <= 9")));
    EXPECT_FALSE(sys.implies_pred(parse_expr_str("i < 9")));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("n > 0")));  // from i
}

TEST(Linear, DivModAxioms)
{
    LinearSystem sys;
    sys.add_pred(parse_expr_str("n % 8 == 0"));
    sys.add_pred(parse_expr_str("n >= 0"));
    EXPECT_TRUE(sys.implies_divisible(parse_expr_str("n"), 8));
    EXPECT_TRUE(sys.implies_divisible(parse_expr_str("n"), 4));
    EXPECT_FALSE(sys.implies_divisible(parse_expr_str("n"), 16));
    // (n / 8) * 8 == n when 8 | n.
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("n / 8 * 8 == n")));
}

TEST(Linear, GuardedIndexInRange)
{
    // for io in [0, n/8): for ii in [0,8): 8*io+ii < n  (given 8 | n)
    LinearSystem sys;
    sys.add_pred(parse_expr_str("n % 8 == 0"));
    sys.add_pred(parse_expr_str("n >= 0"));
    sys.add_pred(parse_expr_str("io >= 0"));
    sys.add_pred(parse_expr_str("io < n / 8"));
    sys.add_pred(parse_expr_str("ii >= 0"));
    sys.add_pred(parse_expr_str("ii < 8"));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("8 * io + ii < n")));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("8 * io + ii >= 0")));
}

TEST(Linear, CutTailBounds)
{
    // Tail loop: for ii in [0, n % 8): n/8*8 + ii < n.
    LinearSystem sys;
    sys.add_pred(parse_expr_str("n >= 0"));
    sys.add_pred(parse_expr_str("ii >= 0"));
    sys.add_pred(parse_expr_str("ii < n % 8"));
    EXPECT_TRUE(sys.implies_pred(parse_expr_str("n / 8 * 8 + ii < n")));
}

const char* kGemv = R"(
def gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]
)";

TEST(Context, AtPath)
{
    ProcPtr p = parse_proc(kGemv);
    // Context inside loop j (path: body[0].body[0].body[0]).
    Path path = {{PathLabel::Body, 0},
                 {PathLabel::Body, 0},
                 {PathLabel::Body, 0}};
    Context ctx = Context::at(p, path);
    ASSERT_EQ(ctx.binders().size(), 2u);
    EXPECT_EQ(ctx.binders()[0].name, "i");
    EXPECT_TRUE(ctx.prove_lt(var("i"), var("M")));
    EXPECT_TRUE(ctx.prove_ge0(var("j")));
    EXPECT_FALSE(ctx.prove_lt(var("i"), var("N")));
}

TEST(Context, ElseBranchOfNeKnowsEq)
{
    ProcPtr p = parse_proc(R"(
def f(a: size, b: size, x: f32[4] @ DRAM):
    if a != b:
        x[0] = 1.0
    else:
        x[1] = 2.0
)");
    Context ctx =
        Context::at(p, {{PathLabel::Body, 0}, {PathLabel::Orelse, 0}});
    EXPECT_TRUE(ctx.prove_eq(var("a"), var("b")));
}

TEST(Effects, CollectGemv)
{
    ProcPtr p = parse_proc(kGemv);
    auto accs = collect_accesses_block(p->body_stmts());
    // y reduce, A read, x read, plus index reads of i/j.
    bool saw_reduce = false;
    bool saw_a = false;
    for (const auto& a : accs) {
        if (a.buf == "y" && a.kind == AccessKind::Reduce)
            saw_reduce = true;
        if (a.buf == "A" && a.kind == AccessKind::Read) {
            saw_a = true;
            EXPECT_EQ(a.binders.size(), 2u);
        }
    }
    EXPECT_TRUE(saw_reduce);
    EXPECT_TRUE(saw_a);
}

TEST(Effects, CommuteDisjointWrites)
{
    const char* src = R"(
def foo(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
    for i in seq(0, n):
        y[i] = 2.0
)";
    ProcPtr p = parse_proc(src);
    Context ctx = Context::at(p, {{PathLabel::Body, 0}});
    EXPECT_TRUE(stmts_commute(ctx, p->body_stmts()[0], p->body_stmts()[1]));
}

TEST(Effects, NoCommuteOverlap)
{
    const char* src = R"(
def foo(n: size, x: f32[n] @ DRAM):
    x[0] = 1.0
    x[0] = 2.0
)";
    ProcPtr p = parse_proc(src);
    Context ctx = Context::at(p, {{PathLabel::Body, 0}});
    EXPECT_FALSE(stmts_commute(ctx, p->body_stmts()[0], p->body_stmts()[1]));
}

TEST(Effects, CommuteShiftedRanges)
{
    const char* src = R"(
def foo(n: size, x: f32[2 * n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
    for i in seq(0, n):
        x[n + i] = 2.0
)";
    ProcPtr p = parse_proc(src);
    Context ctx = Context::at(p, {{PathLabel::Body, 0}});
    EXPECT_TRUE(stmts_commute(ctx, p->body_stmts()[0], p->body_stmts()[1]));
}

TEST(Effects, LoopIterationsCommute)
{
    ProcPtr p = parse_proc(kGemv);
    Context ctx = Context::at(p, {{PathLabel::Body, 0}});
    // gemv outer loop: iterations write disjoint y[i]; A/x reads only.
    EXPECT_TRUE(loop_iterations_commute(ctx, p->body_stmts()[0]));
    // Inner loop: reductions into the same y[i] — commute (reduction),
    // but not parallelizable.
    Context ctx2 = Context::inside(p, {{PathLabel::Body, 0}});
    const StmtPtr& inner = p->body_stmts()[0]->body()[0];
    EXPECT_TRUE(loop_iterations_commute(ctx2, inner));
    EXPECT_FALSE(loop_parallelizable(ctx2, inner));
}

TEST(Effects, LoopCarriedDependence)
{
    const char* src = R"(
def foo(n: size, x: f32[n + 1] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i + 1]
)";
    ProcPtr p = parse_proc(src);
    Context ctx = Context::at(p, {{PathLabel::Body, 0}});
    std::string why;
    EXPECT_FALSE(loop_iterations_commute(ctx, p->body_stmts()[0], &why));
}

TEST(Effects, LoopConflictsReportEachUnorderedPairOnce)
{
    // The pair loop visits (write t, read t) and (read t, write t); the
    // dedup key used to hold references into two destroyed temporaries.
    // The names are long enough that the rendered accesses live on the
    // heap, where ASan reports the use after free.
    ProcPtr p = parse_proc(R"(
def foo(n: size, samples: f32[n + 1] @ DRAM):
    carried_total: f32 @ DRAM
    for i in seq(0, n):
        carried_total = samples[i + 1]
        samples[i] = carried_total
)");
    Context ctx = Context::at(p, {{PathLabel::Body, 1}});
    std::vector<LoopConflict> conflicts;
    ASSERT_TRUE(loop_conflicts(ctx, p->body_stmts()[1],
                               /*reductions_ok=*/false, &conflicts));
    std::set<std::pair<std::string, std::string>> pairs;
    for (const LoopConflict& c : conflicts) {
        std::string a = describe_access(c.a);
        std::string b = describe_access(c.b);
        EXPECT_NE(c.detail.find(a), std::string::npos) << c.detail;
        EXPECT_NE(c.detail.find(b), std::string::npos) << c.detail;
        auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
        EXPECT_TRUE(pairs.insert(key).second)
            << "reported twice: " << c.detail;
    }
    std::set<std::pair<std::string, std::string>> want = {
        {"write carried_total", "write carried_total"},
        {"read carried_total", "write carried_total"},
        {"read samples[i + 1]", "write samples[i]"},
    };
    EXPECT_EQ(pairs, want);
}

TEST(Effects, Idempotence)
{
    ProcPtr p = parse_proc(R"(
def foo(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = y[i]
    for i in seq(0, n):
        x[i] += y[i]
)");
    EXPECT_TRUE(stmt_idempotent(p->body_stmts()[0]));
    EXPECT_FALSE(stmt_idempotent(p->body_stmts()[1]));
}

}  // namespace
}  // namespace exo2
