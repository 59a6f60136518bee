/**
 * @file
 * Tests for loop-transformation primitives: each checks both the
 * resulting structure and interpreter equivalence, plus safety
 * rejection cases.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/primitives/primitives.h"
#include "tests/test_support.h"

namespace exo2 {
namespace {

using testing_support::expect_equiv;

const char* kGemv = R"(
def gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]
)";

const char* kAxpy = R"(
def axpy(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]
)";

TEST(DivideLoop, PerfectStructure)
{
    ProcPtr g = parse_proc(kGemv);
    ProcPtr g2 = divide_loop(g, "i", 8, {"io", "ii"},
                             TailStrategy::Perfect);
    Cursor io = g2->find_loop("io");
    EXPECT_EQ(print_expr(io.stmt()->hi()), "M / 8");
    Cursor ii = g2->find_loop("ii");
    EXPECT_EQ(print_expr(ii.stmt()->hi()), "8");
    expect_equiv(g, g2, {{"M", 16}, {"N", 8}});
}

TEST(DivideLoop, PerfectRejectsUnprovable)
{
    ProcPtr g = parse_proc(kGemv);
    EXPECT_THROW(divide_loop(g, "i", 3, {"io", "ii"},
                             TailStrategy::Perfect),
                 SchedulingError);
}

TEST(DivideLoop, GuardEquivalence)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = divide_loop(a, "i", 8, {"io", "ii"}, TailStrategy::Guard);
    // Guard strategy handles any n.
    expect_equiv(a, a2, {{"n", 13}});
    expect_equiv(a, a2, {{"n", 16}});
    expect_equiv(a, a2, {{"n", 1}});
}

TEST(DivideLoop, CutEquivalence)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = divide_loop(a, "i", 8, {"io", "ii"}, TailStrategy::Cut);
    EXPECT_EQ(a2->body_stmts().size(), 2u);
    expect_equiv(a, a2, {{"n", 13}});
    expect_equiv(a, a2, {{"n", 24}});
    expect_equiv(a, a2, {{"n", 7}});
}

TEST(DivideLoop, CutAndGuardEquivalence)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = divide_loop(a, "i", 4, {"io", "ii"},
                             TailStrategy::CutAndGuard);
    const StmtPtr& tail = a2->body_stmts()[1];
    EXPECT_EQ(tail->kind(), StmtKind::If);
    expect_equiv(a, a2, {{"n", 11}});
}

TEST(DivideLoop, ForwardingIntoBody)
{
    ProcPtr g = parse_proc(kGemv);
    Cursor red = g->find("y[_] += _");
    ProcPtr g2 = divide_loop(g, "i", 8, {"io", "ii"},
                             TailStrategy::Perfect);
    Cursor red2 = g2->forward(red);
    ASSERT_TRUE(red2.is_valid());
    EXPECT_EQ(red2.stmt()->kind(), StmtKind::Reduce);
    // The rewritten reduce now indexes via 8*io + ii.
    EXPECT_NE(print_stmt(red2.stmt()).find("io"), std::string::npos);
}

TEST(TilingLikeThePaper, Tile2DGemv)
{
    // Section 3.1: divide i, divide j, lift jo.
    ProcPtr g = parse_proc(kGemv);
    g = divide_loop(g, "i", 8, {"io", "ii"}, TailStrategy::Perfect);
    ProcPtr g0 = g;
    g = divide_loop(g, "j", 8, {"jo", "ji"}, TailStrategy::Perfect);
    g = lift_scope(g, "jo");
    // Expect loop order io, jo, ii, ji.
    const StmtPtr& io = g->body_stmts()[0];
    EXPECT_EQ(io->iter(), "io");
    EXPECT_EQ(io->body()[0]->iter(), "jo");
    EXPECT_EQ(io->body()[0]->body()[0]->iter(), "ii");
    EXPECT_EQ(io->body()[0]->body()[0]->body()[0]->iter(), "ji");
    expect_equiv(g0, g, {{"M", 16}, {"N", 16}});
}

TEST(ReorderLoops, RejectsCarriedDependence)
{
    const char* src = R"(
def smooth(n: size, x: f32[n + 1, n + 1] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i + 1, j] = x[i, j + 1]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(reorder_loops(p, "i"), SchedulingError);
}

TEST(ReorderLoops, RefusalNamesTheConflictingBuffer)
{
    const char* src = R"(
def smooth(n: size, x: f32[n + 1, n + 1] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i + 1, j] = x[i, j + 1]
)";
    ProcPtr p = parse_proc(src);
    try {
        reorder_loops(p, "i");
        FAIL() << "reorder_loops accepted a carried dependence";
    } catch (const SchedulingError& e) {
        EXPECT_NE(std::string(e.what()).find("'x'"), std::string::npos)
            << e.what();
    }
}

TEST(ReorderLoops, LoopLocalBufferDoesNotHideTheOuterOne)
{
    // The body reads and writes the outer `t` before re-declaring it:
    // the outer `t` carries a value across both loops, so the
    // iterations do not commute. Reordered, y = (1, 4, 11, 26) became
    // (1, 12, 5, 28) for x = (1, 2, 3, 4).
    const char* src = R"(
def r(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    t: f32[1] @ DRAM
    t[0] = 0.0
    for i in seq(0, 2):
        for j in seq(0, 2):
            t[0] = t[0] * 2.0 + x[2 * i + j]
            y[2 * i + j] = t[0]
            t: f32[1] @ DRAM
            t[0] = 0.0
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(reorder_loops(p, "i"), SchedulingError);
    // Control: a body whose every access is to its own `t` commutes.
    ProcPtr q = parse_proc(R"(
def r(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    for i in seq(0, 2):
        for j in seq(0, 2):
            t: f32[1] @ DRAM
            t[0] = x[2 * i + j]
            y[2 * i + j] = t[0]
)");
    expect_equiv(q, reorder_loops(q, "i"), {});
}

TEST(ReorderLoops, AcceptsIndependent)
{
    ProcPtr g = parse_proc(kGemv);
    ProcPtr g2 = reorder_loops(g, "i");
    EXPECT_EQ(g2->body_stmts()[0]->iter(), "j");
    expect_equiv(g, g2, {{"M", 8}, {"N", 8}});
}

TEST(CutLoop, SplitsRange)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = a->with_assertion(parse_expr_str("n >= 4"));
    ProcPtr a3 = cut_loop(a2, a2->find_loop("i"), idx_const(4));
    EXPECT_EQ(a3->body_stmts().size(), 2u);
    expect_equiv(a2, a3, {{"n", 10}});
}

TEST(CutLoop, RejectsUnprovableCutoff)
{
    ProcPtr a = parse_proc(kAxpy);
    EXPECT_THROW(cut_loop(a, a->find_loop("i"), idx_const(4)),
                 SchedulingError);
}

TEST(JoinLoops, Rejoins)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = a->with_assertion(parse_expr_str("n >= 4"));
    ProcPtr a3 = cut_loop(a2, a2->find_loop("i"), idx_const(4));
    ProcPtr a4 = join_loops(a3, a3->find_loop("i"), a3->find_loop("i #1"));
    EXPECT_EQ(a4->body_stmts().size(), 1u);
    expect_equiv(a2, a4, {{"n", 9}});
}

TEST(ShiftLoop, RebasedIteration)
{
    ProcPtr a = parse_proc(kAxpy);
    ProcPtr a2 = shift_loop(a, a->find_loop("i"), idx_const(5));
    EXPECT_EQ(print_expr(a2->body_stmts()[0]->lo()), "5");
    expect_equiv(a, a2, {{"n", 12}});
}

TEST(Fission, SplitsIndependentHalves)
{
    const char* src = R"(
def two(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
        y[i] = 2.0
)";
    ProcPtr p = parse_proc(src);
    Cursor first = p->find("x[_] = _");
    ProcPtr p2 = fission(p, first.after());
    EXPECT_EQ(p2->body_stmts().size(), 2u);
    expect_equiv(p, p2, {{"n", 9}});
}

TEST(Fission, RejectsCrossDependence)
{
    const char* src = R"(
def bad(n: size, x: f32[2 * n] @ DRAM, y: f32[2 * n] @ DRAM):
    for i in seq(0, n):
        x[i] = y[i]
        y[i + 1] = x[i]
)";
    // Fissioning would make all x[i]=y[i] run before any y[i+1]=x[i],
    // but iteration i+1 reads y[i+1] written by iteration i.
    ProcPtr p = parse_proc(src);
    Cursor first = p->find("x[_] = _");
    EXPECT_THROW(fission(p, first.after()), SchedulingError);
}

TEST(Fission, RejectsAllocDependence)
{
    const char* src = R"(
def withalloc(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = x[i]
        x[i] = t + 1.0
)";
    ProcPtr p = parse_proc(src);
    Cursor mid = p->find("t = _");
    EXPECT_THROW(fission(p, mid.after()), SchedulingError);
}

TEST(RemoveLoop, RemovesIdempotent)
{
    const char* src = R"(
def r(n: size, x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    assert n > 0
    for i in seq(0, n):
        x[0] = y[0]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = remove_loop(p, p->find_loop("i"));
    EXPECT_EQ(p2->body_stmts()[0]->kind(), StmtKind::Assign);
    expect_equiv(p, p2, {{"n", 3}});
}

TEST(RemoveLoop, RejectsReduction)
{
    const char* src = R"(
def r(n: size, x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    assert n > 0
    for i in seq(0, n):
        x[0] += y[0]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(remove_loop(p, p->find_loop("i")), SchedulingError);
}

TEST(RemoveLoop, RejectsPossiblyEmpty)
{
    const char* src = R"(
def r(n: size, x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    for i in seq(0, n):
        x[0] = y[0]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(remove_loop(p, p->find_loop("i")), SchedulingError);
}

TEST(RemoveLoop, PossiblyEmptyLoopMayOnlyWriteItsOwnBuffers)
{
    // `t` is declared outside the loop and zero-filled: with n = 0 the
    // original leaves y[0] = 0, and running the body once would make
    // it 1. Deciding "local" by "not an argument" accepted it.
    ProcPtr p = parse_proc(R"(
def r(n: size, y: f32[1] @ DRAM):
    t: f32[1] @ DRAM
    for i in seq(0, n):
        t[0] = 1.0
    y[0] = t[0]
)");
    EXPECT_THROW(remove_loop(p, p->find_loop("i")), SchedulingError);
    ProcPtr q = parse_proc(R"(
def r(n: size, y: f32[1] @ DRAM):
    for i in seq(0, n):
        t: f32[1] @ DRAM
        t[0] = 1.0
)");
    expect_equiv(q, remove_loop(q, q->find_loop("i")), {{"n", 0}});
}

TEST(AddLoop, WrapAndInverse)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    x[0] = y[0]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = add_loop(p, p->find("x[_] = _"), "k", idx_const(3));
    EXPECT_EQ(p2->body_stmts()[0]->kind(), StmtKind::For);
    expect_equiv(p, p2, {});
    ProcPtr p3 = add_loop(p, p->find("x[_] = _"), "k", idx_const(3),
                          /*guard=*/true);
    const StmtPtr& loop = p3->body_stmts()[0];
    EXPECT_EQ(loop->body()[0]->kind(), StmtKind::If);
    expect_equiv(p, p3, {});
}

TEST(UnrollLoop, FullUnroll)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    for i in seq(0, 4):
        x[i] = y[i] * 2.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = unroll_loop(p, "i");
    EXPECT_EQ(p2->body_stmts().size(), 4u);
    EXPECT_EQ(print_stmt(p2->body_stmts()[2]), "x[2] = y[2] * 2.0\n");
    expect_equiv(p, p2, {});
}

TEST(UnrollLoop, RefusesCaptureByAnEarlierCopy)
{
    // Copy k's `t: f32[4]` would capture copy k+1's read of the outer
    // `t` (the interpreter then failed with "index 5 not in [0, 4)").
    const char* src = R"(
def r(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    t: f32[8] @ DRAM
    for i in seq(0, 8):
        t[i] = x[i]
    for io in seq(0, 4):
        for ii in seq(0, 2):
            y[2 * io + ii] = t[2 * io + ii]
            t: f32[4] @ DRAM
            t[0] = 1.0
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(unroll_loop(p, "ii"), SchedulingError);
    // A copy that declares its `t` before using it captures nothing.
    ProcPtr q = parse_proc(R"(
def r(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    for io in seq(0, 4):
        for ii in seq(0, 2):
            t: f32[4] @ DRAM
            t[0] = x[2 * io + ii]
            y[2 * io + ii] = t[0]
)");
    expect_equiv(q, unroll_loop(q, "ii"), {});
}

TEST(UnrollLoop, RejectsSymbolicBounds)
{
    ProcPtr a = parse_proc(kAxpy);
    EXPECT_THROW(unroll_loop(a, "i"), SchedulingError);
}

TEST(MultLoops, FlattensPerfectNest)
{
    ProcPtr g = parse_proc(kGemv);
    ProcPtr g1 = divide_loop(g, "j", 8, {"jo", "ji"},
                             TailStrategy::Perfect);
    Cursor jo = g1->find_loop("jo");
    ProcPtr g2 = mult_loops(g1, jo, "jf");
    Cursor jf = g2->find_loop("jf");
    EXPECT_EQ(print_expr(jf.stmt()->hi()), "N / 8 * 8");
    expect_equiv(g, g2, {{"M", 8}, {"N", 16}});
}

TEST(DivideWithRecompute, OverlappedTiles)
{
    const char* src = R"(
def blur(W: size, y: f32[W + 2] @ DRAM, x: f32[W + 2] @ DRAM):
    assert W % 8 == 0
    for i in seq(0, W + 2):
        y[i] = x[i]
)";
    ProcPtr p = parse_proc(src);
    // W+2 elements computed by W/8 tiles of width 10 (recompute 8 each).
    ProcPtr p2 = divide_with_recompute(
        p, p->find_loop("i"), parse_expr_str("W / 8"), 8, {"io", "ii"});
    expect_equiv(p, p2, {{"W", 24}});
}

TEST(LiftScope, IfOutOfLoop)
{
    const char* src = R"(
def r(n: size, k: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        if k > 2:
            x[i] = 1.0
)";
    ProcPtr p = parse_proc(src);
    Cursor iff = p->find("if _: _");
    ProcPtr p2 = lift_scope(p, iff);
    EXPECT_EQ(p2->body_stmts()[0]->kind(), StmtKind::If);
    expect_equiv(p, p2, {{"n", 5}, {"k", 3}});
    expect_equiv(p, p2, {{"n", 5}, {"k", 1}});
}

TEST(LiftScope, RejectsIterDependentCondition)
{
    const char* src = R"(
def r(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        if i > 2:
            x[i] = 1.0
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(lift_scope(p, p->find("if _: _")), SchedulingError);
}

TEST(LiftScope, LoopOutOfIf)
{
    const char* src = R"(
def r(n: size, k: size, x: f32[n] @ DRAM):
    if k > 2:
        for i in seq(0, n):
            x[i] = 1.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = lift_scope(p, p->find_loop("i"));
    EXPECT_EQ(p2->body_stmts()[0]->kind(), StmtKind::For);
    expect_equiv(p, p2, {{"n", 4}, {"k", 5}});
    expect_equiv(p, p2, {{"n", 4}, {"k", 0}});
}

TEST(LiftScope, IfInIfWithElses)
{
    const char* src = R"(
def r(a: size, b: size, x: f32[4] @ DRAM):
    if a > 2:
        if b > 3:
            x[0] = 1.0
        else:
            x[1] = 2.0
    else:
        x[2] = 3.0
)";
    ProcPtr p = parse_proc(src);
    Cursor inner = p->find("if b > 3: _");
    ProcPtr p2 = lift_scope(p, inner);
    const StmtPtr& outer = p2->body_stmts()[0];
    EXPECT_EQ(print_expr(outer->cond()), "b > 3");
    for (int64_t a = 1; a <= 4; a++) {
        for (int64_t b = 2; b <= 5; b++)
            expect_equiv(p, p2, {{"a", a}, {"b", b}});
    }
}

}  // namespace
}  // namespace exo2
