/**
 * @file
 * Tests for buffer-transformation primitives (Appendix A.5).
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

const char* kStaged = R"(
def staged(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32[4] @ DRAM
        t[0] = x[i]
        y[i] = t[0] * 2.0
)";

TEST(LiftAlloc, HoistsOutOfLoop)
{
    ProcPtr p = parse_proc(kStaged);
    ProcPtr p2 = lift_alloc(p, p->find_alloc("t"));
    EXPECT_EQ(p2->body_stmts()[0]->kind(), StmtKind::Alloc);
    EXPECT_EQ(p2->body_stmts()[1]->kind(), StmtKind::For);
    expect_equiv(p, p2, {{"n", 6}});
}

TEST(LiftAlloc, RejectsIterDependentDims)
{
    const char* src = R"(
def v(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32[i + 1] @ DRAM
        t[i] = x[i]
        x[i] = t[i]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(lift_alloc(p, p->find_alloc("t")), SchedulingError);
}

TEST(LiftAlloc, RefusesLiftingOutOfParallelLoop)
{
    // Minimized from the lint fuzz corpus (drot at seeds 10007 and
    // 38007): a per-iteration scalar lifted out of a parallel loop is
    // shared by every iteration, a real race the lint race pass
    // reports as EXL201.
    const char* src = R"(
def v(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in par(0, n):
        t: f32 @ DRAM
        t = x[i]
        y[i] = t
)";
    ProcPtr p = parse_proc(src);
    try {
        lift_alloc(p, p->find_alloc("t"));
        FAIL() << "lifting out of a parallel loop must be refused";
    } catch (const SchedulingError& e) {
        std::string what = e.what();
        EXPECT_NE(what.find("parallel loop 'i'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("write t"), std::string::npos) << what;
    }
}

TEST(SinkAlloc, Inverse)
{
    ProcPtr p = parse_proc(kStaged);
    ProcPtr p2 = lift_alloc(p, p->find_alloc("t"));
    ProcPtr p3 = sink_alloc(p2, p2->find_alloc("t"));
    EXPECT_EQ(p3->body_stmts().size(), 1u);
    expect_equiv(p, p3, {{"n", 5}});
}

TEST(DeleteBuffer, RemovesDead)
{
    const char* src = R"(
def d(x: f32[4] @ DRAM):
    dead: f32[8] @ DRAM
    x[0] = 1.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = delete_buffer(p, p->find_alloc("dead"));
    EXPECT_EQ(p2->body_stmts().size(), 1u);
}

TEST(DeleteBuffer, RejectsLive)
{
    ProcPtr p = parse_proc(kStaged);
    EXPECT_THROW(delete_buffer(p, p->find_alloc("t")), SchedulingError);
}

TEST(ReuseBuffer, MergesAllocations)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    a: f32[8] @ DRAM
    a[0] = x[0]
    x[1] = a[0]
    b: f32[8] @ DRAM
    b[0] = x[1]
    x[2] = b[0]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = reuse_buffer(p, p->find_alloc("a"), p->find_alloc("b"));
    // b's alloc removed; its uses renamed to a.
    EXPECT_THROW(p2->find_alloc("b"), SchedulingError);
    expect_equiv(p, p2, {});
}

TEST(ReuseBuffer, NestedRedeclarationKeepsItsBinding)
{
    // The inner `b` is its own buffer: renaming b's uses to `a` must
    // leave it and its uses alone, not rename the declaration and then
    // strand its uses without a binding.
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    a: f32[2] @ DRAM
    a[0] = x[0]
    x[1] = a[0]
    b: f32[2] @ DRAM
    b[0] = x[2]
    for i in seq(0, 2):
        b: f32[2] @ DRAM
        b[1] = x[3]
        x[3] = b[1] * 2.0
    x[2] = b[0] * 3.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = reuse_buffer(p, p->find_alloc("a"), p->find_alloc("b"));
    std::string printed = print_proc(p2);
    EXPECT_NE(printed.find("b: f32[2]"), std::string::npos) << printed;
    EXPECT_NE(printed.find("x[3] = b[1] * 2.0"), std::string::npos)
        << printed;
    EXPECT_NE(printed.find("x[2] = a[0] * 3.0"), std::string::npos)
        << printed;
    expect_equiv(p, p2, {});
}

TEST(ReuseBuffer, RejectsLiveOverlap)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    a: f32[8] @ DRAM
    a[0] = x[0]
    b: f32[8] @ DRAM
    b[0] = x[1]
    x[2] = b[0] + a[0]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(reuse_buffer(p, p->find_alloc("a"), p->find_alloc("b")),
                 SchedulingError);
}

TEST(ResizeDim, ShrinkWithOffset)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    t: f32[16] @ DRAM
    for i in seq(0, 4):
        t[i + 8] = x[i]
    for i in seq(0, 4):
        x[i] = t[i + 8]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = resize_dim(p, p->find_alloc("t"), 0, idx_const(4),
                            idx_const(8));
    EXPECT_EQ(print_expr(p2->find_alloc("t").stmt()->dims()[0]), "4");
    expect_equiv(p, p2, {});
}

TEST(ResizeDim, RejectsEscapingAccess)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    t: f32[16] @ DRAM
    for i in seq(0, 8):
        t[i] = x[0]
    x[0] = t[7]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(
        resize_dim(p, p->find_alloc("t"), 0, idx_const(4), idx_const(0)),
        SchedulingError);
}

TEST(ExpandDim, PerIterationInstances)
{
    ProcPtr p = parse_proc(kStaged);
    // Give each iteration its own row, then lift the alloc out.
    ProcPtr p2 = expand_dim(p, p->find_alloc("t"), var("n"), var("i"));
    ProcPtr p3 = lift_alloc(p2, p2->find_alloc("t"));
    EXPECT_EQ(p3->body_stmts()[0]->dims().size(), 2u);
    expect_equiv(p, p3, {{"n", 5}});
}

TEST(ExpandDim, RejectsOutOfRangeIndex)
{
    ProcPtr p = parse_proc(kStaged);
    EXPECT_THROW(
        expand_dim(p, p->find_alloc("t"), var("n"),
                   var("i") + idx_const(1)),
        SchedulingError);
}

TEST(RearrangeDim, PermutesAccesses)
{
    const char* src = R"(
def r(x: f32[6] @ DRAM):
    t: f32[2, 3] @ DRAM
    for i in seq(0, 2):
        for j in seq(0, 3):
            t[i, j] = x[3 * i + j]
    for i in seq(0, 2):
        for j in seq(0, 3):
            x[3 * i + j] = t[i, j] * 2.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = rearrange_dim(p, p->find_alloc("t"), {1, 0});
    EXPECT_EQ(print_expr(p2->find_alloc("t").stmt()->dims()[0]), "3");
    expect_equiv(p, p2, {});
}

TEST(DivideDim, SplitsConstantDim)
{
    const char* src = R"(
def r(x: f32[16] @ DRAM):
    t: f32[16] @ DRAM
    for i in seq(0, 16):
        t[i] = x[i]
    for i in seq(0, 16):
        x[i] = t[i] + 1.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = divide_dim(p, p->find_alloc("t"), 0, 4);
    const StmtPtr& alloc = p2->find_alloc("t").stmt();
    ASSERT_EQ(alloc->dims().size(), 2u);
    EXPECT_EQ(print_expr(alloc->dims()[0]), "4");
    EXPECT_EQ(print_expr(alloc->dims()[1]), "4");
    expect_equiv(p, p2, {});
}

TEST(MultDim, FusesDims)
{
    const char* src = R"(
def r(x: f32[12] @ DRAM):
    t: f32[3, 4] @ DRAM
    for i in seq(0, 3):
        for j in seq(0, 4):
            t[i, j] = x[4 * i + j]
    for i in seq(0, 3):
        for j in seq(0, 4):
            x[4 * i + j] = t[i, j] * 3.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = mult_dim(p, p->find_alloc("t"), 0);
    EXPECT_EQ(p2->find_alloc("t").stmt()->dims().size(), 1u);
    expect_equiv(p, p2, {});
}

TEST(UnrollBuffer, ScalarExplosion)
{
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    t: f32[2] @ DRAM
    t[0] = x[0]
    t[1] = x[1]
    x[2] = t[0] + t[1]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = unroll_buffer(p, p->find_alloc("t"), 0);
    EXPECT_NE(print_proc(p2).find("t_0"), std::string::npos);
    EXPECT_NE(print_proc(p2).find("t_1"), std::string::npos);
    expect_equiv(p, p2, {});
}

TEST(UnrollBuffer, StopsAtShadowingRedeclaration)
{
    // The `t` declared inside the loop is another buffer: its accesses
    // must keep their binding, not be split into the outer `t_1`.
    const char* src = R"(
def r(x: f32[4] @ DRAM):
    t: f32[2] @ DRAM
    t[0] = x[0]
    t[1] = x[1]
    for i in seq(0, 2):
        t: f32[2] @ DRAM
        t[1] = x[3]
        x[3] = t[1] * 2.0
    x[2] = t[0] + t[1]
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = unroll_buffer(p, p->find_alloc("t"), 0);
    std::string printed = print_proc(p2);
    EXPECT_NE(printed.find("t[1] = x[3]"), std::string::npos) << printed;
    EXPECT_NE(printed.find("x[2] = t_0 + t_1"), std::string::npos)
        << printed;
    expect_equiv(p, p2, {});
}

TEST(UnrollBuffer, WindowOfTheBuffer)
{
    // A window whose dimension 0 is a constant point names one split
    // buffer and is rewritten to it. (`y = t[...]` rebinds the argument
    // `y` to the window for the rest of the body.)
    ProcPtr p = parse_proc(R"(
def r(x: f32[4] @ DRAM, y: f32[2] @ DRAM):
    t: f32[2, 2] @ DRAM
    t[0, 0] = x[0]
    t[0, 1] = x[1]
    t[1, 0] = x[2]
    t[1, 1] = x[3]
    y = t[1, 0:2]
    x[0] = y[0] + y[1]
)");
    ProcPtr p2 = unroll_buffer(p, p->find_alloc("t"), 0);
    std::string printed = print_proc(p2);
    EXPECT_NE(printed.find("y = t_1[0:2]"), std::string::npos) << printed;
    expect_equiv(p, p2, {});

    // Any other window of the buffer has no split buffer to stand for:
    // refused, never left reading the deleted `t`.
    ProcPtr across = parse_proc(R"(
def r(x: f32[4] @ DRAM, y: f32[2] @ DRAM):
    t: f32[2, 2] @ DRAM
    t[0, 0] = x[0]
    t[1, 0] = x[2]
    y = t[0:2, 0]
    x[0] = y[0] + y[1]
)");
    EXPECT_THROW(unroll_buffer(across, across->find_alloc("t"), 0),
                 SchedulingError);
    ProcPtr varying = parse_proc(R"(
def r(x: f32[4] @ DRAM, y: f32[2] @ DRAM):
    t: f32[2, 2] @ DRAM
    t[0, 0] = x[0]
    t[1, 0] = x[2]
    for i in seq(0, 2):
        y = t[i, 0:2]
        x[i] = y[0]
)");
    EXPECT_THROW(unroll_buffer(varying, varying->find_alloc("t"), 0),
                 SchedulingError);
}

TEST(BindExpr, StagesOperand)
{
    const char* src = R"(
def r(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]
)";
    ProcPtr p = parse_proc(src);
    Cursor rhs = p->find("y[_] += _").rhs();
    // Bind the whole product a * x[i].
    ProcPtr p2 = bind_expr(p, rhs, "prod");
    EXPECT_NE(print_proc(p2).find("prod: f32"), std::string::npos);
    expect_equiv(p, p2, {{"n", 7}});
}

TEST(BindExpr, BlockChecksTheReadAgainstTheLocalBuffer)
{
    // Inside the loop `x` is the local `x: f32[2]`; hoisting `x[i]`
    // above `if i < 2` reads it out of bounds for i >= 2 (the bounds
    // were once proved against the argument `x: f32[8]`).
    const char* src = R"(
def r(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    for i in seq(0, 8):
        x: f32[2] @ DRAM
        x[0] = 1.0
        x[1] = 2.0
        if i < 2:
            y[i] = x[i] + x[i]
)";
    ProcPtr p = parse_proc(src);
    ExprPtr xi = Expr::make_read("x", {var("i")}, ScalarType::F32);
    EXPECT_THROW(bind_expr_block(p, p->find("if _: _"), xi, "v"),
                 SchedulingError);
    // Under the guard the read is in bounds.
    Cursor use = p->find("y[_] = _");
    expect_equiv(p, bind_expr_block(p, use, xi, "v"), {});
}

TEST(BindExpr, CseReplacesAllOccurrences)
{
    const char* src = R"(
def r(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i] * x[i]
)";
    ProcPtr p = parse_proc(src);
    Cursor rhs = p->find("y[_] = _").rhs();
    Cursor operand = Cursor(rhs.proc(),
                            CursorLoc{CursorKind::Node,
                                      [&] {
                                          Path q = rhs.loc().path;
                                          q.push_back(
                                              {PathLabel::OpLhs, -1});
                                          return q;
                                      }(),
                                      -1});
    ProcPtr p2 = bind_expr(p, operand, "xv", /*cse=*/true);
    // Both reads replaced: x appears only in the binding assignment.
    std::string printed = print_proc(p2);
    EXPECT_NE(printed.find("xv = x[i]"), std::string::npos);
    EXPECT_NE(printed.find("y[i] = xv * xv"), std::string::npos);
    expect_equiv(p, p2, {{"n", 5}});
}

/** A cursor at the left operand of the first statement's condition. */
Cursor
cond_lhs(const ProcPtr& p)
{
    return Cursor(p, CursorLoc{CursorKind::Node,
                               {{PathLabel::Body, 0},
                                {PathLabel::Cond, -1},
                                {PathLabel::OpLhs, -1}},
                               -1});
}

TEST(BindExpr, CseReplacesInTheCondition)
{
    const char* src = R"(
def r(x: f32[1] @ DRAM, y: f32[1] @ DRAM):
    if x[0] > 0.0:
        y[0] = x[0] * 2.0
)";
    ProcPtr p = parse_proc(src);
    ProcPtr p2 = bind_expr(p, cond_lhs(p), "xv", /*cse=*/true);
    std::string printed = print_proc(p2);
    EXPECT_NE(printed.find("if xv > 0.0"), std::string::npos) << printed;
    EXPECT_NE(printed.find("y[0] = xv * 2.0"), std::string::npos)
        << printed;
    expect_equiv(p, p2, {});
}

TEST(BindExpr, CseRefusesAReadAfterAWrite)
{
    // `y[0] = x[0]` reads the 5.0 the body just wrote; the bound value
    // is the one from before the if.
    const char* src = R"(
def r(x: f32[1] @ DRAM, y: f32[1] @ DRAM):
    if x[0] > 0.0:
        x[0] = 5.0
        y[0] = x[0]
)";
    ProcPtr p = parse_proc(src);
    EXPECT_THROW(bind_expr(p, cond_lhs(p), "xv", /*cse=*/true),
                 SchedulingError);
    // Binding the one occurrence at the cursor stays sound.
    ProcPtr p2 = bind_expr(p, cond_lhs(p), "xv", /*cse=*/false);
    expect_equiv(p, p2, {});
}

TEST(StageMem, StagesWindowWithCopyInOut)
{
    const char* src = R"(
def r(n: size, A: f32[n, n] @ DRAM):
    assert n >= 8
    for i in seq(0, 4):
        for j in seq(0, 4):
            A[i, j] = A[i, j] * 2.0
)";
    ProcPtr p = parse_proc(src);
    std::vector<WindowDim> win;
    win.push_back(WindowDim{idx_const(0), idx_const(4)});
    win.push_back(WindowDim{idx_const(0), idx_const(4)});
    auto res = stage_mem(p, p->find_loop("i"), "A", win, "A_tile");
    ASSERT_TRUE(res.alloc.is_valid());
    ASSERT_TRUE(res.load.is_valid());
    ASSERT_TRUE(res.store.is_valid());
    EXPECT_EQ(res.alloc.stmt()->kind(), StmtKind::Alloc);
    expect_equiv(p, res.p, {{"n", 8}});
}

TEST(StageMem, PointDimsDropped)
{
    const char* src = R"(
def r(n: size, A: f32[n, n] @ DRAM, y: f32[n] @ DRAM):
    assert n >= 6
    for j in seq(0, 4):
        y[j] += A[2, j]
)";
    ProcPtr p = parse_proc(src);
    std::vector<WindowDim> win;
    win.push_back(WindowDim{idx_const(2), nullptr});  // point
    win.push_back(WindowDim{idx_const(0), idx_const(4)});
    auto res = stage_mem(p, p->find_loop("j"), "A", win, "row");
    EXPECT_EQ(res.alloc.stmt()->dims().size(), 1u);
    EXPECT_FALSE(res.store.is_valid());  // read-only staging
    expect_equiv(p, res.p, {{"n", 6}});
}

TEST(StageMem, RejectsEscape)
{
    const char* src = R"(
def r(n: size, A: f32[n, n] @ DRAM):
    assert n >= 8
    for i in seq(0, 5):
        A[i, 0] = 1.0
)";
    ProcPtr p = parse_proc(src);
    std::vector<WindowDim> win;
    win.push_back(WindowDim{idx_const(0), idx_const(4)});  // too small
    win.push_back(WindowDim{idx_const(0), idx_const(4)});
    EXPECT_THROW(stage_mem(p, p->find_loop("i"), "A", win, "T"),
                 SchedulingError);
}

}  // namespace
}  // namespace exo2
