/**
 * @file
 * Tests for the Halide reproduction (Section 6.3.2): bounds inference,
 * compute_at/store_at fusion with recompute, and the complete Figure 12
 * blur schedule, with interpreter equivalence.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/inspect/bounds.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/kernels/image.h"
#include "src/sched/halide.h"
#include "tests/test_support.h"

namespace exo2 {
namespace {

using testing_support::expect_equiv;

TEST(BoundsInference, StencilWindow)
{
    // The paper's Section 4 example: arr accessed within
    // [32*io : 32*io + 34] inside the io loop.
    const char* src = R"(
def f(N: size, arr: f32[32 * N + 2] @ DRAM, x: f32[32 * N] @ DRAM):
    for io in seq(0, N):
        for ii in seq(0, 32):
            x[32 * io + ii] = arr[32 * io + ii] + arr[32 * io + ii + 1] + arr[32 * io + ii + 2]
)";
    ProcPtr p = parse_proc(src);
    auto b = inspect::infer_bounds(p, p->find_loop("io"), "arr");
    ASSERT_EQ(b.size(), 1u);
    Context ctx = Context::inside(p, p->find_loop("io").loc().path);
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].lo)), "32 * io");
    // The inner binder ii is NOT eliminated here (it is bound inside
    // the scope): [32*io, 32*io+ii+3) per access; union keeps the
    // extreme ii = 31, giving the paper's [32*io : 32*io + 34].
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].hi)), "32 * io + 34");
}

TEST(BoundsInference, EliminatesInnerBinders)
{
    const char* src = R"(
def f(N: size, arr: f32[34 * N] @ DRAM, x: f32[N] @ DRAM):
    for io in seq(0, N):
        for ii in seq(0, 34):
            x[io] += arr[32 * io + ii]
)";
    ProcPtr p = parse_proc(src);
    auto b = inspect::infer_bounds(p, p->find_loop("io"), "arr");
    ASSERT_EQ(b.size(), 1u);
    Context ctx = Context::inside(p, p->find_loop("io").loc().path);
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].lo)), "32 * io");
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].hi)), "32 * io + 34");
}

TEST(BoundsInference, NestedRedeclarationIsAnotherBuffer)
{
    const char* src = R"(
def f(N: size, arr: f32[32 * N + 2] @ DRAM, x: f32[32 * N] @ DRAM):
    for io in seq(0, N):
        for ii in seq(0, 32):
            x[32 * io + ii] = arr[32 * io + ii]
            for k in seq(0, 1):
                arr: f32[64] @ DRAM
                arr[ii + 32] = 1.0
)";
    ProcPtr p = parse_proc(src);
    auto b = inspect::infer_bounds(p, p->find_loop("io"), "arr");
    ASSERT_EQ(b.size(), 1u);
    Context ctx = Context::inside(p, p->find_loop("io").loc().path);
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].lo)), "32 * io");
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].hi)), "32 * io + 32");
    // Only the local is written in the scope.
    EXPECT_THROW(inspect::infer_write_bounds(p, p->find_loop("io"), "arr"),
                 SchedulingError);
}

TEST(BoundsInference, SeesWindowsPassedToCalls)
{
    ProcPtr ld8 = parse_proc(R"(
def ld8(dst: [f32][8] @ AVX2, src: [f32][8] @ DRAM):
    for i in seq(0, 8):
        dst[i] = src[i]
)");
    ProcPtr p = parse_proc(R"(
def f(N: size, arr: f32[32 * N + 12] @ DRAM, x: f32[32 * N] @ DRAM):
    v: f32[8] @ AVX2
    for io in seq(0, N):
        ld8(v[0:8], arr[32 * io + 4:32 * io + 12])
        x[32 * io] = arr[32 * io]
)",
                           {ld8});
    auto b = inspect::infer_read_bounds(p, p->find_loop("io"), "arr");
    ASSERT_EQ(b.size(), 1u);
    Context ctx = Context::inside(p, p->find_loop("io").loc().path);
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].lo)), "32 * io");
    EXPECT_EQ(print_expr(simplify_expr(ctx, b[0].hi)), "32 * io + 12");
    // A whole buffer passed to a call has no bounds to infer.
    ProcPtr q = parse_proc(R"(
def g(a: f32[8] @ DRAM):
    v: f32[8] @ AVX2
    for k in seq(0, 1):
        ld8(v, a)
)",
                           {ld8});
    EXPECT_THROW(inspect::infer_bounds(q, q->find_loop("k"), "a"),
                 SchedulingError);
}

TEST(Halide, TileBlur)
{
    ProcPtr p = kernels::blur();
    ProcPtr t = sched::H_tile(p, "blur_y", "y", "x", "yi", "xi", 32, 256);
    // Loop order y, x, yi, xi over the blur_y nest.
    Cursor store = t->find("blur_y[_] = _");
    (void)store;
    EXPECT_NO_THROW(t->find_loop("yi"));
    EXPECT_NO_THROW(t->find_loop("xi"));
    expect_equiv(p, t, {{"H", 32}, {"W", 256}});
}

TEST(Halide, ComputeStoreAtBlur)
{
    ProcPtr p = kernels::blur();
    ProcPtr t = sched::H_tile(p, "blur_y", "y", "x", "yi", "xi", 32, 256);
    ProcPtr f;
    ASSERT_NO_THROW(f = sched::H_compute_store_at(t, "blur_x", "blur_y",
                                                  "x"));
    // The producer allocation now lives inside the tile and is small.
    Cursor ac = f->find_alloc("blur_x");
    ASSERT_EQ(ac.stmt()->dims().size(), 2u);
    EXPECT_EQ(print_expr(ac.stmt()->dims()[0]), "34");
    EXPECT_EQ(print_expr(ac.stmt()->dims()[1]), "256");
    expect_equiv(p, f, {{"H", 32}, {"W", 256}});
    expect_equiv(p, f, {{"H", 64}, {"W", 512}});
}

TEST(Halide, FullBlurSchedule)
{
    ProcPtr p = kernels::blur();
    ProcPtr s;
    ASSERT_NO_THROW(
        s = sched::schedule_blur_like_halide(p, machine_avx512()));
    std::string printed = print_proc(s);
    EXPECT_NE(printed.find("mm512_"), std::string::npos) << printed;
    EXPECT_NE(printed.find("DRAM_STACK"), std::string::npos);
    EXPECT_NE(printed.find("par("), std::string::npos);
    expect_equiv(p, s, {{"H", 32}, {"W", 256}}, 2e-4);
    expect_equiv(p, s, {{"H", 64}, {"W", 512}}, 2e-4);
}

TEST(Halide, FullUnsharpSchedule)
{
    ProcPtr p = kernels::unsharp();
    ProcPtr s;
    ASSERT_NO_THROW(
        s = sched::schedule_unsharp_like_halide(p, machine_avx512()));
    expect_equiv(p, s, {{"H", 32}, {"W", 256}}, 2e-4);
}

}  // namespace
}  // namespace exo2
