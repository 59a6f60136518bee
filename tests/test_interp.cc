/**
 * @file
 * Interpreter tests: windows and views, calls through instruction
 * semantics bodies, configuration state, extern functions, integer
 * conversion semantics, and dynamic checking.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/interp/interp.h"
#include "src/ir/errors.h"
#include "src/machine/machine.h"

namespace exo2 {
namespace {

TEST(Interp, BasicLoopAndReduce)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, res: f32[1] @ DRAM):
    for i in seq(0, n):
        res[0] += x[i]
)");
    Buffer x(ScalarType::F32, {4});
    Buffer r(ScalarType::F32, {1});
    x.fill(1.5);
    r.fill(0);
    interp_run(p, {RunArg::make_size(4), RunArg::make_buffer(&x),
                   RunArg::make_buffer(&r)});
    EXPECT_FLOAT_EQ(static_cast<float>(r.at(0)), 6.0f);
}

TEST(Interp, WindowsCompose)
{
    ProcPtr callee = parse_proc(R"(
def fill(dst: [f32][2, 2] @ DRAM):
    for i in seq(0, 2):
        for j in seq(0, 2):
            dst[i, j] = 7.0
)");
    ProcPtr p = parse_proc(R"(
def f(A: f32[4, 4] @ DRAM):
    fill(A[1:3, 2:4])
)",
                           {callee});
    Buffer a(ScalarType::F32, {4, 4});
    a.fill(0);
    interp_run(p, {RunArg::make_buffer(&a)});
    EXPECT_EQ(a.at(1 * 4 + 2), 7.0);
    EXPECT_EQ(a.at(2 * 4 + 3), 7.0);
    EXPECT_EQ(a.at(0), 0.0);
    EXPECT_EQ(a.at(1 * 4 + 1), 0.0);
}

TEST(Interp, InstructionSemantics)
{
    // A masked load through the instruction's semantics body.
    const VecInstrSet& s = machine_avx2().instrs(ScalarType::F32);
    ProcPtr p = parse_proc(R"(
def f(x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    v: f32[8] @ AVX2
    mm256_maskz_loadu_ps(5, v[0:8], x[0:5])
    mm256_storeu_ps(y[0:8], v[0:8])
)",
                           {s.load_pred, s.store});
    Buffer x(ScalarType::F32, {8});
    Buffer y(ScalarType::F32, {8});
    x.fill(3.0);
    y.fill(-1.0);
    interp_run(p, {RunArg::make_buffer(&x), RunArg::make_buffer(&y)});
    EXPECT_EQ(y.at(0), 3.0);
    EXPECT_EQ(y.at(4), 3.0);
    EXPECT_EQ(y.at(5), 0.0);  // masked lanes stay zero-initialized
}

TEST(Interp, ConfigState)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[2] @ DRAM):
    cfg.v = 4
    x[0] = cfg.v
    cfg.v = 9
    x[1] = cfg.v
)");
    Buffer x(ScalarType::F32, {2});
    interp_run(p, {RunArg::make_buffer(&x)});
    EXPECT_EQ(x.at(0), 4.0);
    EXPECT_EQ(x.at(1), 9.0);
}

TEST(Interp, ExternsAndIntegerConversion)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[3] @ DRAM, y: i8[3] @ DRAM):
    y[0] = clamp_i8(x[0])
    y[1] = relu(x[1])
    y[2] = abs(x[2])
)");
    Buffer x(ScalarType::F32, {3});
    Buffer y(ScalarType::I8, {3});
    x.set(0, 300.0);
    x.set(1, -5.0);
    x.set(2, -2.0);
    interp_run(p, {RunArg::make_buffer(&x), RunArg::make_buffer(&y)});
    EXPECT_EQ(y.at(0), 127.0);  // clamped
    EXPECT_EQ(y.at(1), 0.0);    // relu
    EXPECT_EQ(y.at(2), 2.0);    // abs
}

TEST(Interp, DynamicBoundsCheck)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    x[n] = 1.0
)");
    Buffer x(ScalarType::F32, {4});
    EXPECT_THROW(
        interp_run(p, {RunArg::make_size(4), RunArg::make_buffer(&x)}),
        InternalError);
}

TEST(Interp, PointWindowIndexChecked)
{
    // A point index must lie in [0, dim): on f32[8, 4], A[0:8, 4] would
    // otherwise alias A[1][0] and A[0:8, -1] would alias A[0][3].
    ProcPtr g = parse_proc(R"(
def g(dst: [f32][8] @ DRAM):
    dst[1] = 1.0
)");
    auto call = [&](const std::string& col) {
        return parse_proc("def f(A: f32[8, 4] @ DRAM):\n    g(A[0:8, " +
                              col + "])\n",
                          {g});
    };
    Buffer a(ScalarType::F32, {8, 4});
    a.fill(0);
    EXPECT_THROW(interp_run(call("4"), {RunArg::make_buffer(&a)}),
                 InternalError);
    EXPECT_THROW(interp_run(call("-1"), {RunArg::make_buffer(&a)}),
                 InternalError);
    for (int64_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a.at(i), 0.0) << "element " << i;
    interp_run(call("3"), {RunArg::make_buffer(&a)});
    EXPECT_EQ(a.at(1 * 4 + 3), 1.0);
}

TEST(Interp, RankLimit)
{
    // Views hold their dims inline, up to kMaxRank = 8.
    ProcPtr p8 = parse_proc(R"(
def f(x: f32[1, 1, 1, 1, 1, 1, 1, 2] @ DRAM):
    x[0, 0, 0, 0, 0, 0, 0, 1] = 5.0
)");
    Buffer x8(ScalarType::F32, {1, 1, 1, 1, 1, 1, 1, 2});
    interp_run(p8, {RunArg::make_buffer(&x8)});
    EXPECT_EQ(x8.at(1), 5.0);
    ProcPtr p9 = parse_proc(R"(
def f(x: f32[1, 1, 1, 1, 1, 1, 1, 1, 1] @ DRAM):
    pass
)");
    Buffer x9(ScalarType::F32, {1, 1, 1, 1, 1, 1, 1, 1, 1});
    EXPECT_THROW(interp_run(p9, {RunArg::make_buffer(&x9)}), InternalError);
}

TEST(Interp, AssertChecking)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    assert n % 2 == 0
    for i in seq(0, n):
        x[i] = 1.0
)");
    Buffer x(ScalarType::F32, {3});
    EXPECT_THROW(
        interp_run(p, {RunArg::make_size(3), RunArg::make_buffer(&x)}),
        InternalError);
}

TEST(Interp, StrideExpr)
{
    ProcPtr p = parse_proc(R"(
def f(A: f32[3, 5] @ DRAM, x: f32[2] @ DRAM):
    x[0] = stride(A, 0)
    x[1] = stride(A, 1)
)");
    Buffer a(ScalarType::F32, {3, 5});
    Buffer x(ScalarType::F32, {2});
    interp_run(p, {RunArg::make_buffer(&a), RunArg::make_buffer(&x)});
    EXPECT_EQ(x.at(0), 5.0);
    EXPECT_EQ(x.at(1), 1.0);
}

}  // namespace
}  // namespace exo2
