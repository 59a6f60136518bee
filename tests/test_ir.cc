/**
 * @file
 * Unit tests for the object IR: construction, printing, parsing
 * round-trips, structural equality, and substitution.
 */

#include <gtest/gtest.h>

#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"

namespace exo2 {
namespace {

const char* kGemv = R"(
def gemv(M: size, N: size, A: f32[M, N] @ DRAM, x: f32[N] @ DRAM, y: f32[M] @ DRAM):
    assert M % 8 == 0
    assert N % 8 == 0
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += A[i, j] * x[j]
)";

TEST(IrParse, GemvStructure)
{
    ProcPtr p = parse_proc(kGemv);
    EXPECT_EQ(p->name(), "gemv");
    ASSERT_EQ(p->args().size(), 5u);
    EXPECT_TRUE(p->args()[0].is_size);
    EXPECT_EQ(p->args()[2].name, "A");
    ASSERT_EQ(p->args()[2].dims.size(), 2u);
    EXPECT_EQ(p->preds().size(), 2u);
    ASSERT_EQ(p->body_stmts().size(), 1u);
    const StmtPtr& loop_i = p->body_stmts()[0];
    EXPECT_EQ(loop_i->kind(), StmtKind::For);
    EXPECT_EQ(loop_i->iter(), "i");
    ASSERT_EQ(loop_i->body().size(), 1u);
    const StmtPtr& loop_j = loop_i->body()[0];
    EXPECT_EQ(loop_j->iter(), "j");
    const StmtPtr& red = loop_j->body()[0];
    EXPECT_EQ(red->kind(), StmtKind::Reduce);
    EXPECT_EQ(red->name(), "y");
    EXPECT_EQ(red->rhs()->kind(), ExprKind::BinOp);
}

TEST(IrParse, RoundTrip)
{
    ProcPtr p = parse_proc(kGemv);
    std::string printed = print_proc(p);
    ProcPtr p2 = parse_proc(printed);
    EXPECT_EQ(printed, print_proc(p2));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

TEST(IrParse, AllocAndIf)
{
    const char* src = R"(
def foo(n: size, x: f32[n] @ DRAM):
    tmp: f32[8] @ AVX2
    for i in seq(0, n):
        if i < 8:
            tmp[i] = x[i]
        else:
            pass
)";
    ProcPtr p = parse_proc(src);
    const StmtPtr& alloc = p->body_stmts()[0];
    EXPECT_EQ(alloc->kind(), StmtKind::Alloc);
    EXPECT_EQ(alloc->mem()->name(), "AVX2");
    const StmtPtr& iff = p->body_stmts()[1]->body()[0];
    EXPECT_EQ(iff->kind(), StmtKind::If);
    EXPECT_EQ(iff->orelse().size(), 1u);
    // Round trip.
    ProcPtr p2 = parse_proc(print_proc(p));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

TEST(IrParse, WindowExprAndCall)
{
    const char* instr_src = R"(
def ld8(dst: [f32][8] @ AVX2, src: [f32][8] @ DRAM):
    for i in seq(0, 8):
        dst[i] = src[i]
)";
    ProcPtr ld8 = parse_proc(instr_src);
    const char* src = R"(
def foo(x: f32[64] @ DRAM):
    v: f32[8] @ AVX2
    for i in seq(0, 8):
        ld8(v[0:8], x[8 * i:8 * i + 8])
)";
    ProcPtr p = parse_proc(src, {ld8});
    const StmtPtr& call = p->body_stmts()[1]->body()[0];
    ASSERT_EQ(call->kind(), StmtKind::Call);
    EXPECT_EQ(call->callee()->name(), "ld8");
    ASSERT_EQ(call->args().size(), 2u);
    EXPECT_EQ(call->args()[0]->kind(), ExprKind::Window);
    EXPECT_EQ(call->args()[1]->kind(), ExprKind::Window);
}

TEST(IrParse, WindowStatementDeclaresAFreshName)
{
    ProcPtr p = parse_proc(R"(
def w(t: f32[4, 2] @ DRAM, z: f32[2] @ DRAM):
    y = t[1, 0:2]
    z[0] = y[1]
)");
    const StmtPtr& decl = p->body_stmts()[0];
    ASSERT_EQ(decl->kind(), StmtKind::WindowDecl);
    EXPECT_EQ(decl->name(), "y");
    EXPECT_EQ(print_expr(p->body_stmts()[1]->rhs()), "y[1]");
}

TEST(IrExpr, SubstAndEquality)
{
    ExprPtr e = parse_expr_str("8 * io + ii + 1");
    ExprPtr e2 = expr_subst(e, "ii", idx_const(3));
    EXPECT_EQ(print_expr(e2), "8 * io + 3 + 1");
    EXPECT_EQ(e, parse_expr_str("8 * io + ii + 1"));
    EXPECT_NE(e, parse_expr_str("8 * io + ii + 2"));
}

TEST(IrScope, OneRuleForEveryWalk)
{
    // for k in seq(0, k): x[k] = 1.0   -- only the bounds see the outer k
    // if k < 3: x[k] = 2.0
    // k: f32[k]                        -- its dims see the outer k
    // x[k] = 3.0                       -- sees the re-declaration
    ExprPtr k = var("k");
    auto write = [&](double v) {
        return Stmt::make_assign("x", {k}, num_const(v), ScalarType::F32);
    };
    std::vector<StmtPtr> b = {
        Stmt::make_for("k", idx_const(0), k, {write(1.0)}),
        Stmt::make_if(lt(k, idx_const(3)), {write(2.0)}),
        Stmt::make_alloc("k", ScalarType::F32, {k}, nullptr),
        write(3.0),
    };
    ExprPtr seven = idx_const(7);
    std::vector<StmtPtr> out = block_subst(b, "k", seven);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0]->hi(), seven);
    EXPECT_EQ(out[0]->body(), b[0]->body());  // the iterator's k
    EXPECT_EQ(out[1]->cond(), lt(seven, idx_const(3)));
    EXPECT_EQ(out[1]->body()[0]->idx()[0], seven);
    EXPECT_EQ(out[2]->dims()[0], seven);
    EXPECT_EQ(out[3], b[3]);  // out of scope: identity kept

    // The visiting helpers reach the same statements, outer before
    // inner, and a walk that carries facts is asked to enter exactly
    // the bodies in scope: both sides of the if, its empty else too.
    std::vector<StmtPtr> seen;
    std::vector<PathLabel> entered;
    EXPECT_FALSE(any_block_in_scope(
        b, "k",
        [&](const StmtPtr& s) {
            seen.push_back(s);
            return false;
        },
        [&](const StmtPtr& s, PathLabel body,
            const std::function<bool()>& walk) {
            EXPECT_EQ(s, b[1]);
            entered.push_back(body);
            return walk();
        }));
    EXPECT_EQ(seen, (std::vector<StmtPtr>{b[0], b[1], b[1]->body()[0],
                                          b[2]}));
    EXPECT_EQ(entered,
              (std::vector<PathLabel>{PathLabel::Body, PathLabel::Orelse}));
}

TEST(IrScope, BindingAtResolvesTheInnermostDeclaration)
{
    ProcPtr p = parse_proc(R"(
def b(n: size, x: f32[8] @ DRAM, y: f32[8] @ DRAM):
    y[0] = x[0]
    for i in seq(0, 2):
        y[i] = x[i]
        x: f32[2, 3] @ DRAM
        for x in seq(0, 2):
            y[x] = 1.0
        x[i, 0] = 1.0
        w = x[i, 0:3]
        y[i] = w[2]
    y[1] = x[1]
)");
    auto at = [&](std::vector<PathStep> path, const std::string& name) {
        return binding_at(p, path, name);
    };
    const PathLabel B = PathLabel::Body;
    // The argument, before and after the loop.
    EXPECT_EQ(at({{B, 0}}, "x").arg, p->find_arg("x"));
    EXPECT_EQ(at({{B, 2}}, "x").arg, p->find_arg("x"));
    // In the loop: the argument until the re-declaration, then the
    // local, except under the For that rebinds the name.
    EXPECT_EQ(at({{B, 1}, {B, 0}}, "x").arg, p->find_arg("x"));
    Binding local = at({{B, 1}, {B, 3}}, "x");
    EXPECT_EQ(local.decl, p->body_stmts()[1]->body()[1]);
    EXPECT_EQ(binding_dims(local).size(), 2u);
    EXPECT_EQ(at({{B, 1}, {B, 1}}, "x").arg, p->find_arg("x"));  // own dims
    Binding iter = at({{B, 1}, {B, 2}, {B, 0}}, "x");
    ASSERT_TRUE(iter.decl);
    EXPECT_EQ(iter.decl->kind(), StmtKind::For);
    EXPECT_TRUE(binding_dims(iter).empty());
    EXPECT_EQ(at({{B, 1}, {B, 2}}, "x").decl, local.decl);  // own bounds
    EXPECT_EQ(at({{B, 1}, {B, 0}}, "i").decl, p->body_stmts()[1]);
    // A window's shape is its interval extents; a gap path works too.
    Binding w = at({{B, 1}, {B, 6}}, "w");
    ASSERT_TRUE(w.decl);
    ASSERT_EQ(binding_dims(w).size(), 1u);
    EXPECT_EQ(print_expr(binding_dims(w)[0]), "3 - 0");
    EXPECT_FALSE(at({{B, 3}}, "w"));
    EXPECT_FALSE(at({{B, 0}}, "nope"));
}

TEST(IrScope, CaptureCheckFindsAnOuterUseAfterADeclaration)
{
    ProcPtr p = parse_proc(R"(
def c(t: f32[8] @ DRAM, y: f32[8] @ DRAM):
    t: f32[4] @ DRAM
    t[0] = 1.0
    y[0] = t[0]
)");
    const auto& b = p->body_stmts();
    std::vector<StmtPtr> decl(b.begin(), b.begin() + 1);
    std::vector<StmtPtr> use(b.begin() + 2, b.end());
    EXPECT_EQ(captured_name(decl, use), "t");
    EXPECT_EQ(captured_name(use, decl), "");
    // A list that re-declares the name before using it captures nothing.
    EXPECT_EQ(captured_name(decl, b), "");
}

TEST(IrExpr, Uses)
{
    ExprPtr e = parse_expr_str("A[i, j] + x[j]");
    EXPECT_TRUE(expr_uses(e, "A"));
    EXPECT_TRUE(expr_uses(e, "j"));
    EXPECT_FALSE(expr_uses(e, "y"));
}

TEST(IrStmt, Equality)
{
    ProcPtr a = parse_proc(kGemv);
    ProcPtr b = parse_proc(kGemv);
    EXPECT_TRUE(block_equal(a->body_stmts(), b->body_stmts()));
    EXPECT_FALSE(procs_equivalent(a, b));  // distinct roots
    ProcPtr c = a->renamed("gemv2");
    EXPECT_TRUE(procs_equivalent(a, c));
}

TEST(IrProc, ConfigWrite)
{
    const char* src = R"(
def foo(n: size):
    cfg.stride = n
    cfg.stride = n + 1
)";
    ProcPtr p = parse_proc(src);
    EXPECT_EQ(p->body_stmts()[0]->kind(), StmtKind::WriteConfig);
    EXPECT_EQ(p->body_stmts()[0]->name(), "cfg");
    EXPECT_EQ(p->body_stmts()[0]->field(), "stride");
    ProcPtr p2 = parse_proc(print_proc(p));
    EXPECT_TRUE(block_equal(p->body_stmts(), p2->body_stmts()));
}

}  // namespace
}  // namespace exo2
