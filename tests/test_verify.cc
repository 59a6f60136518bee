/**
 * @file
 * Differential verification subsystem tests (DESIGN.md §4).
 *
 * Three layers:
 *  1. Directed floor-division/modulo semantics tests across the
 *     simplifier, the interpreter, and the C backend (the C backend
 *     used to emit truncating `/` and `%`).
 *  2. Minimized regression tests for every divergence the schedule
 *     fuzzer found during development (scope capture by specialize /
 *     add_loop / fuse / join_loops, binder-blind reorder_stmts /
 *     inline_assign / access rewriting, uninitialized locals and
 *     duplicate declarations in generated C, condition hoisting in
 *     lift_scope, an inner iterator hoisted by the tuner's t_cse).
 *  3. Tri-oracle parity for every kernel scheduled through the
 *     sched/ library entry points, plus the seeded fuzz loop itself
 *     (>= 200 random schedules across >= 5 kernels by default, the
 *     tuner's t_* moves among the drawn steps;
 *     EXO2_VERIFY_FUZZ_SEEDS scales the budget).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "src/analysis/context.h"
#include "src/codegen/c_codegen.h"
#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/primitives/primitives.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace {

using verify::apply_fuzz_step;
using verify::fuzz_repro_string;
using verify::fuzz_schedule;
using verify::FuzzResult;
using verify::FuzzStep;
using verify::SizeEnv;
using verify::tri_oracle_check;

// ---- 1. Floor division / modulo across all three layers -----------------

TEST(FloorDivMod, SimplifierConstantFolding)
{
    ProcPtr dummy = parse_proc(R"(
def d(n: size, x: f32[n] @ DRAM):
    pass
)");
    Context ctx = Context::at(dummy, {});
    SizeEnv none;
    auto fold = [&](const ExprPtr& e) {
        // simplify renders negative constants as USub(Const); evaluate
        // the folded form rather than matching its shape.
        return verify::eval_index_expr(simplify_expr(ctx, e), none);
    };
    // Negative numerator: floor, not truncation ([0, c) remainder).
    EXPECT_EQ(fold(idx_const(-7) / idx_const(2)), -4);
    EXPECT_EQ(fold(idx_const(-7) % idx_const(2)), 1);
    // Exactly divisible and zero numerators are unaffected.
    EXPECT_EQ(fold(idx_const(0) / idx_const(4)), 0);
    EXPECT_EQ(fold(idx_const(-8) / idx_const(2)), -4);
    EXPECT_EQ(fold(idx_const(-8) % idx_const(2)), 0);
}

TEST(FloorDivMod, InterpreterFloorSemantics)
{
    // y[i] = x[(i - n)/2 + n] exercises negative numerators at runtime.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[(i - n) / 2 + n]
)");
    Buffer x(ScalarType::F32, {4});
    Buffer y(ScalarType::F32, {4});
    for (int i = 0; i < 4; i++)
        x.set(i, 10.0 + i);
    interp_run(p, {RunArg::make_size(4), RunArg::make_buffer(&x),
                   RunArg::make_buffer(&y)});
    // floor((i-4)/2)+4 for i=0..3 is 2, 2, 3, 3 (truncation gives
    // 2, 3, 3, 4 — the last of which is out of bounds).
    EXPECT_EQ(y.at(0), 12.0);
    EXPECT_EQ(y.at(1), 12.0);
    EXPECT_EQ(y.at(2), 13.0);
    EXPECT_EQ(y.at(3), 13.0);
}

TEST(FloorDivMod, CodegenEmitsFloorHelpers)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[(i - 3) % n] + x[(i - n) / 2 + n]
)");
    std::string c = codegen_c(p);
    EXPECT_NE(c.find("exo2_fdiv("), std::string::npos) << c;
    EXPECT_NE(c.find("exo2_fmod("), std::string::npos) << c;
    std::string unit = codegen_c_unit(p);
    EXPECT_NE(unit.find("static inline int64_t exo2_fdiv"),
              std::string::npos);
    EXPECT_NE(unit.find("static inline int64_t exo2_fmod"),
              std::string::npos);
}

TEST(FloorDivMod, TriOracleNegativeDiv)
{
    // Before the fix, C's truncating `/` indexed x[4] out of bounds
    // (caught by the guard canaries) and disagreed with the
    // interpreter on i = 1.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[(i - n) / 2 + n]
)");
    auto rep = tri_oracle_check(p, p, {{"n", 4}}, 11);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FloorDivMod, TriOracleNegativeMod)
{
    // Floor-mod keeps (i - 3) % n in [0, n); C's truncating `%` went
    // negative for i < 3 and read out of bounds.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[(i - 3) % n]
)");
    auto rep = tri_oracle_check(p, p, {{"n", 5}}, 12);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

// ---- 2. Minimized regressions from fuzzer-found divergences -------------

TEST(FuzzRegression, ReorderStmtsRefusesAllocPastUse)
{
    // Found on drot: effects analysis sees no data conflict between an
    // Alloc and a write to the alloc'd name, so reorder_stmts happily
    // moved the declaration after its first use.
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    t: f32 @ DRAM
    t = x[0]
    x[0] = t
)");
    Cursor alloc = p->find_alloc("t");
    Cursor use = p->find("t = _");
    EXPECT_THROW(reorder_stmts(p, alloc, use), SchedulingError);
}

TEST(FuzzRegression, SpecializeRefusesEscapingAlloc)
{
    // Found on drot: specializing just the Alloc statement moved the
    // declaration into the if's branches, leaving later uses unbound.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = x[i]
        x[i] = t
)");
    Cursor alloc = p->find_alloc("t");
    ExprPtr cond = Expr::make_binop(
        BinOpKind::Eq, Expr::make_binop(BinOpKind::Mod, var("n"),
                                        idx_const(2)),
        idx_const(0));
    EXPECT_THROW(specialize(p, alloc, {cond}), SchedulingError);
}

TEST(FuzzRegression, AddLoopRefusesEscapingAlloc)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        t = x[i]
        x[i] = t
)");
    Cursor alloc = p->find_alloc("t");
    EXPECT_THROW(add_loop(p, alloc, "k", idx_const(2), /*guard=*/true),
                 SchedulingError);
}

TEST(FuzzRegression, InlineAssignRefusesLiveOutsideScope)
{
    // Found on drot: the assignment sat alone inside a guarded loop
    // inserted by add_loop; inline_assign deleted it although the
    // destination is read after the loop.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        t: f32 @ DRAM
        for k in seq(0, 1):
            t = x[i] * 2.0
        x[i] = t
)");
    Cursor assign = p->find("t = _");
    EXPECT_THROW(inline_assign(p, assign), SchedulingError);
}

TEST(FuzzRegression, ShadowedBranchSurvivesExpandDim)
{
    // Minimized from drot seed 38007: add_loop + specialize duplicate
    // the body; lift_alloc hoists the then-branch's alloc to the top;
    // expand_dim on it must NOT rewrite the else-branch accesses that
    // bind to the (shadowing) inner declaration.
    ProcPtr p = kernels::find_kernel("drot").proc;
    std::vector<FuzzStep> steps = {
        {"add_loop", {351202, 911829, 575302}, {"fzl4"}},
        {"specialize_size", {478206, 187113, 320796}, {}},
        {"lift_alloc", {784616, 537881, 131891}, {}},
        {"expand_dim", {470114, 1047226, 674767}, {}},
    };
    ProcPtr cur = p;
    for (const auto& st : steps)
        ASSERT_NO_THROW(cur = apply_fuzz_step(cur, st));
    // The else branch keeps its scalar accesses (its own binder).
    std::string printed = print_proc(cur);
    EXPECT_NE(printed.find("x[i] = xt\n"), std::string::npos) << printed;
    auto rep = tri_oracle_check(p, cur, {{"n", 17}}, 38007);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, DuplicateUnrolledAllocSurvivesExpandDim)
{
    // Minimized from drot seed 128007: unroll_loop copies the body of
    // a divided loop, duplicating the xt Alloc within one list; the
    // second declaration shadows the first, so expand_dim on the first
    // must stop rewriting at it (it used to index the still-scalar
    // second xt).
    ProcPtr p = kernels::find_kernel("drot").proc;
    std::vector<FuzzStep> steps = {
        {"divide", {97186, 3, 555190}, {"fz6o", "fz6i"}},
        {"unroll", {901369, 9528, 240498}, {}},
        {"expand_dim", {310733, 616438, 747705}, {}},
    };
    ProcPtr cur = p;
    for (const auto& st : steps)
        ASSERT_NO_THROW(cur = apply_fuzz_step(cur, st));
    auto rep = tri_oracle_check(p, cur, {{"n", 17}}, 128007);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, SinkAllocRefusesElseBranchUses)
{
    // Minimized from strmv_lnn seed 122007: specialize duplicated the
    // uses of a hoisted temp into both branches of an if; sink_alloc
    // then moved the declaration into the then-branch only, leaving
    // the else-branch writes unbound. (The seed drew specialize_data,
    // whose `A[0, 0] >= 0.0` is now refused there, as N may be 0; a
    // size condition splits the same statement.)
    ProcPtr p = kernels::find_kernel("strmv_lnn").proc;
    std::vector<FuzzStep> steps = {
        {"divide", {487725, 2, 350438}, {"fz1o", "fz1i"}},
        {"bind_expr", {322795, 196594, 1042061}, {"fzb2"}},
        {"lift_alloc", {792222, 43315, 394401}, {}},
        {"specialize_size", {395233, 95150, 555721}, {}},
    };
    ProcPtr cur = p;
    for (const auto& st : steps)
        ASSERT_NO_THROW(cur = apply_fuzz_step(cur, st));
    EXPECT_THROW(apply_fuzz_step(
                     cur, {"sink_alloc", {452684, 644764, 606769}, {}}),
                 SchedulingError);
    auto rep = tri_oracle_check(p, cur, {{"N", 13}}, 122007);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, FuseRefusesIteratorCapture)
{
    // Minimized from strmv_lnn seed 27007: fusing two divide_loop
    // products renamed the first loop's iterator to `fz22i`, which a
    // loop nested in the first body re-binds — the substituted
    // references were captured and indexed out of bounds.
    ProcPtr p = parse_proc(R"(
def f(x: f32[8] @ DRAM):
    for a in seq(0, 2):
        for b in seq(0, 3):
            x[3 * a + b] = 1.0
    for b in seq(0, 2):
        x[b] = x[b] + 1.0
)");
    Cursor l1 = p->find_loop("a");
    Cursor l2 = p->find_loop("b #1");
    EXPECT_THROW(fuse(p, l1, l2), SchedulingError);
}

TEST(FuzzRegression, JoinLoopsRefusesIteratorCapture)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[8] @ DRAM):
    for a in seq(0, 2):
        x[a] = 1.0
    for c in seq(2, 4):
        for a in seq(0, 1):
            x[c + a] = 1.0
)");
    Cursor l1 = p->find_loop("a");
    Cursor l2 = p->find_loop("c");
    EXPECT_THROW(join_loops(p, l1, l2), SchedulingError);
}

TEST(FuzzRegression, UnrolledDuplicateLocalsStillCompile)
{
    // unroll_loop copies the body, Alloc included: the C backend used
    // to emit two `float t;` declarations in one scope.
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    for i in seq(0, 4):
        t: f32 @ DRAM
        t = x[i]
        x[i] = y[i]
        y[i] = t
)");
    ProcPtr u = unroll_loop(p, p->find_loop("i"));
    std::string c = codegen_c(u);
    EXPECT_NE(c.find("t_2"), std::string::npos) << c;
    auto rep = tri_oracle_check(p, u, {}, 5);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, GeneratedCZeroInitializesAllocations)
{
    // The object language zero-fills fresh allocations (the
    // interpreter and the maskz instruction semantics both rely on
    // it); generated C read stack garbage instead.
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    t: f32[4] @ DRAM
    s: f32 @ DRAM
    x[0] = t[3] + s
)");
    std::string c = codegen_c(p);
    EXPECT_NE(c.find("__builtin_memset(t, 0, sizeof(t));"),
              std::string::npos)
        << c;
    EXPECT_NE(c.find("float s = 0;"), std::string::npos) << c;
    auto rep = tri_oracle_check(p, p, {}, 3);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, LiftScopeRefusesConditionWrittenByBody)
{
    // for i: if x[0] >= 0: x[0] = -1  re-evaluates the condition each
    // iteration; hoisting the if outside would evaluate it once.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        if x[0] >= 0.0:
            x[0] = 0.0 - 1.0
)");
    Cursor iff = p->find_loop("i").body()[0];
    EXPECT_THROW(lift_scope(p, iff), SchedulingError);

    // And the converse direction: if x[0] >= 0: for i: x[0] = -1.
    ProcPtr q = parse_proc(R"(
def g(n: size, x: f32[n] @ DRAM):
    if x[0] >= 0.0:
        for i in seq(0, n):
            x[0] = 0.0 - 1.0
)");
    EXPECT_THROW(lift_scope(q, q->find_loop("i")), SchedulingError);
}

TEST(FuzzRegression, WindowDeclUsesBaseStrides)
{
    // The old lowering gave a window declaration dense dims taken from
    // the window's *hi* bounds, mislinearizing every non-suffix
    // 2-D window; strides now come from the base buffer.
    ProcPtr callee = parse_proc(R"(
def fill(dst: [f32][2, 2] @ DRAM):
    for i in seq(0, 2):
        for j in seq(0, 2):
            dst[i, j] = dst[i, j] + 7.0
)");
    // The concrete syntax has no window-declaration statement; build
    // `w = A[1:3, 2:4]; fill(w)` programmatically (stage_mem creates
    // the same shape).
    ProcPtr shell = parse_proc(R"(
def f(A: f32[4, 6] @ DRAM):
    pass
)");
    ExprPtr win = Expr::make_window(
        "A",
        {WindowDim{idx_const(1), idx_const(3)},
         WindowDim{idx_const(2), idx_const(4)}},
        ScalarType::F32);
    StmtPtr wd = Stmt::make_window_decl("w", win, ScalarType::F32);
    StmtPtr call = Stmt::make_call(
        callee, {Expr::make_read("w", {}, ScalarType::F32)});
    ProcPtr p = Proc::make("f", shell->args(), {}, {wd, call});
    auto rep = tri_oracle_check(p, p, {}, 21);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

/** Replay a recorded chain, every step of which must apply, and check
 *  the result against the kernel on all three oracles. */
void
expect_chain_agrees(const ProcPtr& p, const std::string& chain,
                    const SizeEnv& env, uint64_t seed)
{
    ProcPtr cur = p;
    for (const FuzzStep& st : verify::script_from_string(chain))
        ASSERT_NO_THROW(cur = apply_fuzz_step(cur, st))
            << verify::step_to_string(st);
    auto rep = tri_oracle_check(p, cur, env, seed);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, CseReadsKeepsInnerIteratorBoundOnBlur)
{
    // Tuner moves alone. Dividing a loop of `W % 32` iterations by 32
    // leaves a provably zero-trip main loop, whose infeasible facts
    // proved the hoisted read `... xii ...` in bounds vacuously:
    // t_cse's cse_reads bound it above the `for xii` loop
    // (bind_expr_block refused block-local allocs, not inner
    // iterators). The interpreter never entered the loop; the C
    // compiler rejected `xii` as undeclared.
    expect_chain_agrees(kernels::blur(),
                        "t_uaj[2,4]\nt_divide[3,32,0;xo,xi]\nt_uaj[0,2]\n"
                        "t_vectorize[9,0;AVX2,f32]\n"
                        "t_divide[7,32,0;xio,xii]\nt_uaj[5,2]\nt_cse[9]\n",
                        {{"H", 32}, {"W", 256}}, 4051);
}

TEST(FuzzRegression, CseReadsKeepsInnerIteratorBoundOnSgemv)
{
    // The same bug reached through a mixed chain (sgemv_n seed 60007):
    // the read of `fz3i` was hoisted above its loop.
    expect_chain_agrees(kernels::find_kernel("sgemv_n").proc,
                        "t_divide[0,256,0;io,ii]\n"
                        "divide[777827,3,309821;fz3o,fz3i]\n"
                        "t_uaj[1,4]\nt_vectorize[11,1;AVX2,f32]\n"
                        "dce[892844,192403,503436]\n"
                        "simplify[622349,495283,314734]\n"
                        "t_divide[1,16,0;iioo,iioi]\nt_cse[8]\n",
                        {{"M", 9}, {"N", 13}}, 60007);
}

TEST(FuzzRegression, CseReadsKeepsInnerIteratorBoundOnSgemm)
{
    // And on sgemm seed 45007, hoisting a read of `jiio`.
    expect_chain_agrees(kernels::sgemm(),
                        "t_divide[2,8,0;jo,ji]\nt_divide[4,256,0;jio,jii]\n"
                        "t_divide[5,16,0;jiio,jiii]\n"
                        "cut[668624,29623,540304]\nt_cse[4]\n"
                        "bind_config[378842,195285,830048;fzcfg,f9]\n"
                        "expand_dim[908712,683027,187403]\n"
                        "divide_dim[11208,440735,742188]\n",
                        {{"M", 6}, {"N", 10}, {"K", 7}}, 45007);
}

/** A kernel that re-declares names: a loop-local `t` declared after a
 *  read of the outer `t`, and the argument `x` shadowed by a 2-D local
 *  inside a nested loop. */
const char* kShadowKernel = R"(
def shadow(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    assert n % 2 == 0
    t: f32[n] @ DRAM
    for i in seq(0, n):
        t[i] = x[i] * 2.0
    for i in seq(0, n):
        y[i] = t[i] + x[i]
        t: f32[4] @ DRAM
        t[0] = y[i]
        for j in seq(0, 2):
            x: f32[2, 2] @ DRAM
            x[j, 0] = t[0] + 1.0
            x[j, 1] = x[j, 0] * 0.5
            y[i] += x[j, 1]
)";

/** Replay `chain` on the shadowing kernel: every step but the last
 *  applies, the last is refused, and what applied agrees with the
 *  kernel on all three oracles. */
void
expect_last_step_refused(const std::string& chain, uint64_t seed)
{
    ProcPtr p = parse_proc(kShadowKernel);
    std::vector<FuzzStep> steps = verify::script_from_string(chain);
    ASSERT_FALSE(steps.empty());
    ProcPtr cur = p;
    for (size_t i = 0; i + 1 < steps.size(); i++)
        ASSERT_NO_THROW(cur = apply_fuzz_step(cur, steps[i]))
            << verify::step_to_string(steps[i]);
    EXPECT_THROW(apply_fuzz_step(cur, steps.back()), SchedulingError)
        << verify::step_to_string(steps.back());
    auto rep = tri_oracle_check(p, cur, {{"n", 12}}, seed);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, UnrollAndJamRefusesCaptureByAnEarlierCopy)
{
    // Shadow seed 3007: unrolling the `i` loop placed copy k's
    // `t: f32[4]` before copy k+1's read of the outer `t[4 * io + 1]`
    // ("index 5 not in [0, 4)").
    expect_last_step_refused("t_uaj[1,4]\n", 3007);
}

TEST(FuzzRegression, InterleaveRefusesCaptureAfterFission)
{
    // Shadow seed 2007: the same capture, reached by interleaving a
    // loop that fission left holding the read of the outer `t` and
    // the re-declaration (an arity mismatch on the interpreter's view).
    expect_last_step_refused("t_interleave[0,2]\n"
                             "fission[409124,424792,467374]\n"
                             "t_interleave[3,2]\n",
                             2007);
}

TEST(FuzzRegression, SpecializeDataRefusesAConditionOnAShadowedBuffer)
{
    // Shadow seeds 40007 and 7007: specialize_data's `x[0] >= 0.0`
    // was inserted where `x` is the 2-D local (an arity mismatch), at
    // the top of the loop body and after a cut.
    expect_last_step_refused("specialize_data[145738,741304,104231]\n",
                             40007);
    expect_last_step_refused("cut[73319,517531,511120]\n"
                             "specialize_data[690414,730751,962547]\n",
                             7007);
}

TEST(FuzzRegression, VectorizeKeepsAGuardedDeclarationWithItsUses)
{
    // sgemm seed 10007, once fission stopped refusing uses of a name
    // that its first half declares only in a nested scope: t_vectorize
    // distributed a lane guard over `fzb5: f32[8, 8]` and its uses
    // (split_guard), leaving the uses unbound; the C compiler rejected
    // the undeclared `fzb5`.
    ProcPtr p = kernels::sgemm();
    std::vector<FuzzStep> steps = verify::script_from_string(
        "bind_expr[915297,758991,471078;fzb5]\nt_vectorize[0,1;AVX2,f32]\n");
    ProcPtr cur = p;
    ASSERT_NO_THROW(cur = apply_fuzz_step(cur, steps[0]));
    EXPECT_THROW(apply_fuzz_step(cur, steps[1]), SchedulingError);
    auto rep = tri_oracle_check(p, cur, {{"M", 6}, {"N", 10}, {"K", 7}},
                                10007);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(FuzzRegression, LargeLocalArrayRunsInTheSandbox)
{
    // Minimized from blur seed 19007 in the ASan+UBSan tree: three
    // expand_dims make blur_x a 278 KB local array. The sandboxed
    // child's RLIMIT_AS, already exceeded by ASan's shadow memory,
    // made its stack growth fault, and lint had (rightly) proven the
    // schedule safe: a false lint-soundness report.
    expect_chain_agrees(kernels::blur(),
                        "expand_dim[817559,877732,989037]\n"
                        "expand_dim[76606,984808,991973]\n"
                        "expand_dim[746027,179759,610451]\n",
                        {{"H", 32}, {"W", 256}}, 19007);
}

// ---- 3. Tri-oracle parity for library-scheduled kernels -----------------

TEST(TriOracleParity, Level1AllKernels)
{
    for (const auto& k : kernels::blas_level1()) {
        ProcPtr opt;
        ASSERT_NO_THROW(opt = sched::optimize_level_1(
                            k.proc, k.proc->find_loop(k.main_loop),
                            k.prec, machine_avx2(), 2))
            << k.name;
        // 19 exercises the masked ragged tail.
        auto rep = tri_oracle_check(k.proc, opt, {{"n", 19}}, 1019);
        EXPECT_TRUE(rep.ok) << k.name << ": " << rep.detail;
    }
}

TEST(TriOracleParity, Level2AllKernels)
{
    for (const auto& k : kernels::blas_level2()) {
        ProcPtr opt;
        ASSERT_NO_THROW(opt = sched::optimize_level_2_general(
                            k.proc, k.proc->find_loop(k.main_loop),
                            k.prec, machine_avx2(), 2, 2))
            << k.name;
        SizeEnv env;
        if (k.proc->find_arg("M"))
            env["M"] = 13;
        if (k.proc->find_arg("N"))
            env["N"] = 9;
        // Triangular solves amplify rounding through the recurrence.
        double tol_scale =
            k.name.find("trsv") != std::string::npos ? 1e3 : 1.0;
        auto rep = tri_oracle_check(k.proc, opt, env, 2029, tol_scale);
        EXPECT_TRUE(rep.ok) << k.name << ": " << rep.detail;
    }
}

TEST(TriOracleParity, RegisterTiledSgemm)
{
    ProcPtr base = kernels::sgemm();
    ProcPtr p = sched::sgemm_with_asserts(base, machine_avx2());
    ProcPtr s;
    ASSERT_NO_THROW(s = sched::schedule_sgemm(p, machine_avx2()));
    auto rep = tri_oracle_check(p, s, {{"M", 8}, {"N", 16}, {"K", 5}},
                                3031, /*tol_scale=*/10.0);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST(TriOracleParity, HalideBlurAndUnsharp)
{
    ProcPtr blur = kernels::blur();
    ProcPtr sb;
    ASSERT_NO_THROW(
        sb = sched::schedule_blur_like_halide(blur, machine_avx2()));
    auto rep = tri_oracle_check(blur, sb, {{"H", 32}, {"W", 256}}, 4051);
    EXPECT_TRUE(rep.ok) << rep.detail;

    ProcPtr unsharp = kernels::unsharp();
    ProcPtr su;
    ASSERT_NO_THROW(su = sched::schedule_unsharp_like_halide(
                        unsharp, machine_avx2()));
    auto rep2 =
        tri_oracle_check(unsharp, su, {{"H", 32}, {"W", 256}}, 4051);
    EXPECT_TRUE(rep2.ok) << rep2.detail;
}

// ---- 4. The seeded schedule fuzzer --------------------------------------

TEST(VerifyFuzz, DeterministicFaultIsMinimized)
{
    // A zero-trip loop reading an unbound name: the interpreter never
    // enters it, but the C oracle cannot compile it, so a chain that
    // keeps the loop faults. The parser rejects such a proc; build it.
    ProcPtr shell = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] + 1.0
)");
    std::vector<StmtPtr> body = shell->body_stmts();
    body.push_back(Stmt::make_for(
        "j", idx_const(0), idx_const(0),
        {Stmt::make_assign("x", {idx_const(0)},
                           Expr::make_read("ghost", {}, ScalarType::F32),
                           ScalarType::F32)}));
    ProcPtr p = Proc::make("f", shell->args(), {}, body);
    FuzzResult r = fuzz_schedule(p, {{"n", 12}}, 2007);
    ASSERT_EQ(r.status, FuzzResult::Status::Fault)
        << fuzz_repro_string("f", 2007, r);
    // No fault injection is active, so the fault replays faithfully and
    // ddmin drops the steps it does not need.
    EXPECT_LT(r.minimized.size(), r.applied.size())
        << fuzz_repro_string("f", 2007, r);
    ProcPtr cur = p;
    for (const FuzzStep& st : r.minimized)
        cur = apply_fuzz_step(cur, st);
    EXPECT_TRUE(tri_oracle_check(p, cur, {{"n", 12}}, 2007).is_fault());
}

TEST(VerifyFuzz, RandomSchedulesAgreeAcrossOracles)
{
    struct FK
    {
        std::string name;
        ProcPtr proc;
        SizeEnv env;
        int seeds;
    };
    // Default budget: 6 * 40 + 12 = 252 random schedules (>= 200).
    int per = 40;
    bool custom_budget = false;
    if (const char* env = std::getenv("EXO2_VERIFY_FUZZ_SEEDS")) {
        int v = std::atoi(env);
        if (v > 0) {
            per = v;
            custom_budget = true;
        }
    }
    std::vector<FK> fks = {
        {"saxpy", kernels::find_kernel("saxpy").proc, {{"n", 24}}, per},
        {"drot", kernels::find_kernel("drot").proc, {{"n", 17}}, per},
        {"sgemv_n", kernels::find_kernel("sgemv_n").proc,
         {{"M", 9}, {"N", 13}}, per},
        {"strmv_lnn", kernels::find_kernel("strmv_lnn").proc,
         {{"N", 13}}, per},
        {"sgemm", kernels::sgemm(),
         {{"M", 6}, {"N", 10}, {"K", 7}}, per},
        {"blur", kernels::blur(), {{"H", 32}, {"W", 256}},
         std::max(1, per * 3 / 10)},
        {"shadow", parse_proc(kShadowKernel), {{"n", 12}}, per},
    };
    int total = 0;
    std::map<std::string, int> applied;  // step op -> times applied
    for (const auto& fk : fks) {
        for (int s = 0; s < fk.seeds; s++) {
            uint64_t seed = 1000 * static_cast<uint64_t>(s) + 7;
            FuzzResult r = fuzz_schedule(fk.proc, fk.env, seed);
            total++;
            ASSERT_EQ(r.status, FuzzResult::Status::Ok)
                << fuzz_repro_string(fk.name, seed, r);
            for (const FuzzStep& st : r.applied)
                applied[st.op]++;
        }
    }
    if (!custom_budget)
        EXPECT_GE(total, 200);  // the acceptance floor at default budget
    // Every tuner move ran under the oracles (at the default budget or
    // a larger one).
    if (per >= 40) {
        for (const char* op :
             {"t_divide", "t_reorder", "t_unroll", "t_vectorize",
              "t_interleave", "t_cse", "t_licm", "t_uaj", "t_lift_alloc"})
            EXPECT_GT(applied[op], 0) << op << " was never applied";
    }
}

}  // namespace
}  // namespace exo2
