/**
 * @file
 * Tests for the static schedule-safety analyzer (DESIGN.md §9):
 * golden diagnostics per registry rule, the certifying race analysis
 * behind `parallelize_loop`'s failure messages, a soundness sweep over
 * every scheduled BLAS/image kernel, a fuzzed sweep sharing the
 * tri-oracle corpus, and the tuner lint gate's winner-identity
 * guarantee.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/frontend/parser.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/lint/lint.h"
#include "src/primitives/primitives.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/tune/tune.h"
#include "src/verify/fuzz.h"

namespace exo2 {
namespace {

using lint::LintReport;
using lint::Severity;
using verify::FuzzResult;
using verify::SizeEnv;

// -- Golden diagnostics, one per registry rule -----------------------------

TEST(Lint, CleanKernelProvenSafe)
{
    LintReport rep = lint::lint_proc(kernels::find_kernel("saxpy").proc);
    EXPECT_TRUE(rep.diags.empty()) << rep.to_text();
    EXPECT_GT(rep.obligations, 0);
    EXPECT_EQ(rep.proven, rep.obligations);
    EXPECT_TRUE(rep.proven_safe());
    EXPECT_NE(rep.to_json().find("\"proven_safe\":true"),
              std::string::npos)
        << rep.to_json();
}

TEST(Lint, EXL001BoundsUnprovable)
{
    // `i` is an arbitrary size argument: i >= 0 is known, i < n is not.
    ProcPtr p = parse_proc(R"(
def f(n: size, i: size, x: f32[n] @ DRAM):
    x[i] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_TRUE(rep.has_code("EXL001")) << rep.to_text();
    EXPECT_FALSE(rep.has_errors());
    EXPECT_LT(rep.proven, rep.obligations);
    EXPECT_FALSE(rep.proven_safe());
}

TEST(Lint, EXL002ProvenOutOfBounds)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    x[7] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    ASSERT_TRUE(rep.has_code("EXL002")) << rep.to_text();
    EXPECT_TRUE(rep.has_errors());
    bool found = false;
    for (const auto& d : rep.diags) {
        if (d.code == "EXL002") {
            found = true;
            EXPECT_EQ(d.severity, Severity::Error);
            EXPECT_EQ(d.pass, "bounds");
            EXPECT_EQ(d.buf, "x");
            EXPECT_FALSE(d.loc.empty());
        }
    }
    EXPECT_TRUE(found);
}

TEST(Lint, ShapesComeFromTheBindingInScope)
{
    // The loop-local `x: f32[2]` ends with its loop: `x[5]` writes the
    // argument `x: f32[8]` and is in bounds. A shape that outlived its
    // block made this a proven Error.
    ProcPtr p = parse_proc(R"(
def f(x: f32[8] @ DRAM):
    for i in seq(0, 2):
        x: f32[2] @ DRAM
        x[0] = 1.0
    x[5] = 2.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_FALSE(rep.has_errors()) << rep.to_text();
    EXPECT_FALSE(rep.has_code("EXL001")) << rep.to_text();
    // Inside the loop the local shape applies.
    ProcPtr q = parse_proc(R"(
def f(x: f32[8] @ DRAM):
    for i in seq(0, 2):
        x: f32[2] @ DRAM
        x[5] = 1.0
)");
    EXPECT_TRUE(lint::lint_proc(q).has_code("EXL002"));
}

TEST(Lint, EXL002UnreachableIsNotAnError)
{
    // The out-of-bounds store is guarded away: `x[7]` only under
    // `7 < 4`, an infeasible context. Reachability gates Error.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    for i in seq(0, n):
        if i < 4:
            if i > 6:
                x[i] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_FALSE(rep.has_errors()) << rep.to_text();
}

TEST(Lint, ElseBranchOfNeKnowsEq)
{
    // In the else branch `i == 2`, so `x[i]` is in bounds: the walker
    // assumes the negated guard as every other walk does.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    for i in seq(0, n):
        if i != 2:
            pass
        else:
            x[i] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_FALSE(rep.has_code("EXL001")) << rep.to_text();
    EXPECT_EQ(rep.proven, rep.obligations) << rep.to_text();
}

TEST(Lint, EXL004AllocExtentUnprovable)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    t: f32[n - 4] @ DRAM
    for i in seq(0, n - 4):
        t[i] = x[i]
        x[i] = t[i]
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_TRUE(rep.has_code("EXL004")) << rep.to_text();
    EXPECT_FALSE(rep.has_errors());
}

TEST(Lint, EXL101UninitRead)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    t: f32[4] @ DRAM
    x[0] = t[0]
)");
    LintReport rep = lint::lint_proc(p);
    ASSERT_TRUE(rep.has_code("EXL101")) << rep.to_text();
    for (const auto& d : rep.diags) {
        if (d.code == "EXL101") {
            EXPECT_EQ(d.severity, Severity::Warn);
            EXPECT_EQ(d.buf, "t");
            EXPECT_FALSE(d.fixit.empty());
        }
    }
    EXPECT_FALSE(rep.proven_safe());
}

TEST(Lint, ReduceAccumulatorIsNotUninit)
{
    // Reduce onto a fresh (zero-filled) allocation is the idiomatic
    // partial-sum pattern parallelize_reduction emits — not a finding.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
    acc: f32[1] @ DRAM
    for i in seq(0, n):
        acc[0] += x[i]
    y[0] = acc[0]
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_FALSE(rep.has_code("EXL101")) << rep.to_text();
}

TEST(Lint, EXL201ParallelLoopRace)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    for i in par(0, n):
        x[0] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    ASSERT_TRUE(rep.has_code("EXL201")) << rep.to_text();
    EXPECT_TRUE(rep.has_errors());
    for (const auto& d : rep.diags) {
        if (d.code == "EXL201") {
            EXPECT_EQ(d.severity, Severity::Error);
            EXPECT_EQ(d.pass, "race");
            EXPECT_NE(d.message.find("'i'"), std::string::npos)
                << d.message;
            EXPECT_NE(d.message.find("x"), std::string::npos) << d.message;
        }
    }
}

TEST(Lint, EXL202NestedParallel)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, m: size, x: f32[n, m] @ DRAM):
    for i in par(0, n):
        for j in par(0, m):
            x[i, j] = 1.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_TRUE(rep.has_code("EXL202")) << rep.to_text();
    EXPECT_FALSE(rep.has_errors()) << rep.to_text();
}

TEST(Lint, EXL301EXL302DeadAllocs)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    dead: f32[8] @ DRAM
    wonly: f32[8] @ DRAM
    wonly[0] = 1.0
    x[0] = 2.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_TRUE(rep.has_code("EXL301")) << rep.to_text();
    EXPECT_TRUE(rep.has_code("EXL302")) << rep.to_text();
    // Hygiene findings are Info: they never threaten the safety claim.
    EXPECT_TRUE(rep.proven_safe()) << rep.to_text();
}

TEST(Lint, EXL303EXL304DegenerateLoops)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    for i in seq(0, 0):
        x[0] = 1.0
    for j in seq(0, 1):
        x[1] = 2.0
)");
    LintReport rep = lint::lint_proc(p);
    EXPECT_TRUE(rep.has_code("EXL303")) << rep.to_text();
    EXPECT_TRUE(rep.has_code("EXL304")) << rep.to_text();
    EXPECT_FALSE(rep.has_errors());
}

TEST(Lint, EXL305MaskedTailOnAvx2Only)
{
    const kernels::KernelDef& k = kernels::find_kernel("saxpy");
    ProcPtr avx2 = sched::optimize_level_1(
        k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx2(), 4);
    LintReport r2 = lint::lint_proc(avx2);
    EXPECT_TRUE(r2.has_code("EXL305")) << r2.to_text();
    EXPECT_FALSE(r2.has_errors()) << r2.to_text();

    // AVX-512 has real mask registers: same schedule, no finding.
    ProcPtr avx512 = sched::optimize_level_1(
        k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx512(),
        4);
    LintReport r5 = lint::lint_proc(avx512);
    EXPECT_FALSE(r5.has_code("EXL305")) << r5.to_text();
}

TEST(Lint, OptionsDisablePasses)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM):
    x[7] = 1.0
)");
    lint::LintOptions opts;
    opts.bounds = false;
    LintReport rep = lint::lint_proc(p, opts);
    EXPECT_FALSE(rep.has_code("EXL002"));
    // With a sound pass disabled the strong claim must be withheld.
    EXPECT_FALSE(rep.proven_safe());
}

// -- The certifying race analysis ------------------------------------------

TEST(Lint, CertifyParallelLoops)
{
    ProcPtr safe = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in par(0, n):
        x[i] = 1.0
)");
    auto certs = lint::certify_parallel_loops(safe);
    ASSERT_EQ(certs.size(), 1u);
    EXPECT_EQ(certs[0].iter, "i");
    EXPECT_TRUE(certs[0].safe);
    EXPECT_TRUE(certs[0].conflicts.empty());
    EXPECT_FALSE(certs[0].loc.empty());

    ProcPtr racy = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    for i in par(0, n):
        x[0] = 1.0
)");
    certs = lint::certify_parallel_loops(racy);
    ASSERT_EQ(certs.size(), 1u);
    EXPECT_FALSE(certs[0].safe);
    ASSERT_FALSE(certs[0].conflicts.empty());
    EXPECT_EQ(certs[0].conflicts[0].buf, "x");
    EXPECT_FALSE(certs[0].conflicts[0].detail.empty());
}

// -- Satellite: parallelize_loop names the conflicting pair ----------------

TEST(Lint, ParallelizeLoopMessageNamesConflict)
{
    ProcPtr bad = parse_proc(R"(
def r(n: size, x: f32[4] @ DRAM):
    for i in seq(0, n):
        x[0] += 1.0
)");
    std::string msg;
    try {
        parallelize_loop(bad, bad->find_loop("i"));
        FAIL() << "parallelize_loop accepted a racy loop";
    } catch (const SchedulingError& e) {
        msg = e.what();
    }
    EXPECT_NE(msg.find("parallelize_loop"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'x'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("x[0]"), std::string::npos) << msg;
}

// -- Soundness sweep: every scheduled kernel lints Error-free --------------

TEST(Lint, ScheduledLevel1KernelsHaveNoErrors)
{
    for (const auto& k : kernels::blas_level1()) {
        for (bool avx512 : {false, true}) {
            const Machine& m =
                avx512 ? machine_avx512() : machine_avx2();
            ProcPtr opt;
            ASSERT_NO_THROW(
                opt = sched::optimize_level_1(
                    k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 4))
                << k.name;
            LintReport rep = lint::lint_proc(opt);
            EXPECT_EQ(rep.count(Severity::Error), 0u)
                << k.name << (avx512 ? " avx512\n" : " avx2\n")
                << rep.to_text();
        }
    }
}

TEST(Lint, ScheduledLevel2KernelsHaveNoErrors)
{
    for (const auto& k : kernels::blas_level2()) {
        for (bool avx512 : {false, true}) {
            const Machine& m =
                avx512 ? machine_avx512() : machine_avx2();
            ProcPtr opt;
            ASSERT_NO_THROW(
                opt = sched::optimize_level_2_general(
                    k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 2,
                    2))
                << k.name;
            LintReport rep = lint::lint_proc(opt);
            EXPECT_EQ(rep.count(Severity::Error), 0u)
                << k.name << (avx512 ? " avx512\n" : " avx2\n")
                << rep.to_text();
        }
    }
}

TEST(Lint, ScheduledDemoKernelsHaveNoErrors)
{
    struct SK
    {
        const char* name;
        ProcPtr opt;
    };
    std::vector<SK> sks;
    sks.push_back({"sgemm", sched::schedule_sgemm(
                                sched::sgemm_with_asserts(kernels::sgemm(),
                                                          machine_avx2()),
                                machine_avx2())});
    sks.push_back({"blur", sched::schedule_blur_like_halide(
                               kernels::blur(), machine_avx2())});
    sks.push_back({"unsharp", sched::schedule_unsharp_like_halide(
                                  kernels::unsharp(), machine_avx2())});
    for (const auto& sk : sks) {
        LintReport rep = lint::lint_proc(sk.opt);
        EXPECT_EQ(rep.count(Severity::Error), 0u)
            << sk.name << "\n"
            << rep.to_text();
    }
}

// -- Soundness sweep over the fuzz corpus ----------------------------------
//
// Same kernels and seed derivation as test_verify's campaign; the full
// 212-seed budget runs via EXO2_LINT_FUZZ_SEEDS in the lint_soundness
// gate (scripts/check_lint.sh).
// fuzz_schedule itself carries the fourth-oracle cross-check: a
// proven-safe schedule that crashes the C oracle returns LintUnsound
// and fails the ASSERT below with a ddmin repro.

TEST(Lint, FuzzCorpusSoundness)
{
    int per = 4;
    if (const char* env = std::getenv("EXO2_LINT_FUZZ_SEEDS")) {
        int v = std::atoi(env);
        if (v > 0)
            per = v;
    }
    struct FK
    {
        std::string name;
        ProcPtr proc;
        SizeEnv env;
        int seeds;
    };
    std::vector<FK> fks = {
        {"saxpy", kernels::find_kernel("saxpy").proc, {{"n", 24}}, per},
        {"drot", kernels::find_kernel("drot").proc, {{"n", 17}}, per},
        {"sgemv_n",
         kernels::find_kernel("sgemv_n").proc,
         {{"M", 9}, {"N", 13}},
         per},
        {"strmv_lnn", kernels::find_kernel("strmv_lnn").proc, {{"N", 13}},
         per},
        {"sgemm", kernels::sgemm(), {{"M", 6}, {"N", 10}, {"K", 7}}, per},
        {"blur", kernels::blur(), {{"H", 32}, {"W", 256}},
         std::max(1, per * 3 / 10)},
    };
    int proven_safe = 0;
    for (const auto& fk : fks) {
        for (int s = 0; s < fk.seeds; s++) {
            uint64_t seed = 1000 * static_cast<uint64_t>(s) + 7;
            FuzzResult r = verify::fuzz_schedule(fk.proc, fk.env, seed);
            ASSERT_EQ(r.status, FuzzResult::Status::Ok)
                << verify::fuzz_repro_string(fk.name, seed, r);
            // Every applied step was a sound rewrite of a correct
            // kernel: a proven violation would be a lint false
            // positive.
            EXPECT_EQ(r.lint_errors, 0)
                << verify::fuzz_repro_string(fk.name, seed, r);
            if (r.lint_safe)
                proven_safe++;
        }
    }
    // Anti-vacuity: the sweep must actually exercise the strong claim.
    EXPECT_GT(proven_safe, 0);
}

// -- The tuner lint gate is winner-neutral ---------------------------------

TEST(Lint, TuneLintGateKeepsWinnerIdentical)
{
    // The five bench_autotune kernels at their bench tune sizes, on
    // the deterministic path (jit_topk=0): the gate must be
    // winner-neutral — identical winning scripts with lint on and off
    // — while actually checking every pool candidate.
    struct BK
    {
        std::string name;
        ProcPtr proc;
        SizeEnv sizes;
        int rounds;
    };
    std::vector<BK> bks = {
        {"saxpy", kernels::find_kernel("saxpy").proc, {{"n", 2048}}, 8},
        {"sdot", kernels::find_kernel("sdot").proc, {{"n", 2048}}, 8},
        {"sgemv_n",
         kernels::find_kernel("sgemv_n").proc,
         {{"M", 96}, {"N", 96}},
         8},
        {"sgemm", kernels::sgemm(), {{"M", 48}, {"N", 48}, {"K", 48}}, 6},
        {"blur", kernels::blur(), {{"H", 32}, {"W", 256}}, 8},
    };
    for (const auto& bk : bks) {
        tune::TuneOpts o;
        o.tune_sizes = bk.sizes;
        o.beam_width = 3;
        o.max_rounds = bk.rounds;
        o.jit_topk = 0;  // cost-model only: fully deterministic
        o.validate = false;
        o.use_cache = false;

        o.lint = true;
        tune::TuneResult with = tune::autotune(bk.proc, machine_avx2(), o);
        o.lint = false;
        tune::TuneResult without =
            tune::autotune(bk.proc, machine_avx2(), o);

        EXPECT_EQ(proc_digest(with.best), proc_digest(without.best))
            << bk.name;
        EXPECT_EQ(verify::script_to_string(with.script),
                  verify::script_to_string(without.script))
            << bk.name;
        EXPECT_GT(with.stats.lint_checked, 0) << bk.name;
        // Every pool candidate is a sound rewrite of a correct kernel:
        // a pruned one would be a lint false positive.
        EXPECT_EQ(with.stats.lint_pruned, 0) << bk.name;
        EXPECT_EQ(without.stats.lint_checked, 0) << bk.name;
    }
}

TEST(Lint, TuneLintGatePrunesUnsafeCandidates)
{
    // Non-vacuity: a proven out-of-bounds access (fencepost store past
    // the end) survives every sound rewrite, so the gate must prune
    // the entire pool before a single JIT compile is paid for.
    ProcPtr p = parse_proc(R"(
def saxpy_fencepost(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = y[i] + a * x[i]
    y[n] = 0.0
)");
    tune::TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 3;
    o.max_rounds = 3;
    o.jit_topk = 0;
    o.validate = false;
    o.use_cache = false;
    tune::TuneResult r = tune::autotune(p, machine_avx2(), o);
    EXPECT_GT(r.stats.lint_checked, 0);
    EXPECT_EQ(r.stats.lint_pruned, r.stats.lint_checked);
}

}  // namespace
}  // namespace exo2
