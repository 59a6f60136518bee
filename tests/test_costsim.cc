/**
 * @file
 * Cost-simulator tests: cycle accounting, cache behaviour (locality is
 * rewarded), instruction costs, the relative-performance properties
 * the benchmark figures rely on, and batches (the same results and memo
 * traffic as a loop of single simulations).
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>

#include "src/frontend/parser.h"
#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/machine/cost_sim.h"
#include "src/obs/metrics.h"
#include "src/sched/blas.h"

namespace exo2 {
namespace {

TEST(CostSim, CountsLoopWork)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = 1.0
)");
    CostConfig cfg;
    cfg.warm = false;
    CostResult r = simulate_cost_named(p, {{"n", 100}}, cfg);
    EXPECT_EQ(r.dram_accesses, 100);
    EXPECT_GE(r.cycles, 200.0);  // 100 iters * (loop + op)
    // Cycles scale linearly.
    CostResult r2 = simulate_cost_named(p, {{"n", 200}}, cfg);
    EXPECT_NEAR(r2.cycles / r.cycles, 2.0, 0.3);
}

TEST(CostSim, CacheRewardsLocality)
{
    // Strided column walk misses far more than a row walk.
    ProcPtr rowwise = parse_proc(R"(
def f(n: size, A: f32[n, n] @ DRAM, x: f32[1] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[0] += A[i, j]
)");
    ProcPtr colwise = parse_proc(R"(
def f(n: size, A: f32[n, n] @ DRAM, x: f32[1] @ DRAM):
    for j in seq(0, n):
        for i in seq(0, n):
            x[0] += A[i, j]
)");
    CostConfig cfg;
    cfg.warm = false;
    CostResult row = simulate_cost_named(rowwise, {{"n", 512}}, cfg);
    CostResult col = simulate_cost_named(colwise, {{"n", 512}}, cfg);
    EXPECT_GT(col.l1_misses, row.l1_misses * 4);
    EXPECT_GT(col.cycles, row.cycles);
}

TEST(CostSim, WarmRunsFasterThanCold)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
    for i in seq(0, n):
        y[0] += x[i]
)");
    CostConfig cold;
    cold.warm = false;
    CostConfig warm;
    warm.warm = true;
    double c = simulate_cost_named(p, {{"n", 1024}}, cold).cycles;
    double w = simulate_cost_named(p, {{"n", 1024}}, warm).cycles;
    EXPECT_LT(w, c);
}

TEST(CostSim, VectorizationPaysOff)
{
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 4);
    double naive = simulate_cost_named(k.proc, {{"n", 4096}}).cycles;
    double fast = simulate_cost_named(opt, {{"n", 4096}}).cycles;
    // AVX2 f32: 8 lanes; expect a healthy speedup (amortized by memory).
    EXPECT_GT(naive / fast, 3.0);
    EXPECT_LT(naive / fast, 32.0);
}

TEST(CostSim, MaskedArithmeticPricedByPredicationSupport)
{
    // AVX2 has no predicated ALU: masked arithmetic is emulated by
    // blending and must cost more than the unmasked form. AVX-512
    // executes masked arithmetic natively, so only the two-sided
    // (range) masks pay — one extra mask-register compare, which AVX2
    // pays on top of the blend.
    for (ScalarType t : {ScalarType::F32, ScalarType::F64}) {
        const VecInstrSet& a2 = machine_avx2().instrs(t);
        const VecInstrSet& a5 = machine_avx512().instrs(t);
        EXPECT_FALSE(machine_avx2().has_predicated_alu());
        EXPECT_TRUE(machine_avx512().has_predicated_alu());

        EXPECT_GT(a2.m_add->instr()->cycles, a2.add->instr()->cycles);
        EXPECT_GT(a2.m_fma->instr()->cycles, a2.fma->instr()->cycles);
        EXPECT_GT(a2.r_add->instr()->cycles, a2.m_add->instr()->cycles);

        EXPECT_EQ(a5.m_add->instr()->cycles, a5.add->instr()->cycles);
        EXPECT_EQ(a5.m_fma->instr()->cycles, a5.fma->instr()->cycles);
        EXPECT_GT(a5.r_add->instr()->cycles, a5.m_add->instr()->cycles);

        // The emulation penalty is what separates the two machines.
        EXPECT_GT(a2.m_mul->instr()->cycles, a5.m_mul->instr()->cycles);

        // Masked loads/stores are native on both (vmaskmov / k-masks):
        // no blend penalty, range forms still pay the extra compare.
        EXPECT_EQ(a2.load_pred->instr()->cycles,
                  a5.load_pred->instr()->cycles);
        EXPECT_GT(a2.r_load->instr()->cycles,
                  a2.load_pred->instr()->cycles);
    }
}

TEST(CostSim, MaskedTailCheaperOnPredicatedAluMachine)
{
    // End-to-end: a ragged saxpy tail runs masked instructions every
    // iteration; with identical cache behaviour the blend-emulating
    // machine must simulate slower per masked op. Compare the masked
    // instruction cost contribution directly via a tiny all-masked
    // schedule (n < vector width forces the masked path to do all the
    // work).
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr a2 = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 1);
    ProcPtr a5 = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx512(), 1);
    CostConfig cfg;
    cfg.warm = false;
    double c2 = simulate_cost_named(a2, {{"n", 5}}, cfg).cycles;
    double c5 = simulate_cost_named(a5, {{"n", 5}}, cfg).cycles;
    EXPECT_GT(c2, c5);
}

TEST(CostSim, DispatchOverheadOnlyMattersWhenSmall)
{
    const auto& k = kernels::find_kernel("scopy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 4);
    CostConfig with;
    with.dispatch_cycles = 30;
    CostConfig without;
    double small_ratio =
        simulate_cost_named(opt, {{"n", 4}}, with).cycles /
        simulate_cost_named(opt, {{"n", 4}}, without).cycles;
    double big_ratio =
        simulate_cost_named(opt, {{"n", 100000}}, with).cycles /
        simulate_cost_named(opt, {{"n", 100000}}, without).cycles;
    EXPECT_GT(small_ratio, 1.5);
    EXPECT_LT(big_ratio, 1.01);
}

// -- Cost-mode divergences from the reference interpreter ---------------
//
// The cost simulator and the interpreter share one IR walker but not its
// value semantics (DESIGN.md §11). Each test below is a small proc whose
// counts change if the cost policy took the interpreter's behaviour for
// one divergence.

CostConfig
cold()
{
    CostConfig c;
    c.warm = false;
    return c;
}

TEST(CostSimDivergence, AndOrEvaluateBothSides)
{
    // Short-circuiting would skip both right-hand DRAM reads.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    if n > 100 and x[0] > 0.0:
        pass
    if n < 100 or x[1] > 0.0:
        pass
)");
    CostResult r = simulate_cost_named(p, {{"n", 1}}, cold());
    EXPECT_EQ(r.dram_accesses, 2);
}

TEST(CostSimDivergence, DataReadsYieldZero)
{
    // x[0] holds 1.0 after the first statement, but a cost-mode read is
    // 0, so the data-dependent branch takes the (empty) else side.
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    x[0] = 1.0
    if x[0] > 0.5:
        y[0] = 1.0
        y[1] = 1.0
)");
    CostResult r = simulate_cost_named(p, {}, cold());
    EXPECT_EQ(r.dram_accesses, 2);  // the write and the condition read
}

TEST(CostSimDivergence, OnlyDramReadsAreCharged)
{
    ProcPtr p = parse_proc(R"(
def f(x: f32[8] @ DRAM):
    t: f32[8] @ AVX2
    for i in seq(0, 8):
        x[i] = t[i]
)");
    CostResult r = simulate_cost_named(p, {}, cold());
    EXPECT_EQ(r.dram_accesses, 8);  // the DRAM writes only
}

TEST(CostSimDivergence, ScalarWritesAreNotTracked)
{
    // t is declared in DRAM, but scalars live in registers.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    t: f32 @ DRAM
    for i in seq(0, n):
        t = x[i]
        t += x[i]
        x[i] = t
)");
    CostResult r = simulate_cost_named(p, {{"n", 8}}, cold());
    EXPECT_EQ(r.dram_accesses, 3 * 8);
}

TEST(CostSimDivergence, ReduceChargesOneWriteTouch)
{
    // A read-modify-write would charge y[0] twice per iteration.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM, y: f32[1] @ DRAM):
    for i in seq(0, n):
        y[0] += x[i]
)");
    CostResult r = simulate_cost_named(p, {{"n", 16}}, cold());
    EXPECT_EQ(r.dram_accesses, 2 * 16);
}

TEST(CostSimDivergence, FloatDivisionByZeroYieldsZero)
{
    // IEEE division gives +inf > 0.5; cost mode gives 0.
    ProcPtr p = parse_proc(R"(
def f(a: f32, b: f32, x: f32[4] @ DRAM):
    if a / b > 0.5:
        x[0] = 1.0
)");
    auto run = [&](double b) {
        return simulate_cost(p, {CostArg::make_scalar(1.0),
                                 CostArg::make_scalar(b)},
                             cold());
    };
    EXPECT_EQ(run(0.0).dram_accesses, 0);
    EXPECT_EQ(run(1.0).dram_accesses, 1);
}

TEST(CostSimDivergence, FloatArithmeticIsNotRoundedToF32)
{
    // In f32, 1 + 1e-12 rounds to 1 and the branch is not taken.
    ProcPtr p = parse_proc(R"(
def f(a: f32, b: f32, x: f32[4] @ DRAM):
    if a + b > 1.0:
        x[0] = 1.0
)");
    CostResult r = simulate_cost(
        p, {CostArg::make_scalar(1.0), CostArg::make_scalar(1e-12)}, cold());
    EXPECT_EQ(r.dram_accesses, 1);
}

TEST(CostSimDivergence, ExternsEvaluateArgumentsAndReturnZero)
{
    // relu(1.0) is 1.0 > 0.5 for the interpreter; 0 here. The second
    // extern's argument read is still charged.
    ProcPtr p = parse_proc(R"(
def f(a: f32, x: f32[4] @ DRAM):
    if relu(a) > 0.5:
        x[0] = 1.0
    x[1] = relu(x[2])
)");
    CostResult r =
        simulate_cost(p, {CostArg::make_scalar(1.0)}, cold());
    EXPECT_EQ(r.dram_accesses, 2);
}

TEST(CostSimDivergence, WindowsAndIndicesAreUnchecked)
{
    // The interpreter throws on the out-of-range window and index; the
    // cost model prices them.
    ProcPtr g = parse_proc(R"(
def g(dst: [f32][2] @ DRAM):
    dst[0] = 1.0
)");
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    g(x[6:8])
    x[n] = 1.0
)",
                           {g});
    CostResult r;
    ASSERT_NO_THROW(r = simulate_cost_named(p, {{"n", 4}}, cold()));
    EXPECT_EQ(r.dram_accesses, 2);
}

TEST(CostSimDivergence, InvertedWindowIsNotClamped)
{
    // x[40:1] spans -39 elements. Unclamped, the DMA-style footprint is
    // an empty byte range: one charged access, no line touched. Clamped
    // to an empty window at x[40] it would touch (and miss) one line.
    ProcPtr body = parse_proc(R"(
def ld(src: [f32][1] @ DRAM):
    pass
)");
    InstrInfo info;
    info.cycles = 2.0;
    info.instr_class = "load";
    ProcPtr ld = Proc::make("ld", body->args(), {}, body->body_stmts(), info);
    ProcPtr p = parse_proc(R"(
def f(x: f32[64] @ DRAM):
    ld(x[40:1])
)",
                           {ld});
    CostResult r;
    ASSERT_NO_THROW(r = simulate_cost_named(p, {}, cold()));
    EXPECT_EQ(r.instr_calls, 1);
    EXPECT_EQ(r.dram_accesses, 1);
    EXPECT_EQ(r.l1_misses, 0);
    EXPECT_EQ(r.cycles, 2.5);
}

TEST(CostSimDivergence, RegisterWindowsAreNotEvaluated)
{
    // A register window prices nothing, so the cost model does not
    // evaluate it: the interpreter would fail on the zero divisor. The
    // DRAM window is still charged.
    ProcPtr body = parse_proc(R"(
def mov(dst: [f32][8] @ AVX2, src: [f32][8] @ DRAM):
    pass
)");
    InstrInfo info;
    info.cycles = 2.0;
    info.instr_class = "load";
    ProcPtr mov =
        Proc::make("mov", body->args(), {}, body->body_stmts(), info);
    ProcPtr p = parse_proc(R"(
def f(z: size, x: f32[8] @ DRAM):
    v: f32[8] @ AVX2
    mov(v[0:8 / z], x[0:8])
)",
                           {mov});
    CostResult r;
    ASSERT_NO_THROW(r = simulate_cost_named(p, {{"z", 0}}, cold()));
    EXPECT_EQ(r.instr_calls, 1);
    EXPECT_EQ(r.dram_accesses, 1);
}

TEST(CostSimDivergence, ScalarCallArgumentsAreNotRounded)
{
    // Rounded to the f32 formal, 1 + 1e-12 is 1 and the branch is dead.
    ProcPtr g = parse_proc(R"(
def g(a: f32, y: f32[4] @ DRAM):
    if a > 1.0:
        y[0] = 1.0
)");
    ProcPtr p = parse_proc(R"(
def f(b: f64, x: f32[4] @ DRAM):
    g(b, x)
)",
                           {g});
    CostResult r =
        simulate_cost(p, {CostArg::make_scalar(1.0 + 1e-12)}, cold());
    EXPECT_EQ(r.dram_accesses, 1);
}

TEST(CostSimDivergence, BlocksDoNotScopeNames)
{
    // The scalar x declared in the if body stays bound after it, so the
    // final write goes to an untracked scalar, not to the DRAM argument.
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[4] @ DRAM):
    if n > 0:
        x: f32
        x = 1.0
    x[0] = 1.0
)");
    CostResult r = simulate_cost_named(p, {{"n", 1}}, cold());
    EXPECT_EQ(r.dram_accesses, 0);
}

TEST(CostSimDivergence, AssertionsAreNotChecked)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    assert n > 100
    x[0] = 1.0
)");
    CostResult r;
    ASSERT_NO_THROW(r = simulate_cost_named(p, {{"n", 4}}, cold()));
    EXPECT_EQ(r.dram_accesses, 1);
}

TEST(CostSimDivergence, WarmRunsTheProcTwice)
{
    // The first run warms the caches and leaves configuration state
    // behind; only the second is reported.
    ProcPtr p = parse_proc(R"(
def f(x: f32[4] @ DRAM, y: f32[4] @ DRAM):
    y[0] = 1.0
    if cfg.done == 0.0:
        x[0] = 1.0
    cfg.done = 1.0
)");
    CostConfig warm;
    warm.warm = true;
    CostResult c = simulate_cost_named(p, {}, cold());
    CostResult w = simulate_cost_named(p, {}, warm);
    EXPECT_EQ(c.dram_accesses, 2);
    EXPECT_EQ(c.l1_misses, 2);
    EXPECT_EQ(w.dram_accesses, 1);
    EXPECT_EQ(w.l1_misses, 0);
    EXPECT_EQ(w.config_writes, 1);
}

// -- Batches: the same results and memo traffic as a loop ---------------

/** A few differently-shaped kernels, each simulated at n. */
std::vector<CostJob>
batch_jobs()
{
    ProcPtr stream = parse_proc(R"(
def stream(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = y[i] + 2.0 * x[i]
)");
    ProcPtr rows = parse_proc(R"(
def rows(n: size, A: f32[n, n] @ DRAM, x: f32[n] @ DRAM):
    for i in seq(0, n):
        for j in seq(0, n):
            x[i] += A[i, j]
)");
    ProcPtr cols = parse_proc(R"(
def cols(n: size, A: f32[n, n] @ DRAM, x: f32[n] @ DRAM):
    for j in seq(0, n):
        for i in seq(0, n):
            x[i] += A[i, j]
)");
    auto n = [](int64_t v) {
        return std::vector<CostArg>{CostArg::make_size(v)};
    };
    // Memoized before the batch: stream at 64. Repeated within it:
    // rows at 48 (three times) and cols at 40 (twice).
    return {{stream, n(64)}, {rows, n(48)},   {cols, n(40)},
            {rows, n(48)},   {stream, n(96)}, {cols, n(40)},
            {rows, n(48)},   {stream, n(64)}, {cols, n(56)}};
}

void
expect_same(const CostResult& a, const CostResult& b, size_t i)
{
    EXPECT_EQ(a.cycles, b.cycles) << "job " << i;
    EXPECT_EQ(a.instr_calls, b.instr_calls) << "job " << i;
    EXPECT_EQ(a.config_writes, b.config_writes) << "job " << i;
    EXPECT_EQ(a.dram_accesses, b.dram_accesses) << "job " << i;
    EXPECT_EQ(a.l1_misses, b.l1_misses) << "job " << i;
    EXPECT_EQ(a.l2_misses, b.l2_misses) << "job " << i;
}

CostSimCacheStats
delta(const CostSimCacheStats& from)
{
    CostSimCacheStats now = cost_sim_cache_stats();
    return {now.hits - from.hits, now.misses - from.misses};
}

int64_t
cpus_in_affinity_mask()
{
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0)
        return 1;
    return CPU_COUNT(&mask);
}

TEST(CostSimBatch, MatchesALoopOfSimulateCost)
{
    std::vector<CostJob> jobs = batch_jobs();
    obs::Gauge& workers = obs::gauge("costsim.pool_workers");
    EXPECT_NE(obs::metrics_json().find("\"costsim.pool_workers\""),
              std::string::npos);

    clear_cost_sim_cache();
    simulate_cost(jobs[0].proc, jobs[0].args);
    std::vector<CostResult> looped;
    CostSimCacheStats before = cost_sim_cache_stats();
    for (const CostJob& j : jobs)
        looped.push_back(simulate_cost(j.proc, j.args));
    CostSimCacheStats loop_delta = delta(before);

    clear_cost_sim_cache();
    int64_t workers_before = workers.value();
    simulate_cost(jobs[0].proc, jobs[0].args);
    EXPECT_EQ(workers.value(), workers_before)
        << "a single miss runs on the calling thread";
    before = cost_sim_cache_stats();
    std::vector<CostResult> batched = simulate_cost_batch(jobs);
    CostSimCacheStats batch_delta = delta(before);

    ASSERT_EQ(batched.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++)
        expect_same(batched[i], looped[i], i);
    EXPECT_EQ(batch_delta.hits, loop_delta.hits);
    EXPECT_EQ(batch_delta.misses, loop_delta.misses);
    EXPECT_EQ(batch_delta.hits, 5u);    // stream 64 twice, 3 repeats
    EXPECT_EQ(batch_delta.misses, 4u);  // rows 48, cols 40/56, stream 96
    EXPECT_EQ(workers.value(), cpus_in_affinity_mask());

    // The batch filled the memo: the same batch again is all hits.
    before = cost_sim_cache_stats();
    std::vector<CostResult> again = simulate_cost_batch(jobs);
    EXPECT_EQ(delta(before).hits, jobs.size());
    EXPECT_EQ(delta(before).misses, 0u);
    for (size_t i = 0; i < jobs.size(); i++)
        expect_same(again[i], looped[i], i);
}

TEST(CostSimBatch, RethrowsTheFirstFailureInInputOrder)
{
    // Two procs that fail with different messages (a size argument is
    // missing), between jobs that succeed.
    std::vector<CostJob> jobs = batch_jobs();
    ProcPtr two = parse_proc(R"(
def two(n: size, m: size, x: f32[n, m] @ DRAM):
    for i in seq(0, n):
        x[i, 0] = 1.0
)");
    jobs.insert(jobs.begin() + 3, CostJob{two, {}});
    jobs.insert(jobs.begin() + 6, CostJob{two, {CostArg::make_size(8)}});

    clear_cost_sim_cache();
    simulate_cost(jobs[0].proc, jobs[0].args);
    CostSimCacheStats before = cost_sim_cache_stats();
    std::string loop_error;
    for (const CostJob& j : jobs) {
        try {
            simulate_cost(j.proc, j.args);
        } catch (const InternalError& e) {
            if (loop_error.empty())
                loop_error = e.what();
        }
    }
    CostSimCacheStats loop_delta = delta(before);
    ASSERT_NE(loop_error.find("missing argument for n"), std::string::npos)
        << loop_error;

    clear_cost_sim_cache();
    simulate_cost(jobs[0].proc, jobs[0].args);
    before = cost_sim_cache_stats();
    std::string batch_error;
    try {
        simulate_cost_batch(jobs);
    } catch (const InternalError& e) {
        batch_error = e.what();
    }
    CostSimCacheStats batch_delta = delta(before);
    EXPECT_EQ(batch_error, loop_error);
    EXPECT_EQ(batch_delta.hits, loop_delta.hits);
    EXPECT_EQ(batch_delta.misses, loop_delta.misses);

    // Every job that succeeded is memoized, as after the loop.
    before = cost_sim_cache_stats();
    std::vector<CostJob> ok = batch_jobs();
    simulate_cost_batch(ok);
    EXPECT_EQ(delta(before).hits, ok.size());
}

TEST(CostSimBatch, StopCutsTheResultToAPrefix)
{
    std::vector<CostJob> jobs = batch_jobs();
    clear_cost_sim_cache();
    simulate_cost(jobs[0].proc, jobs[0].args);
    // Stopped before anything starts: the result ends before the first
    // miss, and only the memo hit in front of it is counted.
    CostSimCacheStats before = cost_sim_cache_stats();
    std::vector<CostResult> none =
        simulate_cost_batch(jobs, CostConfig(), [] { return true; });
    EXPECT_EQ(none.size(), 1u);
    EXPECT_EQ(delta(before).hits, 1u);
    EXPECT_EQ(delta(before).misses, 0u);

    // Stopped after two claims, by whichever workers make them: rows 48
    // and cols 40 run, so the result ends before stream 96 (job 4), and
    // the rows 48 repeat in front of it is a hit.
    std::atomic<int> polls{0};
    before = cost_sim_cache_stats();
    std::vector<CostResult> two = simulate_cost_batch(
        jobs, CostConfig(), [&] { return polls.fetch_add(1) >= 2; });
    ASSERT_EQ(two.size(), 4u);
    EXPECT_EQ(delta(before).hits, 2u);
    EXPECT_EQ(delta(before).misses, 2u);
    expect_same(two[3], two[1], 3);

    // What ran is memoized; what did not runs now.
    before = cost_sim_cache_stats();
    EXPECT_EQ(simulate_cost_batch(jobs).size(), jobs.size());
    EXPECT_EQ(delta(before).misses, 2u);
}

}  // namespace
}  // namespace exo2
