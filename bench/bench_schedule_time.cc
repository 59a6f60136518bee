/**
 * @file
 * Scheduling-time microbenchmarks (google-benchmark): the paper's
 * Discussion reports ~30 s to schedule GEMM and ~2 min for unsharp
 * under Python + SMT; this implementation's linear-arithmetic checker
 * is documented in DESIGN.md as the substitution. Also covers the
 * cursor-forwarding ablation (DESIGN.md #1): forwarding a cursor
 * across a schedule vs re-resolving it by pattern each step. The
 * evaluator benchmarks time the IR evaluator (DESIGN.md §11) that the
 * autotuner scores candidates with and the tri-oracle checks them by.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/ir/builder.h"
#include "src/interp/interp.h"
#include "src/ir/interner.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/verify/verify.h"

using namespace exo2;
using namespace exo2::sched;

/** Clear the analysis memo and the cursor caches, untimed, so every
 *  iteration of a BM_Schedule* row schedules from cold caches as one
 *  sched_lib op does, instead of timing memo hits after the first. */
static void
cold_caches(benchmark::State& state)
{
    state.PauseTiming();
    clear_analysis_memo();
    clear_cursor_accel_caches();
    state.ResumeTiming();
}

static void
BM_ScheduleAxpyLevel1(benchmark::State& state)
{
    const auto& k = kernels::find_kernel("saxpy");
    for (auto _ : state) {
        cold_caches(state);
        benchmark::DoNotOptimize(optimize_level_1(
            k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 4));
    }
}
BENCHMARK(BM_ScheduleAxpyLevel1)->Unit(benchmark::kMillisecond);

static void
BM_ScheduleSgemm(benchmark::State& state)
{
    ProcPtr base =
        sgemm_with_asserts(kernels::sgemm(), machine_avx512());
    for (auto _ : state) {
        cold_caches(state);
        benchmark::DoNotOptimize(schedule_sgemm(base, machine_avx512()));
    }
}
BENCHMARK(BM_ScheduleSgemm)->Unit(benchmark::kMillisecond);

static void
BM_ScheduleBlur(benchmark::State& state)
{
    for (auto _ : state) {
        cold_caches(state);
        benchmark::DoNotOptimize(
            schedule_blur_like_halide(kernels::blur(), machine_avx512()));
    }
}
BENCHMARK(BM_ScheduleBlur)->Unit(benchmark::kMillisecond);

/** Forwarding ablation: tile gemv, then locate the reduce statement
 *  after the fact — via a forwarded cursor (O(chain)) or by re-running
 *  the pattern matcher at every step (the brittle one-time-reference
 *  style of Section 5.1). */
static void
BM_CursorForwarding(benchmark::State& state)
{
    const auto& k = kernels::find_kernel("sgemv_n");
    for (auto _ : state) {
        ProcPtr p = k.proc;
        Cursor red = p->find("y[_] += _");
        p = divide_loop(p, "i", 8, {"io", "ii"}, TailStrategy::Guard);
        p = divide_loop(p, "j", 8, {"jo", "ji"}, TailStrategy::Guard);
        p = lift_scope(p, "jo");
        Cursor now = p->forward(red);
        benchmark::DoNotOptimize(now.stmt());
    }
}
BENCHMARK(BM_CursorForwarding)->Unit(benchmark::kMillisecond);

static void
BM_PatternRefind(benchmark::State& state)
{
    const auto& k = kernels::find_kernel("sgemv_n");
    for (auto _ : state) {
        ProcPtr p = k.proc;
        p = divide_loop(p, "i", 8, {"io", "ii"}, TailStrategy::Guard);
        Cursor red = p->find("y[_] += _");  // must re-resolve every step
        benchmark::DoNotOptimize(red);
        p = divide_loop(p, "j", 8, {"jo", "ji"}, TailStrategy::Guard);
        red = p->find("y[_] += _");
        p = lift_scope(p, "jo");
        red = p->find("y[_] += _");
        benchmark::DoNotOptimize(red.stmt());
    }
}
BENCHMARK(BM_PatternRefind)->Unit(benchmark::kMillisecond);

/**
 * Long-schedule scalability (DESIGN.md §3): n independent loop nests,
 * one primitive applied per nest, a fixed set of origin cursors
 * forwarded after every step and the target loop re-found by name each
 * step. Pre-PR-2 this is O(n²) — forwarding replays the whole
 * provenance chain and every find walks the whole tree; with path
 * compression and the subtree pattern index the per-step cost is
 * ~constant, so the sweep (50/200/800) should scale ~linearly.
 */
static ProcPtr
make_long_proc(int n)
{
    std::vector<StmtPtr> body;
    for (int k = 0; k < n; k++) {
        std::string it = "i" + std::to_string(k);
        ExprPtr rhs =
            read("x", {var(it)}) + num_const(1.0, ScalarType::F32);
        body.push_back(Stmt::make_for(
            it, idx_const(0), idx_const(64),
            {Stmt::make_assign("x", {var(it)}, rhs, ScalarType::F32)}));
    }
    return Proc::make(
        "long_sched",
        {buffer_arg("x", ScalarType::F32, {idx_const(64)})}, {},
        std::move(body));
}

static ProcPtr
run_long_schedule(const ProcPtr& base, int n)
{
    // Cursors created on the origin version, forwarded at every step —
    // the paper's recommended style for long schedules.
    std::vector<Cursor> tracked;
    for (int k = 0; k < 16 && k < n; k++)
        tracked.push_back(base->find_loop("i" + std::to_string(k)));
    ProcPtr cur = base;
    for (int k = 0; k < n; k++) {
        std::string it = "i" + std::to_string(k);
        Cursor lc = cur->find_loop(it);
        cur = divide_loop(cur, lc, 4, {it + "o", it + "i"},
                          TailStrategy::Cut);
        for (const Cursor& c : tracked)
            benchmark::DoNotOptimize(cur->forward(c));
    }
    return cur;
}

static void
BM_LongSchedule(benchmark::State& state)
{
    ProcPtr base = make_long_proc(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run_long_schedule(base, static_cast<int>(state.range(0))));
    }
}
BENCHMARK(BM_LongSchedule)
    ->Arg(50)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

/** Ablation: identical schedule with forwarding compression and the
 *  pattern index off — i.e. naive provenance replay + full-tree
 *  search, the pre-PR-2 behavior. */
static void
BM_LongScheduleNoCompress(benchmark::State& state)
{
    ProcPtr base = make_long_proc(static_cast<int>(state.range(0)));
    bool fwd_was = forwarding_compression_enabled();
    bool idx_was = pattern_index_enabled();
    set_forwarding_compression_enabled(false);
    set_pattern_index_enabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run_long_schedule(base, static_cast<int>(state.range(0))));
    }
    set_forwarding_compression_enabled(fwd_was);
    set_pattern_index_enabled(idx_was);
}
BENCHMARK(BM_LongScheduleNoCompress)
    ->Arg(50)
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

/** Ablation: the same schedules with every analysis memo cache off —
 *  quantifies what interning-keyed memoization buys on its own. */
static void
BM_ScheduleSgemmNoMemo(benchmark::State& state)
{
    ProcPtr base = sgemm_with_asserts(kernels::sgemm(), machine_avx512());
    set_analysis_memo_enabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(schedule_sgemm(base, machine_avx512()));
    }
    set_analysis_memo_enabled(true);
}
BENCHMARK(BM_ScheduleSgemmNoMemo)->Unit(benchmark::kMillisecond);

static void
BM_ScheduleBlurNoMemo(benchmark::State& state)
{
    set_analysis_memo_enabled(false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            schedule_blur_like_halide(kernels::blur(), machine_avx512()));
    }
    set_analysis_memo_enabled(true);
}
BENCHMARK(BM_ScheduleBlurNoMemo)->Unit(benchmark::kMillisecond);

/** Evaluator corpus: naive and library-scheduled sgemv_n, SGEMM and
 *  blur at the sizes bench_autotune scores candidates at. */
struct EvalCase
{
    ProcPtr proc;
    verify::SizeEnv sizes;
};

static const std::vector<EvalCase>&
eval_corpus()
{
    static const std::vector<EvalCase> cases = [] {
        const Machine& m = machine_avx2();
        const auto& gemv = kernels::find_kernel("sgemv_n");
        verify::SizeEnv gemv_sizes = {{"M", 96}, {"N", 96}};
        ProcPtr gemm = sgemm_with_asserts(kernels::sgemm(), m);
        verify::SizeEnv gemm_sizes = {{"M", 48}, {"N", 48}, {"K", 48}};
        verify::SizeEnv blur_sizes = {{"H", 32}, {"W", 256}};
        return std::vector<EvalCase>{
            {gemv.proc, gemv_sizes},
            {optimize_level_2_general(gemv.proc,
                                      gemv.proc->find_loop(gemv.main_loop),
                                      gemv.prec, m, 4, 2),
             gemv_sizes},
            {gemm, gemm_sizes},
            {schedule_sgemm(gemm, m), gemm_sizes},
            {kernels::blur(), blur_sizes},
            {schedule_blur_like_halide(kernels::blur(), m), blur_sizes},
        };
    }();
    return cases;
}

/** Cost simulation of the corpus, as the tuner scores a state: default
 *  (warm) CostConfig, memo cleared so every call simulates. */
static void
BM_SimulateCost(benchmark::State& state)
{
    const std::vector<EvalCase>& cases = eval_corpus();
    for (auto _ : state) {
        for (const EvalCase& c : cases) {
            clear_cost_sim_cache();
            benchmark::DoNotOptimize(
                simulate_cost_named(c.proc, c.sizes).cycles);
        }
    }
}
BENCHMARK(BM_SimulateCost)->Unit(benchmark::kMillisecond);

/** Reference interpretation of the corpus on seeded inputs. */
static void
BM_InterpRun(benchmark::State& state)
{
    const std::vector<EvalCase>& cases = eval_corpus();
    std::vector<verify::OracleInputs> inputs;
    for (const EvalCase& c : cases)
        inputs.push_back(verify::make_inputs(c.proc, c.sizes, 7));
    for (auto _ : state) {
        for (size_t i = 0; i < cases.size(); i++) {
            interp_run(cases[i].proc, inputs[i].args);
            benchmark::DoNotOptimize(inputs[i].buffers.front()->data());
        }
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_InterpRun)->Unit(benchmark::kMillisecond);

/**
 * Custom main: always emit machine-readable JSON. Unless the caller
 * passes --benchmark_out explicitly, results go to the file named by
 * $EXO2_BENCH_OUT (default "BENCH_schedule_time.raw.json" in the
 * working directory); scripts/bench_schedule.sh folds that into the
 * repo-level BENCH_schedule_time.json trajectory.
 */
int
main(int argc, char** argv)
{
    // EXO2_CURSOR_ACCEL=0 runs every benchmark with the cursor-layer
    // acceleration off (naive forwarding replay + full-tree pattern
    // search): the pre-PR-2 behavior, used to record the "pre" entry
    // of the BENCH_schedule_time.json trajectory.
    const char* accel_env = std::getenv("EXO2_CURSOR_ACCEL");
    if (accel_env && std::strcmp(accel_env, "0") == 0) {
        set_forwarding_compression_enabled(false);
        set_pattern_index_enabled(false);
    }
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--benchmark_out") == 0 ||
            std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
            has_out = true;
        }
    }
    const char* env_out = std::getenv("EXO2_BENCH_OUT");
    std::string out_flag = std::string("--benchmark_out=") +
                           (env_out ? env_out : "BENCH_schedule_time.raw.json");
    std::string fmt_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    InternerStats is = expr_interner_stats();
    AnalysisMemoStats ms = analysis_memo_stats();
    CursorAccelStats cs = cursor_accel_stats();
    std::fprintf(stderr,
                 "cursor accel: fwd %llu hits / %llu steps, index %llu/%llu "
                 "(hits/builds), %llu subtrees pruned\n",
                 (unsigned long long)cs.fwd_hits,
                 (unsigned long long)cs.fwd_misses,
                 (unsigned long long)cs.index_hits,
                 (unsigned long long)cs.index_misses,
                 (unsigned long long)cs.index_pruned);
    std::fprintf(stderr,
                 "interner: %llu nodes, %llu hits / %llu misses\n"
                 "memo: affine %llu/%llu, linear %llu/%llu, "
                 "effects %llu/%llu (hits/misses)\n",
                 (unsigned long long)is.live_nodes,
                 (unsigned long long)is.hits, (unsigned long long)is.misses,
                 (unsigned long long)ms.affine_hits,
                 (unsigned long long)ms.affine_misses,
                 (unsigned long long)ms.linear_hits,
                 (unsigned long long)ms.linear_misses,
                 (unsigned long long)ms.effects_hits,
                 (unsigned long long)ms.effects_misses);
    return 0;
}
