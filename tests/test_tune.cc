/**
 * @file
 * Autotuner tests (DESIGN.md §6): action-enumeration legality (every
 * enumerated action applies without throwing — a primitive whose
 * legality predicate disagrees with its apply is an engine bug),
 * serialization round-trips, search determinism (same seed + opts =>
 * identical winning script, bit-for-bit replayable), cost-cache
 * accounting, and tri-oracle validation of winners.
 */

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/frontend/parser.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/obs/metrics.h"
#include "src/tune/actions.h"
#include "src/tune/tune.h"
#include "src/verify/fuzz.h"

namespace exo2 {
namespace {

using tune::enumerate_actions;
using tune::TuneAction;
using tune::TuneOpts;
using tune::TuneSpace;
using verify::FuzzStep;

TuneSpace
space_for(const Machine& m, ScalarType prec)
{
    return tune::default_space(m, prec, CostConfig());
}

// -- Satellite: every enumerated action applies without throwing -------

/** Kernels covering scalar loops, reductions, 2-D nests, triangular
 *  bounds, multi-nest pipelines, and allocs. */
std::vector<std::pair<std::string, ProcPtr>>
legality_corpus()
{
    std::vector<std::pair<std::string, ProcPtr>> out;
    for (const char* n : {"saxpy", "sdot", "sasum", "sgemv_n", "sgemv_t",
                          "strmv_lnn", "ssyr_u"}) {
        out.emplace_back(n, kernels::find_kernel(n).proc);
    }
    out.emplace_back("sgemm", kernels::sgemm());
    out.emplace_back("blur", kernels::blur());
    out.emplace_back("unsharp", kernels::unsharp());
    return out;
}

TEST(TuneActions, EveryEnumeratedActionAppliesCleanly)
{
    const Machine& m = machine_avx2();
    TuneSpace sp = space_for(m, ScalarType::F32);
    for (const auto& [name, proc] : legality_corpus()) {
        std::vector<TuneAction> actions =
            enumerate_actions(proc, m, ScalarType::F32, sp);
        EXPECT_FALSE(actions.empty()) << name;
        for (const TuneAction& a : actions) {
            ProcPtr replayed;
            ASSERT_NO_THROW(replayed = verify::apply_fuzz_step(proc, a.step))
                << name << ": " << verify::step_to_string(a.step);
            // The recorded step must reproduce the enumerated result
            // bit-for-bit (ordinals and fresh names are deterministic).
            EXPECT_EQ(proc_digest(replayed), proc_digest(a.result))
                << name << ": " << verify::step_to_string(a.step);
        }
    }
}

TEST(TuneActions, SecondGenerationActionsApplyCleanly)
{
    // Legality must hold on derived states too (vectorized bodies,
    // jammed nests), where primitives see instr calls and big blocks.
    const Machine& m = machine_avx2();
    TuneSpace sp = space_for(m, ScalarType::F32);
    for (const char* name : {"saxpy", "sgemv_n"}) {
        ProcPtr p = kernels::find_kernel(name).proc;
        std::vector<TuneAction> first =
            enumerate_actions(p, m, ScalarType::F32, sp);
        ASSERT_FALSE(first.empty());
        // Expand a few representative first-generation states.
        for (size_t i = 0; i < first.size(); i += 3) {
            const ProcPtr& q = first[i].result;
            for (const TuneAction& a :
                 enumerate_actions(q, m, ScalarType::F32, sp)) {
                ProcPtr replayed;
                ASSERT_NO_THROW(
                    replayed = verify::apply_fuzz_step(q, a.step))
                    << name << " via "
                    << verify::step_to_string(first[i].step) << " then "
                    << verify::step_to_string(a.step);
                EXPECT_EQ(proc_digest(replayed), proc_digest(a.result));
            }
        }
    }
}

TEST(TuneActions, EnumerationIsDeterministic)
{
    const Machine& m = machine_avx2();
    TuneSpace sp = space_for(m, ScalarType::F32);
    ProcPtr p = kernels::find_kernel("sgemv_n").proc;
    auto a = enumerate_actions(p, m, ScalarType::F32, sp);
    auto b = enumerate_actions(p, m, ScalarType::F32, sp);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(verify::step_to_string(a[i].step),
                  verify::step_to_string(b[i].step));
        EXPECT_EQ(proc_digest(a[i].result), proc_digest(b[i].result));
    }
}

// -- Step / script serialization round-trips ----------------------------

TEST(TuneScript, StepStringRoundTrip)
{
    std::vector<FuzzStep> steps = {
        {"t_vectorize", {3, 1}, {"AVX2", "f32"}},
        {"t_divide", {0, 64, 0}, {"io", "ii"}},
        {"t_uaj", {2, 4}, {}},
        {"divide", {12, 4, 2}, {"fz1o", "fz1i"}},
        {"simplify", {}, {}},
    };
    for (const FuzzStep& st : steps) {
        FuzzStep rt = verify::step_from_string(verify::step_to_string(st));
        EXPECT_EQ(rt.op, st.op);
        EXPECT_EQ(rt.n, st.n);
        EXPECT_EQ(rt.s, st.s);
    }
    std::string script = verify::script_to_string(steps);
    std::vector<FuzzStep> back = verify::script_from_string(script);
    ASSERT_EQ(back.size(), steps.size());
    for (size_t i = 0; i < steps.size(); i++)
        EXPECT_EQ(verify::step_to_string(back[i]),
                  verify::step_to_string(steps[i]));
    EXPECT_THROW(verify::step_from_string("garbage"), SchedulingError);
    EXPECT_THROW(verify::step_from_string("op[1,x]"), SchedulingError);
    // A whole script joined onto one line is NOT one step — it must be
    // rejected, not silently absorbed into a garbage name operand.
    EXPECT_THROW(
        verify::step_from_string("t_divide[0,64,0;io,ii]; t_uaj[2,4]"),
        SchedulingError);
    EXPECT_THROW(verify::step_from_string("op[1;a]b]"), SchedulingError);
}

// -- proc_digest --------------------------------------------------------

TEST(TuneDigest, StructuralNotProvenance)
{
    ProcPtr p = kernels::find_kernel("saxpy").proc;
    // Two different derivation orders reaching the same structure give
    // the same digest.
    FuzzStep d1{"t_divide", {0, 4, 0}, {"io", "ii"}};
    ProcPtr a = verify::apply_fuzz_step(p, d1);
    ProcPtr b = verify::apply_fuzz_step(p, d1);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(proc_digest(a), proc_digest(b));
    EXPECT_NE(proc_digest(a), proc_digest(p));
    // Renaming keeps the digest (cost does not depend on the name).
    EXPECT_EQ(proc_digest(p->renamed("other")), proc_digest(p));
}

// -- Satellite: cost-cache hit/miss accounting --------------------------

TEST(TuneCostCache, HitsOnRepeatAndInvalidates)
{
    ProcPtr p = parse_proc(R"(
def f(n: size, x: f32[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i] + 1.0
)");
    clear_cost_sim_cache();
    obs::reset_metrics();

    CostResult r1 = simulate_cost_named(p, {{"n", 64}});
    CostSimCacheStats s1 = cost_sim_cache_stats();
    EXPECT_EQ(s1.hits, 0u);
    EXPECT_EQ(s1.misses, 1u);

    CostResult r2 = simulate_cost_named(p, {{"n", 64}});
    CostSimCacheStats s2 = cost_sim_cache_stats();
    EXPECT_EQ(s2.hits, 1u);
    EXPECT_EQ(s2.misses, 1u);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.dram_accesses, r2.dram_accesses);

    // Different sizes and different configs are different keys.
    simulate_cost_named(p, {{"n", 65}});
    CostConfig cfg;
    cfg.l1_kb = 16;
    simulate_cost_named(p, {{"n", 64}}, cfg);
    CostSimCacheStats s3 = cost_sim_cache_stats();
    EXPECT_EQ(s3.hits, 1u);
    EXPECT_EQ(s3.misses, 3u);

    // A structurally identical clone of the proc hits (digest key).
    ProcPtr q = parse_proc(print_proc(p));
    simulate_cost_named(q, {{"n", 64}});
    EXPECT_EQ(cost_sim_cache_stats().hits, 2u);

    // Clearing drops every entry: the same query simulates again, with
    // the same result.
    clear_cost_sim_cache();
    CostResult r3 = simulate_cost_named(p, {{"n", 64}});
    CostSimCacheStats s4 = cost_sim_cache_stats();
    EXPECT_EQ(s4.hits, 2u);
    EXPECT_EQ(s4.misses, 4u);
    EXPECT_EQ(r3.cycles, r1.cycles);
    EXPECT_EQ(r3.dram_accesses, r1.dram_accesses);
}

// -- Satellite: tuner determinism ---------------------------------------

TEST(TuneSearch, SameSeedSameWinnerAndReplayBitForBit)
{
    ProcPtr p = kernels::find_kernel("saxpy").proc;
    TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 3;
    o.max_rounds = 3;
    o.random_restarts = 2;
    o.seed = 12345;
    o.jit_topk = 0;  // cost-model only: fully deterministic

    tune::TuneResult r1 = tune::autotune(p, machine_avx2(), o);
    tune::TuneResult r2 = tune::autotune(p, machine_avx2(), o);

    EXPECT_EQ(verify::script_to_string(r1.script),
              verify::script_to_string(r2.script));
    EXPECT_EQ(proc_digest(r1.best), proc_digest(r2.best));
    EXPECT_EQ(r1.cost, r2.cost);

    // Replaying the emitted script reproduces the winner bit-for-bit.
    ProcPtr replayed = tune::replay_script(p, r1.script);
    EXPECT_EQ(proc_digest(replayed), proc_digest(r1.best));
    EXPECT_EQ(print_proc(replayed), print_proc(r1.best));

    // And the search actually helped, with a validated winner.
    EXPECT_LT(r1.cost, r1.naive_cost);
    EXPECT_TRUE(r1.validated);
}

TEST(TuneSearch, GreedyModeAndStatsAccounting)
{
    ProcPtr p = kernels::find_kernel("sdot").proc;
    TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 1;  // greedy descent
    o.max_rounds = 3;

    clear_cost_sim_cache();
    tune::TuneResult r = tune::autotune(p, machine_avx2(), o);
    EXPECT_LT(r.cost, r.naive_cost);
    EXPECT_TRUE(r.validated);
    EXPECT_GE(r.stats.rounds, 1);
    EXPECT_GT(r.stats.actions_enumerated, 0);
    EXPECT_GT(r.stats.states_scored, 0);
    EXPECT_EQ(r.stats.cost_cache_misses,
              static_cast<uint64_t>(r.stats.states_scored));

    // A second identical run scores everything out of the cost cache.
    tune::TuneResult r2 = tune::autotune(p, machine_avx2(), o);
    EXPECT_EQ(r2.stats.cost_cache_misses, 0u);
    EXPECT_EQ(r2.stats.cost_cache_hits,
              static_cast<uint64_t>(r2.stats.states_scored));
}

TEST(TuneSearch, EnvironmentDoesNotOverrideTuneOpts)
{
    // The daemon hands each request's beam, rounds, restarts, top-k and
    // deadline to autotune through TuneOpts; a stray EXO2_TUNE_* in the
    // server's environment must not replace them.
    ProcPtr p = kernels::find_kernel("saxpy").proc;
    TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 3;
    o.max_rounds = 3;

    tune::TuneResult plain = tune::autotune(p, machine_avx2(), o);
    setenv("EXO2_TUNE_BEAM", "1", 1);
    setenv("EXO2_TUNE_ROUNDS", "1", 1);
    tune::TuneResult with_env = tune::autotune(p, machine_avx2(), o);
    unsetenv("EXO2_TUNE_BEAM");
    unsetenv("EXO2_TUNE_ROUNDS");

    EXPECT_EQ(verify::script_to_string(with_env.script),
              verify::script_to_string(plain.script));
    EXPECT_EQ(with_env.cost, plain.cost);
    EXPECT_EQ(with_env.stats.states_scored, plain.stats.states_scored);
}

TEST(TuneSearch, RejectsMissingAndInvalidSizes)
{
    ProcPtr p = kernels::find_kernel("saxpy").proc;
    TuneOpts o;  // no tune_sizes
    EXPECT_THROW(tune::autotune(p, machine_avx2(), o), SchedulingError);

    // Sizes violating the proc's own assertions are a config error.
    TuneOpts ob;
    ob.tune_sizes = {{"H", 7}, {"W", 100}};
    EXPECT_THROW(tune::autotune(kernels::blur(), machine_avx2(), ob),
                 SchedulingError);
}

TEST(TuneSearch, JitRerankSmoke)
{
    // End-to-end with measured refinement: compile top-2, pick by wall
    // clock, still validated and replayable. (ISA comes from
    // EXO2_NATIVE_ISA; scalar by default.)
    ProcPtr p = kernels::find_kernel("saxpy").proc;
    TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.measure_sizes = {{"n", 4096}};
    o.beam_width = 2;
    o.max_rounds = 2;
    o.jit_topk = 2;
    tune::TuneResult r = tune::autotune(p, machine_avx2(), o);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.stats.jit_measured, 0);
    EXPECT_GT(r.measured_seconds, 0.0);
    EXPECT_EQ(proc_digest(tune::replay_script(p, r.script)),
              proc_digest(r.best));
}

// -- Satellite: parallel scoring keeps the search bit-identical ---------

/** The library blur with 8x64 divisibility assertions (the benchsuite's
 *  tune_search blur), so it tunes at 8x64. */
ProcPtr
small_blur()
{
    std::string src = print_proc(kernels::blur());
    for (auto [from, to] : {std::pair<std::string, std::string>{
                                "H % 32 == 0", "H % 8 == 0"},
                            {"W % 256 == 0", "W % 64 == 0"}}) {
        size_t pos = src.find(from);
        if (pos == std::string::npos)
            throw std::runtime_error("blur source lacks '" + from + "'");
        src.replace(pos, from.size(), to);
    }
    return parse_proc(src);
}

/** A tune_search-shaped search: beam 3, 4 rounds, one restart, fixed
 *  seed, cost model only, no validation (the search does not read it). */
tune::TuneResult
tune_search_shaped(const ProcPtr& p, const verify::SizeEnv& sizes)
{
    TuneOpts o;
    o.tune_sizes = sizes;
    o.beam_width = 3;
    o.max_rounds = 4;
    o.random_restarts = 1;
    o.seed = 1;
    o.jit_topk = 0;
    o.validate = false;
    o.use_cache = false;
    clear_cost_sim_cache();
    clear_cursor_accel_caches();
    clear_analysis_memo();
    return tune::autotune(p, machine_avx2(), o);
}

TEST(TunePinned, TuneSearchKernelsMatchTheSerialSearch)
{
    // Recorded with the serial scorer, which simulated one state at a
    // time in enumeration order. Batched scoring on the pool must give
    // the same winner, cost, state count and memo traffic for any
    // worker count; ctest also runs this case under `taskset -c 0`.
    struct Pinned
    {
        const char* name;
        ProcPtr proc;
        verify::SizeEnv sizes;
        const char* script;
        double cost;
        int states;
        uint64_t hits, misses;
    };
    const Pinned cases[] = {
        {"saxpy", kernels::find_kernel("saxpy").proc, {{"n", 1024}},
         "t_vectorize[0,1;AVX2,f32]\nt_interleave[0,2]\n"
         "t_interleave[0,4]\n",
         848, 250, 46, 204},
        {"sdot", kernels::find_kernel("sdot").proc, {{"n", 1024}},
         "t_vectorize[0,0;AVX2,f32]\nt_interleave[0,2]\n"
         "t_interleave[0,4]\n",
         533.5, 245, 43, 202},
        {"sgemv_n", kernels::find_kernel("sgemv_n").proc,
         {{"M", 48}, {"N", 48}},
         "t_uaj[0,4]\nt_vectorize[1,0;AVX2,f32]\n", 1500, 432, 67, 365},
        {"sgemm", kernels::sgemm(), {{"M", 16}, {"N", 16}, {"K", 16}},
         "t_uaj[1,4]\nt_vectorize[2,1;AVX2,f32]\n", 3792, 529, 101, 428},
        {"blur", small_blur(), {{"H", 8}, {"W", 64}},
         "t_vectorize[1,0;AVX2,f32]\nt_vectorize[4,0;AVX2,f32]\n"
         "t_interleave[1,4]\nt_interleave[5,4]\n",
         1494, 853, 79, 774},
    };
    for (const Pinned& c : cases) {
        tune::TuneResult r = tune_search_shaped(c.proc, c.sizes);
        std::string script = verify::script_to_string(r.script);
        EXPECT_EQ(script, c.script) << c.name;
        EXPECT_EQ(r.cost, c.cost) << c.name;
        EXPECT_EQ(r.stats.states_scored, c.states) << c.name;
        EXPECT_EQ(r.stats.cost_cache_hits, c.hits) << c.name;
        EXPECT_EQ(r.stats.cost_cache_misses, c.misses) << c.name;
    }
}

TEST(TunePool, ForkedChildTunesAgain)
{
    // Regression: a child forked after a tune had started the scoring
    // pool waited forever on its first batch, for workers that existed
    // only in the parent. A pthread_atfork handler now joins them
    // before every fork; the child's first batch starts its own.
    ProcPtr p = kernels::find_kernel("sgemv_n").proc;
    verify::SizeEnv sizes = {{"M", 48}, {"N", 48}};
    std::string want =
        verify::script_to_string(tune_search_shaped(p, sizes).script);
    obs::Gauge& workers = obs::gauge("costsim.pool_workers");
    ASSERT_GT(workers.value(), 0) << "the tune never used the pool";

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        close(fds[0]);
        clear_cost_sim_cache();
        std::string got =
            verify::script_to_string(tune_search_shaped(p, sizes).script);
        ssize_t n = write(fds[1], got.data(), got.size());
        _exit(n == static_cast<ssize_t>(got.size()) ? 0 : 1);
    }
    close(fds[1]);
    int status = 0;
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (waitpid(pid, &status, WNOHANG) == 0) {
        if (std::chrono::steady_clock::now() > deadline) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            close(fds[0]);
            FAIL() << "the forked child's tune did not finish";
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::string got;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        got.append(buf, static_cast<size_t>(n));
    close(fds[0]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_EQ(got, want);
}

// -- Machine cost-query surface -----------------------------------------

TEST(TuneMachine, TileHintsAndLookup)
{
    CostConfig cfg;
    TileHints h = tile_hints(machine_avx2(), ScalarType::F32, cfg);
    EXPECT_EQ(h.vec_width, 8);
    ASSERT_FALSE(h.split_factors.empty());
    EXPECT_EQ(h.split_factors[0], 8);
    for (int64_t t : h.cache_tiles) {
        EXPECT_GT(t, h.vec_width);
        EXPECT_EQ(t % h.vec_width, 0);
    }
    TileHints h64 = tile_hints(machine_avx512(), ScalarType::F64, cfg);
    EXPECT_EQ(h64.vec_width, 8);

    EXPECT_EQ(&find_machine("AVX2"), &machine_avx2());
    EXPECT_EQ(&find_machine("avx512"), &machine_avx512());
    EXPECT_THROW(find_machine("riscv"), SchedulingError);
}

}  // namespace
}  // namespace exo2
