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

#include "src/frontend/parser.h"
#include "src/ir/errors.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
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
            ASSERT_NO_THROW(replayed = tune::apply_tune_step(proc, a.step))
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
                    replayed = tune::apply_tune_step(q, a.step))
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
    ProcPtr a = tune::apply_tune_step(p, d1);
    ProcPtr b = tune::apply_tune_step(p, d1);
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
    reset_cost_sim_cache_stats();

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
