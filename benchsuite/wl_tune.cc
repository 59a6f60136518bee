/**
 * @file
 * tune_search: autotune five kernels from their naive definitions in
 * seeded order, one tune per op, with the cost-sim, cursor and
 * analysis caches cleared before each (no tune reuses another's work).
 * JIT re-ranking is off, so the search is deterministic: the tuner's
 * restart seed is fixed and `--seed` picks the kernel order and the
 * validation inputs, which leaves the search's work counts identical
 * across runs. Search (tune.enumerate and cost.simulate) dominates;
 * the winner's tri-oracle validation adds one native JIT build per
 * tune.
 */

#include <cstdio>
#include <stdexcept>

#include "benchsuite/suite.h"
#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/frontend/parser.h"
#include "src/ir/printer.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/obs/trace.h"
#include "src/tune/tune.h"

namespace exo2 {
namespace suite {

namespace {

struct TuneCase
{
    std::string name;
    ProcPtr naive;
    size_t lib = 0;                ///< library kernel of the hand schedule
    verify::SizeEnv tune_sizes;    ///< scored and validated at
    verify::SizeEnv check_sizes;   ///< interpreter re-check, other sizes
    verify::SizeEnv bench_sizes;   ///< tuned vs hand timing
};

std::string
replace_once(std::string s, const std::string& from, const std::string& to)
{
    size_t pos = s.find(from);
    if (pos == std::string::npos)
        throw std::runtime_error("blur source lacks '" + from + "'");
    return s.replace(pos, from.size(), to);
}

/** The library blur with 8x64 divisibility assertions in place of
 *  32x256: the same computation, tunable at 8x64. The cost simulator's
 *  time grows with trip counts, and 32x256, the smallest size the
 *  library version admits, takes seconds per tune. */
ProcPtr
small_blur(const ProcPtr& blur)
{
    std::string src = print_proc(blur);
    src = replace_once(src, "H % 32 == 0", "H % 8 == 0");
    src = replace_once(src, "W % 256 == 0", "W % 64 == 0");
    return parse_proc(src);
}

std::vector<TuneCase>
make_cases(const std::vector<ProcPtr>& lib)
{
    std::vector<TuneCase> cases;
    auto add = [&](const std::string& name, ProcPtr naive,
                   verify::SizeEnv tune, verify::SizeEnv check) {
        size_t li = library_index(name);
        cases.push_back({name, naive ? naive : lib[li], li, std::move(tune),
                         std::move(check),
                         bench_sizes(library()[li], lib[li])});
    };
    add("saxpy", nullptr, {{"n", 1024}}, {{"n", 1000}});
    add("sdot", nullptr, {{"n", 1024}}, {{"n", 1000}});
    add("sgemv_n", nullptr, {{"M", 48}, {"N", 48}}, {{"M", 13}, {"N", 9}});
    add("sgemm", nullptr, {{"M", 16}, {"N", 16}, {"K", 16}},
        {{"M", 8}, {"N", 8}, {"K", 5}});
    add("blur", small_blur(lib[library_index("blur")]),
        {{"H", 8}, {"W", 64}}, {{"H", 16}, {"W", 128}});
    return cases;
}

tune::TuneOpts
tune_opts(const TuneCase& c, uint64_t seed)
{
    tune::TuneOpts opts;
    opts.tune_sizes = c.tune_sizes;
    opts.beam_width = 3;
    opts.max_rounds = 4;
    opts.random_restarts = 1;
    opts.seed = 1;
    opts.jit_topk = 0;
    opts.use_cache = false;
    opts.validate = true;
    opts.validate_seed = seed;
    return opts;
}

/** Median-of-5 interleaved timings of the tuned and the hand-scheduled
 *  kernel at bench sizes; returns tuned GFLOP/s over hand GFLOP/s. */
double
tuned_vs_hand(const TuneCase& c, const ProcPtr& tuned, const ProcPtr& hand,
              uint64_t seed)
{
    verify::CompiledProc ct(tuned);
    verify::CompiledProc ch(hand);
    verify::OracleInputs in = bench_inputs(tuned, c.bench_sizes, seed);
    std::vector<double> t_tuned, t_hand;
    for (int rep = 0; rep < 5; rep++) {
        t_hand.push_back(ch.time_per_call(in.args, 0.02));
        t_tuned.push_back(ct.time_per_call(in.args, 0.02));
    }
    return median(t_hand) / median(t_tuned);
}

}  // namespace

void
run_tune_search(const Options& o, Result& r)
{
    const Machine& m = machine_avx2();
    std::vector<ProcPtr> lib;
    std::vector<TuneCase> cases;
    std::vector<double> parse_ms;
    r.set("setup_s", median_setup_s(3, [&] {
              lib = load_library(&parse_ms);
              cases = make_cases(lib);
          }),
          "s");
    r.set("frontend.parse_ms", median(parse_ms), "ms");

    std::vector<tune::TuneResult> first(cases.size());
    std::vector<bool> have(cases.size(), false);
    double states_total = 0, tune_s_total = 0;
    CyclicOrder order(cases.size(), o.seed);
    // One cycle, five tunes, takes ~4.6 s on the reference machine.
    OpLog log = measure(o, r, cases.size(), 4.6, [&](size_t k) {
        size_t i = order.at(k);
        const TuneCase& c = cases[i];
        clear_cost_sim_cache();
        clear_cursor_accel_caches();
        clear_analysis_memo();
        r.attempted++;
        double t0 = now_s();
        tune::TuneResult res;
        try {
            res = tune::autotune(c.naive, m, tune_opts(c, o.seed));
        } catch (const std::exception& e) {
            r.fail(c.name + ": autotune threw: " + e.what());
            return (now_s() - t0) * 1e3;
        }
        double ms = (now_s() - t0) * 1e3;
        if (!obs::trace_enabled()) {
            states_total += res.stats.states_scored;
            tune_s_total += ms / 1e3;
        }
        if (!res.validated)
            r.fail(c.name + ": winner not validated");
        if (!have[i]) {
            first[i] = res;
            have[i] = true;
        } else if (proc_digest(res.best) != proc_digest(first[i].best) ||
                   res.stats.states_scored != first[i].stats.states_scored) {
            r.fail(c.name + ": search differs between identical tunes");
        }
        return ms;
    });
    report_ops(r, log);
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    std::vector<double> quality, vs_hand;
    tune::TuneStats per_cycle;
    for (size_t i = 0; i < cases.size(); i++) {
        const TuneCase& c = cases[i];
        if (!have[i])
            continue;
        const tune::TuneResult& res = first[i];
        if (proc_digest(tune::replay_script(c.naive, res.script)) !=
            proc_digest(res.best))
            r.fail(c.name + ": winner script does not replay");
        std::string bad = interp_mismatch(c.naive, res.best, c.check_sizes,
                                          o.seed, 5e-4);
        if (!bad.empty())
            r.fail(c.name + ": tuned output differs: " + bad);
        quality.push_back(res.naive_cost / res.cost);
        per_cycle.states_scored += res.stats.states_scored;
        per_cycle.actions_enumerated += res.stats.actions_enumerated;
        per_cycle.dedup_skips += res.stats.dedup_skips;
        per_cycle.lint_pruned += res.stats.lint_pruned;
        r.set("tune.states." + c.name, res.stats.states_scored, "count");
        r.set("tune.cycles_ratio." + c.name, res.naive_cost / res.cost,
              "ratio");
        if (o.trace) {
            const LibKernel& lk = library()[c.lib];
            double v = tuned_vs_hand(c, res.best,
                                     schedule_kernel(lk, lib[c.lib]), o.seed);
            r.set("tuned_vs_hand." + c.name, v, "ratio");
            vs_hand.push_back(v);
        }
    }
    r.set("code_speedup", geomean(quality), "x");
    r.set("tune.states_scored", per_cycle.states_scored, "count");
    r.set("tune.actions_enumerated", per_cycle.actions_enumerated, "count");
    r.set("tune.dedup_skips", per_cycle.dedup_skips, "count");
    r.set("tune.lint_pruned", per_cycle.lint_pruned, "count");
    r.set("tune.states_per_s", ratio(states_total, tune_s_total), "1/s");
    if (o.trace)
        r.set("tuned_vs_hand", geomean(vs_hand), "ratio");
}

}  // namespace suite
}  // namespace exo2
