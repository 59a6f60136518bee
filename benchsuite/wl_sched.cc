/**
 * @file
 * sched_lib: apply the hand-written sched/ library to all 77 library
 * kernels from their naive definitions, in seeded order, one schedule
 * call per op, with the cursor and analysis caches cleared before each
 * call (every call pays for its own analyses). This is the paper's
 * library-amortisation claim; it runs no cost simulation, compilation
 * or serving, so changes to tune, machine or verify should not move it.
 */

#include <cstdio>

#include "benchsuite/suite.h"
#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/machine/cost_sim.h"

namespace exo2 {
namespace suite {

void
run_sched_lib(const Options& o, Result& r)
{
    const std::vector<LibKernel>& lib = library();
    std::vector<ProcPtr> naive;
    std::vector<double> parse_ms;
    r.set("setup_s",
          median_setup_s(3, [&] { naive = load_library(&parse_ms); }), "s");
    r.set("frontend.parse_ms", median(parse_ms), "ms");

    // Schedules are deterministic: the first output of each kernel is
    // checked by the interpreter, every later one must match its digest.
    std::vector<ProcPtr> first(lib.size());
    std::vector<uint64_t> digest(lib.size(), 0);
    std::vector<int64_t> calls(lib.size(), 0);
    CyclicOrder order(lib.size(), o.seed);
    // One cycle, all 77 kernels, takes ~1.3 s on the reference machine.
    OpLog log = measure(o, r, lib.size(), 1.3, [&](size_t k) {
        size_t i = order.at(k);
        clear_cursor_accel_caches();
        clear_analysis_memo();
        r.attempted++;
        calls[i]++;
        double t0 = now_s();
        ProcPtr s;
        try {
            s = schedule_kernel(lib[i], naive[i]);
        } catch (const std::exception& e) {
            r.fail(lib[i].name + ": " + e.what());
            return (now_s() - t0) * 1e3;
        }
        double ms = (now_s() - t0) * 1e3;
        uint64_t d = proc_digest(s);
        if (!first[i]) {
            first[i] = s;
            digest[i] = d;
        } else if (d != digest[i]) {
            r.fail(lib[i].name + ": schedule differs between calls");
        }
        return ms;
    });
    report_ops(r, log);
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    // Untimed checks and the simulated speedup of each schedule.
    std::vector<double> speedups;
    for (size_t i = 0; i < lib.size(); i++) {
        if (!first[i])
            continue;
        const LibKernel& k = lib[i];
        std::string bad =
            interp_mismatch(naive[i], first[i], check_sizes(k, naive[i]),
                            o.seed, check_tolerance(k));
        if (!bad.empty()) {
            // Every call produced this wrong schedule.
            for (int64_t c = 0; c < calls[i]; c++)
                r.fail(k.name + ": scheduled output differs: " + bad);
            continue;
        }
        verify::SizeEnv env = sim_sizes(k, naive[i]);
        clear_cost_sim_cache();
        speedups.push_back(simulate_cost_named(naive[i], env).cycles /
                           simulate_cost_named(first[i], env).cycles);
    }
    r.set("code_speedup", geomean(speedups), "x");
}

}  // namespace suite
}  // namespace exo2
