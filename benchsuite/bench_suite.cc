/**
 * @file
 * The benchmark suite's measuring binary (benchsuite/README.md). One
 * process runs one workload and prints one JSON object with every
 * metric it measured; run_suite.py builds this binary, runs it, and
 * turns that object into the suite's result line.
 *
 * Usage:
 *   bench_suite --workload sched_lib|tune_search|native_run|serve_mix
 *               --seed N --seconds S --trace 0|1 --work-dir DIR
 *   bench_suite --selftest
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "benchsuite/suite.h"
#include "src/obs/trace.h"

extern char** environ;

namespace {

using namespace exo2;
using namespace exo2::suite;

/** Per-layer metrics besides the span ones, with their units: a traced
 *  run reports each of them on every workload, 0 where the workload
 *  bypasses the layer. */
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"frontend.parse_ms", "ms"},
    {"ir.interner_live_nodes", "count"},
    {"ir.interner_hit_ratio", "ratio"},
    {"cursor.fwd_hit_ratio", "ratio"},
    {"cursor.index_hit_ratio", "ratio"},
    {"analysis.memo_hit_ratio", "ratio"},
    {"analysis.linear_misses", "count"},
    {"cost_sim.cache_hit_ratio", "ratio"},
    {"cost_sim.kernels_per_s", "1/s"},
    {"cost_sim.spearman_l1", "ratio"},
    {"cost_sim.spearman_l2", "ratio"},
    {"cost_sim.spearman_all", "ratio"},
    {"tune.states_scored", "count"},
    {"tune.actions_enumerated", "count"},
    {"tune.dedup_skips", "count"},
    {"tune.lint_pruned", "count"},
    {"tune.states_per_s", "1/s"},
    {"tune.states.saxpy", "count"},
    {"tune.states.sdot", "count"},
    {"tune.states.sgemv_n", "count"},
    {"tune.states.sgemm", "count"},
    {"tune.states.blur", "count"},
    {"tune.cycles_ratio.saxpy", "ratio"},
    {"tune.cycles_ratio.sdot", "ratio"},
    {"tune.cycles_ratio.sgemv_n", "ratio"},
    {"tune.cycles_ratio.sgemm", "ratio"},
    {"tune.cycles_ratio.blur", "ratio"},
    {"tuned_vs_hand.saxpy", "ratio"},
    {"tuned_vs_hand.sdot", "ratio"},
    {"tuned_vs_hand.sgemv_n", "ratio"},
    {"tuned_vs_hand.sgemm", "ratio"},
    {"tuned_vs_hand.blur", "ratio"},
    {"tuned_vs_hand", "ratio"},
    {"kernel_gflops.l1", "GFLOP/s"},
    {"kernel_gflops.l2", "GFLOP/s"},
    {"kernel_gflops.sgemm", "GFLOP/s"},
    {"kernel_gflops.blur", "GFLOP/s"},
    {"kernel_gflops.unsharp", "GFLOP/s"},
    {"kernel_gflops.geomean", "GFLOP/s"},
    {"codegen.c_bytes", "count"},
    {"verify.isa_downgrades", "count"},
    {"serve.cold_vs_warm", "ratio"},
    {"serve.lint_vs_warm", "ratio"},
    {"serve.warm_phase_queue_frac", "ratio"},
    {"serve.warm_phase_cache_frac", "ratio"},
    {"serve.warm_phase_validate_frac", "ratio"},
    {"serve.rejected", "count"},
    {"serve.degraded", "count"},
    {"cache.tune_hit_ratio", "ratio"},
    {"cache.stores", "count"},
    {"serve.rss_mb_per_1k_req", "MB"},
    {"obs.trace_overhead_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.dropped", "count"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_suite --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n"
                 "       bench_suite --selftest\n");
    return 2;
}

/** Every EXO2_* variable changes what the engine does (tuner budgets,
 *  fault injection, caches, tracing, ISA): a run with any of them set
 *  would silently measure a different workload. */
bool
environment_is_clean()
{
    bool clean = true;
    for (char** e = environ; *e; e++) {
        if (std::strncmp(*e, "EXO2_", 5) == 0) {
            std::fprintf(stderr,
                         "bench_suite: refusing to run with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}

void
print_result(const Result& r)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"isa\": \"%s\", \"metrics\": {",
                r.failed == 0 ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed),
                verify::native_isa_name(verify::cjit_env_isa()));
    bool first = true;
    for (const auto& [name, m] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------------

int g_checks = 0, g_failures = 0;

void
check(bool ok, const std::string& what)
{
    g_checks++;
    if (!ok) {
        g_failures++;
        std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    }
}

bool
near(double a, double b, double tol = 1e-9)
{
    return std::fabs(a - b) <= tol;
}

void
selftest_fold()
{
    // Two threads, times in ms. Thread 1: A [0, 10) holds B [1, 4) and
    // C [5, 9), and C holds B [6, 7). Thread 2: B [0, 10) holds A [2, 3).
    const char* json = R"({"displayTimeUnit":"ms","traceEvents":[
      {"name":"A","cat":"exo2","ph":"X","pid":1,"tid":1,"ts":0.000,"dur":10000.000},
      {"name":"B","cat":"exo2","ph":"X","pid":1,"tid":1,"ts":1000.000,"dur":3000.000,"args":{"k":"x\"}y"}},
      {"name":"C","cat":"exo2","ph":"X","pid":1,"tid":1,"ts":5000.000,"dur":4000.000},
      {"name":"B","cat":"exo2","ph":"X","pid":1,"tid":1,"ts":6000.000,"dur":1000.000,"args":{"n":3}},
      {"name":"B","cat":"exo2","ph":"X","pid":1,"tid":2,"ts":0.000,"dur":10000.000},
      {"name":"A","cat":"exo2","ph":"X","pid":1,"tid":2,"ts":2000.000,"dur":1000.000}]})";
    auto fold = fold_trace(json);
    check(fold["A"].count == 2 && fold["B"].count == 3 &&
              fold["C"].count == 1,
          "fold counts");
    // A: 10 - 3 - 4 = 3 ms on thread 1, plus 1 ms on thread 2.
    check(near(fold["A"].self_ms, 4.0), "self time of A");
    // B: 3 + 1 on thread 1, 10 - 1 on thread 2.
    check(near(fold["B"].self_ms, 13.0), "self time of B");
    check(near(fold["C"].self_ms, 3.0), "self time of C");

    bool threw = false;
    try {
        fold_trace("{\"traceEvents\":[{\"name\":\"A\",");
    } catch (const std::exception&) {
        threw = true;
    }
    check(threw, "malformed trace rejected");
}

void
selftest_spans()
{
    // Real spans from two threads: each records an outer span with two
    // nested ones; self time is never negative and never above total.
    start_tracing();
    auto work = [] {
        EXO2_SPAN("sched.l1");
        for (int i = 0; i < 2; i++) {
            EXO2_SPAN("prim.apply");
            volatile double x = 0;
            for (int j = 0; j < 100000; j++)
                x = x + j;
        }
    };
    std::thread t1(work), t2(work);
    t1.join();
    t2.join();
    uint64_t dropped = 1;
    auto fold = stop_tracing(&dropped);
    check(dropped == 0, "no spans dropped");
    check(fold["sched.l1"].count == 2 && fold["prim.apply"].count == 4,
          "two-thread span counts");
    check(fold["sched.l1"].self_ms >= 0 && fold["prim.apply"].self_ms > 0,
          "two-thread self times");
    Result r;
    report_spans(r, fold, 1000.0);
    check(r.metrics.count("span.serve.request.count") &&
              r.metrics["span.serve.request.count"].value == 0,
          "untouched spans reported as zero");
}

void
selftest_stats()
{
    // Spearman with ties: ranks x = (1, 2.5, 2.5, 4), y = (1, 3, 2, 4).
    check(near(spearman({1, 2, 2, 3}, {1, 3, 2, 4}), 4.5 / std::sqrt(22.5)),
          "spearman with ties");
    check(near(spearman({1, 2, 3}, {10, 20, 30}), 1.0), "spearman monotone");
    check(near(spearman({1, 2, 3}, {3, 2, 1}), -1.0), "spearman reversed");
    check(near(spearman({5, 5, 5}, {1, 2, 3}), 0.0), "spearman constant");

    check(near(percentile({4, 1, 3, 2}, 50), 2.5), "interpolated median");
    check(near(percentile({1, 2, 3, 4, 5}, 25), 2.0), "first quartile");
    // Highest percentile with at least ten samples beyond it.
    auto tail = [](size_t n) {
        return summarize(std::vector<double>(n, 1.0)).tail_pct;
    };
    check(tail(1000) == 99.0, "tail of 1000 is p99");
    check(tail(999) == 95.0, "tail of 999 is p95");
    check(tail(154) == 90.0, "tail of 154 is p90");
    check(tail(100) == 90.0, "tail of 100 is p90");
    check(tail(99) == 75.0, "tail of 99 is p75");
    check(tail(20) == 50.0, "tail of 20 is p50");
    check(tail(19) == 0.0, "no tail below 20 samples");
    check(near(geomean({1, 4}), 2.0), "geomean");
}

int
selftest()
{
    selftest_fold();
    selftest_spans();
    selftest_stats();
    std::fprintf(stderr, "selftest: %d checks, %d failed\n", g_checks,
                 g_failures);
    return g_failures == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool selftest_mode = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--selftest")
                selftest_mode = true;
            else if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--work-dir")
                o.work_dir = value();
            else
                return usage();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_suite: %s\n", e.what());
            return usage();
        }
    }
    if (!environment_is_clean())
        return 2;
    if (selftest_mode)
        return selftest();
    if (o.work_dir.empty() || !(o.seconds > 0))
        return usage();

    setenv("EXO2_NATIVE_ISA", "auto", 1);
    set_scratch_dir(o.work_dir);

    void (*run)(const Options&, Result&) =
        o.workload == "sched_lib"     ? run_sched_lib
        : o.workload == "tune_search" ? run_tune_search
        : o.workload == "native_run"  ? run_native_run
        : o.workload == "serve_mix"   ? run_serve_mix
                                      : nullptr;
    if (!run)
        return usage();

    Result r;
    if (o.trace) {
        for (const auto& [name, unit] : kLayerMetrics)
            r.set(name, 0, unit);
        report_spans(r, {}, 1);
    }
    try {
        run(o, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_suite: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    print_result(r);
    return 0;
}
