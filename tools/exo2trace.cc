/**
 * @file
 * exo2trace — run a tune (or replay a schedule script) under the span
 * tracer and print a per-phase time breakdown (DESIGN.md §10).
 *
 *   exo2trace tune   [--kernel K] [--sizes S] [--machine M]
 *                    [--beam N] [--rounds N] [--restarts N]
 *                    [--jit-topk N] [--validate 0|1]
 *                    [--json] [--out trace.json]
 *   exo2trace replay --script FILE [--kernel K] [--sizes S]
 *                    [--json] [--out trace.json]
 *   exo2trace --overhead
 *
 * `--out` writes a Chrome trace-event file loadable in
 * https://ui.perfetto.dev; without it the trace stays in memory and
 * only the breakdown is printed.
 *
 * `--overhead` is the obs_overhead gate (`ctest -C gates -L '^obs$'`,
 * see CMakeLists.txt): it proves
 * (a) a traced tune captures a non-vacuous number of spans (>= 1000)
 * and (b) the tracing-off fast path costs < 2% of the same workload's
 * wall clock even if every captured span were a disabled-span probe.
 * The second bound is computed from a measured per-disabled-span unit
 * cost times the span count — deterministic, no flaky A/B timing.
 *
 * Exit codes: 0 = success (overhead: both bounds hold), 1 = gate
 * failure, 2 = usage error.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/tune/tune.h"
#include "src/verify/fuzz.h"

namespace {

using namespace exo2;

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ProcPtr
resolve_kernel(const std::string& name)
{
    if (name == "sgemm")
        return kernels::sgemm();
    if (name == "blur")
        return kernels::blur();
    if (name == "unsharp")
        return kernels::unsharp();
    return kernels::find_kernel(name).proc;
}

verify::SizeEnv
parse_sizes(const std::string& text)
{
    verify::SizeEnv env;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string pair = text.substr(pos, comma - pos);
        size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::cerr << "exo2trace: bad sizes '" << text
                      << "' (want name=value,...)\n";
            std::exit(2);
        }
        env[pair.substr(0, eq)] = std::stoll(pair.substr(eq + 1));
        pos = comma + 1;
    }
    return env;
}

std::vector<verify::FuzzStep>
load_script(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "exo2trace: cannot read script '" << path << "'\n";
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return verify::script_from_string(ss.str());
}

void
print_breakdown(const std::string& kernel, double wall_ms,
                const obs::PhaseBreakdown& pb, bool json,
                const std::string& out_path)
{
    double attributed_ms = pb.total() * 1000.0;
    double other_ms = wall_ms - attributed_ms;
    if (other_ms < 0)
        other_ms = 0;
    if (json) {
        std::ostringstream os;
        os << "{\"kernel\":\"" << kernel << "\",\"wall_ms\":";
        char buf[32];
        auto num = [&](double v) {
            std::snprintf(buf, sizeof(buf), "%.3f", v);
            os << buf;
        };
        num(wall_ms);
        os << ",\"phases\":{";
        for (int i = 0; i < obs::kNumPhases; i++) {
            if (i)
                os << ",";
            os << "\"" << obs::phase_name(static_cast<obs::Phase>(i))
               << "_ms\":";
            num(pb.seconds[i] * 1000.0);
        }
        os << "},\"unattributed_ms\":";
        num(other_ms);
        os << ",\"spans\":" << obs::trace_span_count()
           << ",\"spans_dropped\":" << obs::trace_dropped();
        if (!out_path.empty())
            os << ",\"trace\":\"" << out_path << "\"";
        os << "}";
        std::cout << os.str() << "\n";
        return;
    }
    std::printf("%s: %.3f ms wall\n", kernel.c_str(), wall_ms);
    for (int i = 0; i < obs::kNumPhases; i++) {
        double ms = pb.seconds[i] * 1000.0;
        if (ms <= 0)
            continue;
        std::printf("  %-9s %10.3f ms  (%5.1f%%)\n",
                    obs::phase_name(static_cast<obs::Phase>(i)), ms,
                    wall_ms > 0 ? 100.0 * ms / wall_ms : 0.0);
    }
    std::printf("  %-9s %10.3f ms  (%5.1f%%)\n", "unattrib.", other_ms,
                wall_ms > 0 ? 100.0 * other_ms / wall_ms : 0.0);
    std::printf("  spans: %llu captured, %llu dropped\n",
                static_cast<unsigned long long>(obs::trace_span_count()),
                static_cast<unsigned long long>(obs::trace_dropped()));
    if (!out_path.empty())
        std::printf("  trace: %s (open in https://ui.perfetto.dev)\n",
                    out_path.c_str());
}

/** The overhead gate's workload: a small deterministic tune, the
 *  shape of one BENCH_schedule_time kernel's search. */
double
run_workload(const ProcPtr& p)
{
    tune::TuneOpts opts;
    opts.tune_sizes = parse_sizes("n=4096");
    opts.beam_width = 8;
    opts.max_rounds = 8;
    opts.random_restarts = 10;
    opts.jit_topk = 0;
    opts.validate = false;
    opts.use_cache = false;
    double t0 = now_seconds();
    tune::TuneResult r = tune::autotune(p, find_machine("AVX2"), opts);
    (void)r;
    return now_seconds() - t0;
}

int
overhead_gate()
{
    ProcPtr p = resolve_kernel("saxpy");

    // (1) Wall clock of the workload with tracing off (warm once so
    // the engine's memo caches are in the same state for both runs).
    obs::trace_stop();
    run_workload(p);
    double t_off = run_workload(p);

    // (2) The same workload traced: span capture must be non-vacuous.
    obs::trace_clear();
    obs::trace_start();
    run_workload(p);
    obs::trace_stop();
    uint64_t spans = obs::trace_span_count() + obs::trace_dropped();
    std::printf("overhead gate: workload %.3f ms off, %llu spans on\n",
                t_off * 1000.0,
                static_cast<unsigned long long>(spans));
    if (spans < 1000) {
        std::printf("FAIL: expected >= 1000 spans (vacuous gate)\n");
        return 1;
    }

    // (3) Price of the disabled fast path, measured directly: a tight
    // loop of disabled EXO2_SPANs. `volatile` keeps the loop alive.
    constexpr int kProbes = 1 << 20;
    volatile int sink = 0;
    double p0 = now_seconds();
    for (int i = 0; i < kProbes; i++) {
        EXO2_SPAN("obs.probe");
        sink = sink + 1;
    }
    double per_span = (now_seconds() - p0) / kProbes;

    // Even charging every captured span at the disabled-path price,
    // the workload must stay under the 2% budget.
    double overhead = per_span * static_cast<double>(spans);
    double pct = 100.0 * overhead / t_off;
    std::printf(
        "overhead gate: %.1f ns/disabled-span x %llu spans = %.3f ms "
        "(%.3f%% of workload, budget 2%%)\n",
        per_span * 1e9, static_cast<unsigned long long>(spans),
        overhead * 1000.0, pct);
    if (pct >= 2.0) {
        std::printf("FAIL: disabled-tracing overhead above budget\n");
        return 1;
    }
    std::printf("overhead gate OK\n");
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string mode = "tune";
    std::string kernel = "saxpy";
    std::string sizes = "n=4096";
    std::string machine = "AVX2";
    std::string script_path;
    std::string out_path;
    bool json = false;
    tune::TuneOpts opts;
    opts.jit_topk = 0;
    opts.validate = false;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); i++) {
        const std::string& a = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "exo2trace: " << a << " needs a value\n";
                std::exit(2);
            }
            return args[++i];
        };
        if (a == "tune" || a == "replay")
            mode = a;
        else if (a == "--overhead")
            mode = "overhead";
        else if (a == "--kernel")
            kernel = next();
        else if (a == "--sizes")
            sizes = next();
        else if (a == "--machine")
            machine = next();
        else if (a == "--script")
            script_path = next();
        else if (a == "--out")
            out_path = next();
        else if (a == "--json")
            json = true;
        else if (a == "--beam")
            opts.beam_width = std::stoi(next());
        else if (a == "--rounds")
            opts.max_rounds = std::stoi(next());
        else if (a == "--restarts")
            opts.random_restarts = std::stoi(next());
        else if (a == "--jit-topk")
            opts.jit_topk = std::stoi(next());
        else if (a == "--validate")
            opts.validate = std::stoi(next()) != 0;
        else {
            std::cerr << "exo2trace: unknown argument '" << a << "'\n";
            return 2;
        }
    }

    try {
        if (mode == "overhead")
            return overhead_gate();

        ProcPtr p = resolve_kernel(kernel);
        obs::trace_start(out_path);
        obs::phase_begin_collection();
        double t0 = now_seconds();
        if (mode == "replay") {
            if (script_path.empty()) {
                std::cerr << "exo2trace: replay needs --script\n";
                return 2;
            }
            std::vector<verify::FuzzStep> script =
                load_script(script_path);
            EXO2_SPAN("tune.replay", {{"proc", p->name()}});
            ProcPtr q = tune::replay_script(p, script);
            (void)q;
        } else {
            opts.tune_sizes = parse_sizes(sizes);
            tune::TuneResult r =
                tune::autotune(p, find_machine(machine), opts);
            (void)r;
        }
        double wall_ms = (now_seconds() - t0) * 1000.0;
        obs::PhaseBreakdown pb = obs::phase_end_collection();
        obs::trace_stop();
        if (!out_path.empty() && !obs::trace_flush(out_path)) {
            std::cerr << "exo2trace: cannot write '" << out_path
                      << "'\n";
            return 1;
        }
        print_breakdown(kernel, wall_ms, pb, json, out_path);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "exo2trace: " << e.what() << "\n";
        return 2;
    }
}
