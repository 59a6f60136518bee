/**
 * @file
 * Autotuner benchmark (DESIGN.md §6): tune each representative kernel
 * from its *naive* definition — no hand-written schedule — and compare
 * the winner's wall-clock GFLOP/s against the hand-scheduled `sched/`
 * library version of the same kernel. Results go to
 * BENCH_autotune.json; the acceptance bar is >= 80% of hand-scheduled
 * performance on at least 3 of the 5 kernels, with every winner
 * tri-oracle-clean and bit-for-bit replayable from its emitted script.
 *
 * Usage: bench_autotune [output.json]
 *        bench_autotune --smoke   (one small kernel end-to-end; the
 *                                  autotune_smoke gate)
 *        bench_autotune --faults  (tune all five kernels with reduced
 *                                  budgets under the EXO2_FAULTS
 *                                  injection spec; exits 0 iff every
 *                                  tune returns a validated, replayable
 *                                  winner and faults actually fired —
 *                                  the fault_injection.<class> gates)
 *
 * The JIT honours EXO2_NATIVE_ISA; this benchmark sets it to "auto"
 * (unless already set) so both the tuner's measured refinement and the
 * final comparison run with native SIMD codegen where the CPU allows.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/frontend/parser.h"
#include "src/obs/phase.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/tune/tune.h"
#include "src/verify/verify.h"

#include "bench/bench_util.h"

namespace {

using namespace exo2;
using verify::CompiledProc;
using verify::OracleInputs;
using verify::SizeEnv;

struct Case
{
    std::string name;
    ProcPtr naive;
    ProcPtr hand;          ///< sched/ library schedule of the same kernel
    SizeEnv bench_sizes;   ///< measurement sizes
    tune::TuneOpts opts;
    double flops = 0;      ///< useful floating-point ops per call
};

using bench::env_str;
using bench::json_escape;

/** GFLOP/s of `p` built with the environment's ISA. */
double
measure_gflops(const ProcPtr& p, const SizeEnv& env, double flops)
{
    return bench::measure_gflops(CompiledProc(p),
                                 bench::timing_inputs(p, env), flops);
}

/** One schedule script as a single line. */
std::string
script_line(const std::vector<tune::FuzzStep>& script)
{
    std::string s;
    for (const auto& st : script)
        s += (s.empty() ? "" : "; ") + verify::step_to_string(st);
    return s;
}

std::vector<Case>
build_cases(const Machine& m)
{
    std::vector<Case> cases;
    const int64_t n = 1 << 16;

    for (const char* name : {"saxpy", "sdot"}) {
        const auto& k = kernels::find_kernel(name);
        Case c;
        c.name = name;
        c.naive = k.proc;
        c.hand = sched::optimize_level_1(
            k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 2);
        c.bench_sizes = {{"n", n}};
        c.flops = 2.0 * static_cast<double>(n);
        c.opts.tune_sizes = {{"n", 2048}};
        cases.push_back(c);
    }
    {
        const auto& k = kernels::find_kernel("sgemv_n");
        Case c;
        c.name = "sgemv_n";
        c.naive = k.proc;
        c.hand = sched::optimize_level_2_general(
            k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 4, 2);
        c.bench_sizes = {{"M", 512}, {"N", 512}};
        c.flops = 2.0 * 512.0 * 512.0;
        c.opts.tune_sizes = {{"M", 96}, {"N", 96}};
        cases.push_back(c);
    }
    {
        Case c;
        c.name = "sgemm";
        c.naive = kernels::sgemm();
        ProcPtr asserted = sched::sgemm_with_asserts(c.naive, m);
        c.hand = sched::schedule_sgemm(asserted, m);
        c.bench_sizes = {{"M", 192}, {"N", 192}, {"K", 192}};
        c.flops = 2.0 * 192.0 * 192.0 * 192.0;
        c.opts.tune_sizes = {{"M", 48}, {"N", 48}, {"K", 48}};
        c.opts.max_rounds = 6;
        cases.push_back(c);
    }
    {
        Case c;
        c.name = "blur";
        c.naive = kernels::blur();
        c.hand = sched::schedule_blur_like_halide(c.naive, m);
        int64_t H = 64, W = 512;
        c.bench_sizes = {{"H", H}, {"W", W}};
        c.flops = 3.0 * static_cast<double>((H + 2) * W + H * W);
        c.opts.tune_sizes = {{"H", 32}, {"W", 256}};
        cases.push_back(c);
    }
    return cases;
}

}  // namespace

namespace {

/** --faults: drive the full five-kernel tune under the EXO2_FAULTS
 *  injection spec with small search budgets. Passing means every tune
 *  *completed* with a tri-oracle-validated, bit-for-bit replayable
 *  winner while faults were genuinely being injected — the driver
 *  process surviving to print the summary is the point. */
int
run_fault_mode(const Machine& m)
{
    using verify::fault_injection_counts;

    verify::FaultSpec spec = verify::current_fault_spec();
    if (!spec.any()) {
        std::cerr << "bench_autotune --faults: EXO2_FAULTS is not set "
                     "or injects nothing; refusing to pass vacuously\n";
        return 2;
    }
    verify::reset_fault_injection_counts();
    std::cerr << "bench_autotune --faults: spec "
              << verify::fault_spec_to_string(spec) << "\n";

    int failures = 0;
    for (Case& c : build_cases(m)) {
        c.opts.beam_width = 2;
        c.opts.max_rounds = 3;
        c.opts.random_restarts = 0;
        c.opts.jit_topk = 2;
        tune::TuneResult r = tune::autotune(c.naive, m, c.opts);
        bool replay_ok =
            proc_digest(tune::replay_script(c.naive, r.script)) ==
            proc_digest(r.best);
        std::cerr << "  " << c.name << ": completed, validated="
                  << r.validated << ", replay_ok=" << replay_ok
                  << ", jit_faults=" << r.stats.jit_faults
                  << ", validate_rejects=" << r.stats.validate_rejects
                  << "\n";
        if (!r.validated || !replay_ok || !r.best)
            failures++;
    }

    verify::FaultInjectionCounts fc = fault_injection_counts();
    std::cerr << "bench_autotune --faults: injected "
              << fc.total() << " faults (compile_fail=" << fc.compile_fail
              << " compile_slow=" << fc.compile_slow
              << " dlopen_fail=" << fc.dlopen_fail
              << " isa_fail=" << fc.isa_fail
              << " sigsegv=" << fc.sigsegv << " sigfpe=" << fc.sigfpe
              << " sigill=" << fc.sigill << " hang=" << fc.hang
              << "), " << failures << " kernels without a validated "
              << "replayable winner\n";
    if (fc.total() == 0) {
        std::cerr << "bench_autotune --faults: no fault fired; the gate "
                     "would be vacuous — failing\n";
        return 2;
    }
    return failures == 0 ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
    bool faults = argc > 1 && std::string(argv[1]) == "--faults";
    std::string out_path = "BENCH_autotune.json";
    if (argc > 1 && !smoke && !faults)
        out_path = argv[1];

    // Native codegen wherever the CPU allows; the tuner's JIT re-rank
    // and the final measurement then see the same instruction lowering.
    setenv("EXO2_NATIVE_ISA", "auto", /*overwrite=*/0);

    const Machine& m = machine_avx2();

    if (faults)
        return run_fault_mode(m);

    if (smoke) {
        // One small kernel end-to-end: search, JIT re-rank, validate,
        // replay. Exercises the full pipeline in seconds.
        const auto& k = kernels::find_kernel("saxpy");
        tune::TuneOpts o;
        o.tune_sizes = {{"n", 1024}};
        o.measure_sizes = {{"n", 8192}};
        o.beam_width = 3;
        o.max_rounds = 4;
        o.jit_topk = 2;
        tune::TuneResult r = tune::autotune(k.proc, m, o);
        bool replay_ok =
            proc_digest(tune::replay_script(k.proc, r.script)) ==
            proc_digest(r.best);
        std::cerr << "autotune smoke: naive " << r.naive_cost
                  << " -> best " << r.cost << " cycles, validated="
                  << r.validated << ", replay_ok=" << replay_ok
                  << ", script: " << script_line(r.script) << "\n";
        return (r.validated && replay_ok && r.cost < r.naive_cost) ? 0
                                                                   : 1;
    }

    std::ostringstream out;
    std::vector<Case> cases = build_cases(m);

    out << "{\n  \"description\": \"autotuned-from-naive vs "
           "hand-scheduled GFLOP/s of JIT-compiled kernels (see "
           "bench/README.md)\",\n  \"kernels\": [\n";

    bool first = true;
    int hits = 0;
    int lint_checked_total = 0;
    int lint_pruned_total = 0;
    for (Case& c : cases) {
        c.opts.beam_width = 5;
        c.opts.random_restarts = 2;
        c.opts.jit_topk = 4;
        c.opts.measure_sizes = c.bench_sizes;

        // Phase-attributed tune (DESIGN.md §10): where each kernel's
        // tuning wall clock went, alongside the performance numbers.
        obs::phase_begin_collection();
        auto tune_t0 = std::chrono::steady_clock::now();
        tune::TuneResult r = tune::autotune(c.naive, m, c.opts);
        double tune_wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - tune_t0)
                .count();
        obs::PhaseBreakdown pb = obs::phase_end_collection();
        lint_checked_total += r.stats.lint_checked;
        lint_pruned_total += r.stats.lint_pruned;

        bool replay_ok =
            proc_digest(tune::replay_script(c.naive, r.script)) ==
            proc_digest(r.best);
        // The tuner validated at tune sizes; re-check at bench sizes.
        bool clean =
            r.validated &&
            verify::tri_oracle_check(c.naive, r.best, c.bench_sizes, 99)
                .ok;

        double g_naive = measure_gflops(c.naive, c.bench_sizes, c.flops);
        double g_hand = measure_gflops(c.hand, c.bench_sizes, c.flops);
        double g_tuned = measure_gflops(r.best, c.bench_sizes, c.flops);
        double ratio = g_tuned / std::max(g_hand, 1e-12);
        if (ratio >= 0.8 && clean && replay_ok)
            hits++;

        std::cerr.setf(std::ios::fixed);
        std::cerr.precision(2);
        std::cerr << c.name << " (" << env_str(c.bench_sizes)
                  << "): naive " << g_naive << ", hand " << g_hand
                  << ", tuned " << g_tuned << " GFLOP/s (" << ratio * 100
                  << "% of hand), validated=" << clean
                  << ", replay_ok=" << replay_ok << "\n  script: "
                  << script_line(r.script) << "\n";

        char nums[512];
        std::snprintf(
            nums, sizeof(nums),
            "\"flops_per_call\": %.0f,\n"
            "     \"naive_gflops\": %.3f, \"hand_gflops\": %.3f, "
            "\"tuned_gflops\": %.3f, \"tuned_vs_hand\": %.3f,\n"
            "     \"sim_cycles_naive\": %.0f, \"sim_cycles_tuned\": "
            "%.0f, \"states_scored\": %d,\n"
            "     \"lint_checked\": %d, \"lint_pruned\": %d, "
            "\"lint_seconds\": %.4f",
            c.flops, g_naive, g_hand, g_tuned, ratio, r.naive_cost,
            r.cost, r.stats.states_scored, r.stats.lint_checked,
            r.stats.lint_pruned, pb.of(obs::Phase::Lint));
        char phases[512];
        std::snprintf(
            phases, sizeof(phases),
            "\"tune_wall_ms\": %.1f,\n"
            "     \"tune_phases_ms\": {\"lint\": %.1f, \"cache\": %.1f, "
            "\"search\": %.1f, \"cjit\": %.1f, \"validate\": %.1f}",
            tune_wall_ms, pb.of(obs::Phase::Lint) * 1000.0,
            pb.of(obs::Phase::Cache) * 1000.0,
            pb.of(obs::Phase::Search) * 1000.0,
            pb.of(obs::Phase::Cjit) * 1000.0,
            pb.of(obs::Phase::Validate) * 1000.0);
        out << (first ? "" : ",\n") << "    {\"name\": \""
            << json_escape(c.name) << "\", \"sizes\": \""
            << json_escape(env_str(c.bench_sizes)) << "\", " << nums
            << ",\n     " << phases
            << ",\n     \"validated\": " << (clean ? "true" : "false")
            << ", \"replay_ok\": " << (replay_ok ? "true" : "false")
            << ",\n     \"script\": \""
            << json_escape(verify::script_to_string(r.script))
            << "\"}";
        first = false;
    }
    // Lint-gate demonstration (DESIGN.md §9): the five kernels above
    // are correct, so their sound rewrites prune nothing — checked > 0,
    // pruned == 0 is itself the acceptance property (winners bit-for-
    // bit unaffected). To show the gate fires, tune a kernel carrying
    // a proven out-of-bounds fencepost store: every rewrite inherits
    // the violation, so every candidate is pruned before a single JIT
    // compile is paid for.
    {
        ProcPtr oob = parse_proc(R"(
def saxpy_fencepost(n: size, a: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = y[i] + a * x[i]
    y[n] = 0.0
)");
        tune::TuneOpts o;
        o.tune_sizes = {{"n", 2048}};
        o.beam_width = 4;
        o.max_rounds = 4;
        o.jit_topk = 0;
        o.validate = false;
        o.use_cache = false;
        tune::TuneResult r = tune::autotune(oob, m, o);
        lint_checked_total += r.stats.lint_checked;
        lint_pruned_total += r.stats.lint_pruned;
        std::cerr << "lint gate: " << lint_pruned_total << "/"
                  << lint_checked_total
                  << " candidates pruned pre-JIT across the run ("
                  << r.stats.lint_pruned << "/" << r.stats.lint_checked
                  << " from the seeded out-of-bounds kernel)\n";
        char lg[256];
        std::snprintf(
            lg, sizeof(lg),
            "  \"lint_gate\": {\"checked\": %d, \"pruned\": %d, "
            "\"pruned_fraction\": %.4f,\n"
            "    \"seeded_oob_checked\": %d, \"seeded_oob_pruned\": "
            "%d},\n",
            lint_checked_total, lint_pruned_total,
            lint_checked_total
                ? static_cast<double>(lint_pruned_total) /
                      lint_checked_total
                : 0.0,
            r.stats.lint_checked, r.stats.lint_pruned);
        out << "\n  ],\n" << lg;
    }
    out << "  \"tuned_at_80pct_of_hand\": " << hits << "\n}\n";
    if (!bench::write_file_atomic(out_path, out.str())) {
        std::cerr << "failed to write " << out_path << "\n";
        return 3;
    }
    std::cerr << "wrote " << out_path << " (" << hits << "/"
              << cases.size() << " kernels at >= 80% of hand)\n";
    return hits >= 3 ? 0 : 2;
}
