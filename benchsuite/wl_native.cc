/**
 * @file
 * native_run: generated-code quality and JIT compile time. Setup
 * schedules a fixed 18-kernel cross-section of the library with the
 * sched/ library. Each op JIT-builds one scheduled kernel with the
 * native ISA (EXO2_NATIVE_ISA=auto), and the op's time is that build.
 * Around it, untimed: the naive kernel is built as portable C, both
 * are timed at bench sizes (median of 5 interleaved calibrated
 * measurements), the scheduled kernel's output is checked against the
 * interpreter, and the cost simulator scores it at the same sizes, for
 * cost-model fidelity. The workload bypasses tune and cursor.
 */

#include <cstdio>
#include <map>

#include "benchsuite/suite.h"
#include "src/interp/interp.h"
#include "src/machine/cost_sim.h"
#include "src/obs/trace.h"

namespace exo2 {
namespace suite {

namespace {

/** A cross-section of the library: both precisions; vector updates,
 *  reductions, rotations and copies (level 1); both gemv layouts, a
 *  rank-1 and a rank-2 update, symmetric, triangular multiply and
 *  triangular solve (level 2); GEMM and the two stencils. The full 77
 *  do not fit a run: each native build takes 0.3-0.9 s. */
const char* const kKernels[] = {
    "saxpy",   "ddot",      "sasum",     "dscal",     "scopy",
    "srot",    "dsdot",     "sgemv_n",   "dgemv_t",   "sger",
    "ssymv_l", "ssyr2_u",   "strmv_lnn", "dtrsv_unn", "dtrmv_utn",
    "sgemm",   "blur",      "unsharp",
};

/** What the ops learned about one kernel (every repetition). */
struct KernelLog
{
    std::vector<double> sched_s, naive_s;  ///< per call, bench sizes
    double cycles = 0;                      ///< simulated, bench sizes
    double flops = 0;
};

}  // namespace

void
run_native_run(const Options& o, Result& r)
{
    std::vector<size_t> idx;
    for (const char* name : kKernels)
        idx.push_back(library_index(name));
    const std::vector<LibKernel>& lib = library();

    std::vector<ProcPtr> naive, sched;
    std::vector<double> parse_ms;
    r.set("setup_s", median_setup_s(3, [&] {
              std::vector<ProcPtr> all = load_library(&parse_ms);
              naive.clear();
              sched.clear();
              for (size_t li : idx) {
                  naive.push_back(all[li]);
                  sched.push_back(schedule_kernel(lib[li], all[li]));
              }
          }),
          "s");
    r.set("frontend.parse_ms", median(parse_ms), "ms");

    std::vector<KernelLog> logs(idx.size());
    std::vector<verify::SizeEnv> env(idx.size());
    for (size_t i = 0; i < idx.size(); i++) {
        env[i] = bench_sizes(lib[idx[i]], naive[i]);
        logs[i].flops = kernel_flops(naive[i], env[i]);
    }
    double sim_s = 0, c_bytes = 0;
    int sims = 0;
    CyclicOrder order(idx.size(), o.seed);
    // One cycle, 18 kernels, takes ~13 s on the reference machine.
    OpLog log = measure(o, r, idx.size(), 13.0, [&](size_t k) {
        size_t i = order.at(k);
        const LibKernel& lk = lib[idx[i]];
        r.attempted++;
        double build_ms = 0;
        try {
            double t0 = now_s();
            verify::CompiledProc cs(sched[i]);
            build_ms = (now_s() - t0) * 1e3;
            verify::CompiledProc cn(naive[i], verify::NativeIsa::Scalar);
            if (k < idx.size())
                c_bytes += static_cast<double>(cs.source().size());

            // Compiled output against the interpreter on the original.
            verify::SizeEnv small = check_sizes(lk, naive[i]);
            verify::OracleInputs got =
                verify::make_inputs(sched[i], small, o.seed + k);
            cs.run(got.args);
            verify::OracleInputs want =
                verify::make_inputs(naive[i], small, o.seed + k);
            interp_run(naive[i], want.args);
            std::string bad = compare_buffers(want, got, check_tolerance(lk));
            if (!bad.empty()) {
                r.fail(lk.name + ": compiled output differs: " + bad);
                return build_ms;
            }

            verify::OracleInputs in = bench_inputs(sched[i], env[i], o.seed);
            for (int rep = 0; rep < 5; rep++) {
                EXO2_SPAN("kernel.run");
                logs[i].naive_s.push_back(cn.time_per_call(in.args, 0.02));
                logs[i].sched_s.push_back(cs.time_per_call(in.args, 0.02));
            }
            clear_cost_sim_cache();
            double s0 = now_s();
            logs[i].cycles = simulate_cost_named(sched[i], env[i]).cycles;
            sim_s += now_s() - s0;
            sims++;
        } catch (const std::exception& e) {
            r.fail(lk.name + ": " + e.what());
        }
        return build_ms;
    });
    report_ops(r, log);
    r.set("peak_rss_mb", self_peak_rss_mb(), "MB");

    std::vector<double> speedup, gflops;
    std::map<std::string, std::vector<double>> fam_gflops;
    std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
        fam_rank;  // simulated cycles vs measured seconds, per family
    for (size_t i = 0; i < idx.size(); i++) {
        const KernelLog& kl = logs[i];
        if (kl.sched_s.empty())
            continue;
        const std::string& fam = lib[idx[i]].family;
        double t_sched = median(kl.sched_s);
        speedup.push_back(median(kl.naive_s) / t_sched);
        double g = kl.flops / t_sched / 1e9;
        gflops.push_back(g);
        fam_gflops[fam].push_back(g);
        fam_rank[fam].first.push_back(kl.cycles);
        fam_rank[fam].second.push_back(t_sched);
        // Across families sizes differ: rank cost per operation.
        fam_rank["all"].first.push_back(kl.cycles / kl.flops);
        fam_rank["all"].second.push_back(t_sched / kl.flops);
    }
    r.set("code_speedup", geomean(speedup), "x");
    for (const char* fam : {"l1", "l2", "sgemm", "blur", "unsharp"})
        r.set(std::string("kernel_gflops.") + fam, geomean(fam_gflops[fam]),
              "GFLOP/s");
    r.set("kernel_gflops.geomean", geomean(gflops), "GFLOP/s");
    for (const char* fam : {"l1", "l2", "all"})
        r.set(std::string("cost_sim.spearman_") + fam,
              spearman(fam_rank[fam].first, fam_rank[fam].second), "ratio");
    r.set("cost_sim.kernels_per_s", ratio(sims, sim_s), "1/s");
    r.set("codegen.c_bytes", c_bytes, "count");
    r.set("verify.isa_downgrades",
          static_cast<double>(verify::isa_downgrades().size()), "count");
    for (const verify::IsaDowngrade& d : verify::isa_downgrades())
        r.fail(d.proc_name + ": native ISA downgraded: " + d.reason);
}

}  // namespace suite
}  // namespace exo2
