/**
 * @file
 * Native GFLOP/s benchmark (DESIGN.md §5): compile each scheduled
 * kernel twice with the in-process JIT — once as portable scalar C,
 * once with AVX2/AVX-512 intrinsics codegen — run both on identical
 * inputs, and record achieved GFLOP/s into BENCH_native_gflops.json.
 * This is the wall-clock counterpart of the cost-simulator figures:
 * it shows the instruction-library lowering reaching real vector
 * units, not just modeled ones. Each kernel's native build (codegen,
 * compile, dlopen) is also timed, median of 5 builds, since every
 * tri-oracle check, tuner winner and cold daemon tune pays for one.
 *
 * Usage: bench_native [output.json]
 * (exits 0 with a "skipped" record on CPUs without AVX2)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/verify/verify.h"

#include "bench/bench_util.h"

namespace {

using namespace exo2;
using verify::CompiledProc;
using verify::NativeIsa;
using verify::OracleInputs;
using verify::SizeEnv;

struct Case
{
    std::string name;
    ProcPtr scheduled;
    SizeEnv env;
    double flops;  ///< useful floating-point ops per call
};

using bench::env_str;
using bench::measure_gflops;

constexpr int kBuilds = 5;

/** Wall-clock milliseconds of `kBuilds` native builds of `p`, sorted. */
std::vector<double>
build_ms(const ProcPtr& p, NativeIsa isa)
{
    std::vector<double> ms;
    for (int i = 0; i < kBuilds; i++) {
        auto t0 = std::chrono::steady_clock::now();
        CompiledProc cp(p, isa);
        auto t1 = std::chrono::steady_clock::now();
        ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0)
                         .count());
    }
    std::sort(ms.begin(), ms.end());
    return ms;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string out_path =
        argc > 1 ? argv[1] : "BENCH_native_gflops.json";
    std::ostringstream out;
    // Build times measure the compiler, not a compile-cache hit.
    unsetenv("EXO2_CACHE_DIR");

    if (!verify::cjit_cpu_supports(NativeIsa::Avx2)) {
        bench::write_file_atomic(
            out_path, "{\n  \"skipped\": \"CPU has no AVX2+FMA\"\n}\n");
        std::cerr << "bench_native: CPU has no AVX2+FMA; skipped\n";
        return 0;
    }
    // Kernels are scheduled for the AVX2 machine (runs everywhere the
    // native gate passes); the ISA ceiling only affects codegen flags.
    NativeIsa isa = NativeIsa::Avx2;
    const Machine& m = machine_avx2();

    std::vector<Case> cases;
    const int64_t n = 1 << 16;
    for (const char* name : {"saxpy", "sdot", "sasum", "dscal"}) {
        const auto& k = kernels::find_kernel(name);
        Case c;
        c.name = name;
        c.scheduled = sched::optimize_level_1(
            k.proc, k.proc->find_loop(k.main_loop), k.prec, m, 2);
        c.env = {{"n", n}};
        // saxpy/sdot: 2n; sasum: n adds + n abs; dscal: n muls.
        c.flops = (c.name == "dscal") ? static_cast<double>(n)
                                      : 2.0 * static_cast<double>(n);
        cases.push_back(c);
    }
    {
        Case c;
        c.name = "sgemm";
        ProcPtr base = kernels::sgemm();
        ProcPtr p = sched::sgemm_with_asserts(base, m);
        c.scheduled = sched::schedule_sgemm(p, m);
        c.env = {{"M", 192}, {"N", 192}, {"K", 192}};
        c.flops = 2.0 * 192.0 * 192.0 * 192.0;
        cases.push_back(c);
    }
    {
        Case c;
        c.name = "blur";
        c.scheduled =
            sched::schedule_blur_like_halide(kernels::blur(), m);
        int64_t H = 64, W = 512;
        c.env = {{"H", H}, {"W", W}};
        // Two 3-tap passes: 2 adds + 1 mul each, (H+2)*W + H*W sites.
        c.flops = 3.0 * static_cast<double>((H + 2) * W + H * W);
        cases.push_back(c);
    }

    out << "{\n  \"description\": \"scalar vs native-intrinsics GFLOP/s "
           "of JIT-compiled scheduled kernels (see bench/README.md)\",\n";
    out << "  \"isa\": \"avx2\",\n  \"kernels\": [\n";
    bool first = true;
    int wins = 0;
    for (const Case& c : cases) {
        OracleInputs inputs = bench::timing_inputs(c.scheduled, c.env);
        std::vector<double> bms = build_ms(c.scheduled, isa);
        CompiledProc scalar(c.scheduled, NativeIsa::Scalar);
        CompiledProc native(c.scheduled, isa);
        if (!native.is_native()) {
            std::cerr << c.name << ": native gate did not engage\n";
            return 1;
        }
        double gs = measure_gflops(scalar, inputs, c.flops);
        double gn = measure_gflops(native, inputs, c.flops);
        double speedup = gn / gs;
        if (speedup > 1.0)
            wins++;
        std::cerr.setf(std::ios::fixed);
        std::cerr.precision(2);
        std::cerr << c.name << " (" << env_str(c.env) << "): scalar "
                  << gs << " GFLOP/s, native " << gn << " GFLOP/s ("
                  << speedup << "x), native build " << bms[kBuilds / 2]
                  << " ms\n";
        char buf[640];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"sizes\": \"%s\", "
                      "\"flops_per_call\": %.0f, "
                      "\"scalar_gflops\": %.3f, \"native_gflops\": %.3f, "
                      "\"speedup\": %.2f, \"build_ms_median\": %.1f, "
                      "\"build_ms_min\": %.1f, \"build_ms_max\": %.1f}",
                      c.name.c_str(), env_str(c.env).c_str(), c.flops,
                      gs, gn, speedup, bms[kBuilds / 2], bms.front(),
                      bms.back());
        out << (first ? "" : ",\n") << buf;
        first = false;
    }
    out << "\n  ],\n  \"native_faster_count\": " << wins << "\n}\n";
    if (!bench::write_file_atomic(out_path, out.str())) {
        std::cerr << "failed to write " << out_path << "\n";
        return 3;
    }
    std::cerr << "wrote " << out_path << " (" << wins << "/"
              << cases.size() << " kernels faster native)\n";
    return wins >= 3 ? 0 : 2;
}
