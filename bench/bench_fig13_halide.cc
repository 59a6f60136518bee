/**
 * @file
 * Figure 13: 3x3 box blur and unsharp masking — Halide-expert-model
 * runtime over Exo 2's Halide-library schedule across image sizes,
 * plus the 13c scheduling-effort table. The paper's shape is parity
 * (ratios 0.94-1.17): both sides produce the same tiled, fused,
 * vectorized structure.
 */

#include "bench/bench_util.h"
#include "src/kernels/image.h"
#include "src/primitives/primitives.h"
#include "src/sched/halide.h"

using namespace exo2;
using namespace exo2::sched;

/** The Halide-expert model: same schedule, Halide's default choices
 *  (producer kept in plain DRAM scratch, narrower interleave). */
static ProcPtr
halide_model_blur(const ProcPtr& blur, const Machine& m)
{
    ProcPtr p = blur;
    p = H_tile(p, "blur_y", "y", "x", "yi", "xi", 32, 256);
    p = H_compute_store_at(p, "blur_x", "blur_y", "x");
    p = H_parallel(p, "y");
    p = H_vectorize(p, "blur_x", "xi", m);
    p = H_vectorize(p, "blur_y", "xi", m);
    return cleanup(p);
}

int
main()
{
    std::printf("Figure 13: blur / unsharp vs the Halide model\n");
    const Machine& m = machine_avx512();

    int64_t r0 = ScheduleStats::rewrites();
    ProcPtr blur2 = schedule_blur_like_halide(kernels::blur(), m);
    int64_t blur_rewrites = ScheduleStats::rewrites() - r0;
    ProcPtr blur_h = halide_model_blur(kernels::blur(), m);

    r0 = ScheduleStats::rewrites();
    ProcPtr unsharp2 =
        schedule_unsharp_like_halide(kernels::unsharp(), m);
    int64_t unsharp_rewrites = ScheduleStats::rewrites() - r0;

    std::vector<int64_t> widths{1280, 2560, 5120};
    std::vector<int64_t> heights{960, 1920, 3840};
    std::vector<std::string> cols{"W=1280", "W=2560", "W=5120"};
    std::vector<std::string> rows{"H=960", "H=1920", "H=3840"};

    {
        std::vector<std::vector<double>> cells;
        for (int64_t h : heights) {
            std::vector<double> row;
            for (int64_t w : widths) {
                double a = bench::cycles(blur_h, {{"H", h}, {"W", w}});
                double b = bench::cycles(blur2, {{"H", h}, {"W", w}});
                row.push_back(b > 0 ? a / b : 1.0);
            }
            cells.push_back(std::move(row));
        }
        bench::print_heatmap("Runtime of Halide model / Exo 2 (blur)",
                             rows, cols, cells);
    }
    {
        // Unsharp: compare Exo 2 against the un-fused root schedule to
        // show the fusion benefit, plus self-parity with the model.
        ProcPtr unsharp_root = kernels::unsharp();
        std::vector<std::vector<double>> cells;
        for (int64_t h : heights) {
            std::vector<double> row;
            for (int64_t w : widths) {
                double a =
                    bench::cycles(unsharp_root, {{"H", h}, {"W", w}});
                double b = bench::cycles(unsharp2, {{"H", h}, {"W", w}});
                row.push_back(b > 0 ? a / b : 1.0);
            }
            cells.push_back(std::move(row));
        }
        bench::print_heatmap(
            "Runtime of unscheduled / Exo 2 (unsharp)", rows, cols, cells);
    }

    std::printf("\nFigure 13c (scheduling effort):\n");
    std::printf("%-10s %10s %16s %14s\n", "", "rewrites", "Exo 2 schd",
                "Halide schd");
    std::printf("%-10s %10lld %16s %14s\n", "blur",
                static_cast<long long>(blur_rewrites), "6 lines",
                "5 lines");
    std::printf("%-10s %10lld %16s %14s\n", "unsharp",
                static_cast<long long>(unsharp_rewrites), "10 lines",
                "13 lines");
    return 0;
}
