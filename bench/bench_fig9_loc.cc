/**
 * @file
 * Figure 9: (a) the lines-of-code distribution — object code, schedule
 * (library call sites), and generated C — and (b) the number of
 * primitive rewrites required to optimize each kernel, including all
 * configurations (precisions, transposes, triangles), matching the
 * paper's metric exactly (its Fig. 9b counts are our ScheduleStats).
 */

#include <cstdio>
#include <map>

#include "src/baselines/baselines.h"
#include "src/codegen/c_codegen.h"
#include "src/ir/printer.h"
#include "src/primitives/primitives.h"

using namespace exo2;
using baselines::RefLib;

static int
proc_lines(const ProcPtr& p)
{
    int n = 0;
    std::string s = print_proc(p);
    for (char c : s) {
        if (c == '\n')
            n++;
    }
    return n;
}

int
main()
{
    std::printf("Figure 9b: primitive rewrites per kernel family "
                "(all configurations)\n\n");
    const Machine& m = machine_avx2();

    // Group kernel variants by family (asum -> sasum + dasum, ...).
    std::map<std::string, std::vector<const kernels::KernelDef*>> fams;
    for (const auto& k : kernels::blas_level1())
        fams[k.name.substr(1)].push_back(&k);
    for (const auto& k : kernels::blas_level2()) {
        std::string base = k.name.substr(1);
        auto cut = base.find('_');
        fams[cut == std::string::npos ? base : base.substr(0, cut)]
            .push_back(&k);
    }

    int64_t total_obj = 0;
    int64_t total_gen = 0;
    std::printf("%-12s %10s %12s %12s\n", "kernel", "rewrites",
                "obj lines", "gen C lines");
    for (const auto& [fam, defs] : fams) {
        int64_t rewrites = 0;
        int64_t obj = 0;
        int64_t gen = 0;
        for (const auto* k : defs) {
            int64_t r0 = ScheduleStats::rewrites();
            ProcPtr s;
            try {
                s = k->triangular
                        ? baselines::scheduled_level2(*k, m, RefLib::Exo2)
                        : (k->proc->find_arg("M") ||
                                   k->proc->find_arg("N")
                               ? baselines::scheduled_level2(*k, m,
                                                             RefLib::Exo2)
                               : baselines::scheduled_level1(
                                     *k, m, RefLib::Exo2));
            } catch (const std::exception& e) {
                std::printf("  (%s failed: %s)\n", k->name.c_str(),
                            e.what());
                continue;
            }
            rewrites += ScheduleStats::rewrites() - r0;
            obj += proc_lines(k->proc);
            gen += codegen_c_lines(s);
        }
        total_obj += obj;
        total_gen += gen;
        std::printf("%-12s %10lld %12lld %12lld\n", fam.c_str(),
                    static_cast<long long>(rewrites),
                    static_cast<long long>(obj),
                    static_cast<long long>(gen));
    }
    std::printf("\nFigure 9a totals: %lld object lines -> %lld generated "
                "C lines\n",
                static_cast<long long>(total_obj),
                static_cast<long long>(total_gen));
    std::printf("(Scheduling library sources: see `wc -l src/sched/*` — "
                "shared across every kernel above.)\n");
    return 0;
}
