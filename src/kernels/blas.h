#ifndef EXO2_KERNELS_BLAS_H_
#define EXO2_KERNELS_BLAS_H_

/**
 * @file
 * Object-code definitions of the BLAS level 1 and level 2 kernels the
 * paper optimizes (Sections 6.2.1, 6.2.2) plus SGEMM (6.2.3).
 *
 * Deviations from reference BLAS, documented in DESIGN.md:
 *  - `nrm2` / `iamax` are omitted (value-dependent control; the paper
 *    makes the same exclusion).
 *  - triangular kernels write a separate output vector rather than
 *    updating in place (ascending loops only in the object language).
 *  - sdsdot/dsdot accumulate at f64 via an f64 result buffer.
 */

#include <string>
#include <vector>

#include "src/ir/proc.h"

namespace exo2 {
namespace kernels {

/** A named kernel variant with its precision and main-loop iterator. */
struct KernelDef
{
    std::string name;       ///< e.g. "saxpy", "dgemv_n"
    ScalarType prec;        ///< computation precision
    ProcPtr proc;
    std::string main_loop;  ///< iterator of the outermost compute loop
    bool triangular = false;
};

/** The 24 level-1 kernel variants (s/d x {asum, axpy, dot, sdsdot,
 *  dsdot*, copy, swap, scal, rot, rotm(-1/0/1/-2)}). */
const std::vector<KernelDef>& blas_level1();

/** The 50 level-2 kernel variants. */
const std::vector<KernelDef>& blas_level2();

/** Look up a kernel by name across both levels. */
const KernelDef& find_kernel(const std::string& name);

/** Outer-product SGEMM (Appendix C starting point). */
ProcPtr sgemm();

/** Any kernel by name: the registry (`find_kernel`) plus the demo
 *  kernels sgemm, blur and unsharp. Throws SchedulingError otherwise. */
ProcPtr resolve_kernel(const std::string& name);

}  // namespace kernels
}  // namespace exo2

#endif  // EXO2_KERNELS_BLAS_H_
