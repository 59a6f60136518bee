#ifndef EXO2_BENCH_BENCH_UTIL_H_
#define EXO2_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared benchmark-harness utilities: heatmap printing in the paper's
 * format (each cell a runtime ratio "reference / Exo 2"; higher is
 * better for Exo 2), cost-simulation wrappers, and native GFLOP/s
 * measurement through the in-process JIT.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/machine/cost_sim.h"
#include "src/util/file_atomic.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace bench {

/** Print a ratio heatmap in the paper's layout. */
inline void
print_heatmap(const std::string& title,
              const std::vector<std::string>& row_labels,
              const std::vector<std::string>& col_labels,
              const std::vector<std::vector<double>>& cells)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-14s", "");
    for (const auto& c : col_labels)
        std::printf("%10s", c.c_str());
    std::printf("\n");
    for (size_t r = 0; r < row_labels.size(); r++) {
        std::printf("%-14s", row_labels[r].c_str());
        for (size_t c = 0; c < cells[r].size(); c++)
            std::printf("%10.2f", cells[r][c]);
        std::printf("\n");
    }
}

/** Simulated cycles of `p` under the given sizes. */
inline double
cycles(const ProcPtr& p, const std::map<std::string, int64_t>& sizes,
       const CostConfig& cfg = CostConfig())
{
    return simulate_cost_named(p, sizes, cfg).cycles;
}

/** Seeded inputs for timing `p` at `env`. Scalar arguments are pinned
 *  to 1.0: iterated in-place kernels (dscal: x *= a every call) would
 *  otherwise drive values into denormals, whose arithmetic is orders
 *  of magnitude slower than the vector units being measured. */
inline verify::OracleInputs
timing_inputs(const ProcPtr& p, const std::map<std::string, int64_t>& env)
{
    verify::OracleInputs in = verify::make_inputs(p, env, 4242);
    for (auto& a : in.args) {
        if (a.kind == RunArg::Kind::Scalar)
            a.scalar = 1.0;
    }
    return in;
}

/** GFLOP/s of the build `cp` on `in` (CompiledProc::time_per_call
 *  calibrates an iteration count targeting ~150 ms of kernel time). */
inline double
measure_gflops(const verify::CompiledProc& cp, const verify::OracleInputs& in,
               double flops)
{
    return flops / std::max(cp.time_per_call(in.args), 1e-12) / 1e9;
}

/** Render a size environment as `"M=192, N=192"`. */
inline std::string
env_str(const std::map<std::string, int64_t>& env)
{
    std::string s;
    for (const auto& [k, v] : env)
        s += (s.empty() ? "" : ", ") + k + "=" + std::to_string(v);
    return s;
}

/** Minimal JSON string escaping: quotes, backslashes, and control
 *  characters (newlines included, as unicode escapes), so embedded
 *  schedule scripts survive the round trip through a JSON value. */
inline std::string
json_escape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/**
 * Atomic benchmark-JSON writes. The implementation moved to
 * src/util/file_atomic.h so the persistent caches, the scheduling
 * daemon, and the benchmark writers share one audited temp+fsync+
 * rename path; this alias keeps the historical bench:: spelling.
 */
using ::exo2::util::write_file_atomic;

}  // namespace bench
}  // namespace exo2

#endif  // EXO2_BENCH_BENCH_UTIL_H_
