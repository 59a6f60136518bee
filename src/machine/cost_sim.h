#ifndef EXO2_MACHINE_COST_SIM_H_
#define EXO2_MACHINE_COST_SIM_H_

/**
 * @file
 * Cycle-approximate cost simulator.
 *
 * Walks a procedure with concrete sizes, executing control flow for
 * real (loop trip counts, guards) but not data, and charges:
 *   - per-statement scalar issue costs,
 *   - per-instruction costs from InstrInfo (hardware instructions),
 *   - cache hierarchy penalties for every DRAM access (two-level LRU
 *     set-associative model with write-allocate).
 *
 * This is the testbed substitute for the paper's Intel Xeon + FireSim
 * measurements (see DESIGN.md): relative performance between schedules
 * comes from schedule structure, which the model prices uniformly. It
 * is the cost policy of the IR walker it shares with the interpreter
 * (src/interp/walk.h); DESIGN.md §11 lists where the two differ.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/ir/proc.h"

namespace exo2 {

/**
 * Version of the cost model. Bump on any change to the pricing rules
 * (cache model, per-instruction costs, masked-op penalties): cached
 * tuning winners embed the model's ranking decisions, so the
 * persistent tuning cache (src/cache/) treats entries written under
 * an older model as stale (DESIGN.md §8).
 */
constexpr int kCostModelVersion = 1;

/** Tunable machine-model parameters. */
struct CostConfig
{
    int line_bytes = 64;
    int l1_kb = 32;
    int l1_assoc = 8;
    int l2_kb = 1024;
    int l2_assoc = 16;
    double l1_hit_cycles = 0.5;    ///< charged on every DRAM access
    double l1_miss_cycles = 10.0;  ///< extra on L1 miss
    double l2_miss_cycles = 60.0;  ///< extra on L2 miss
    double loop_overhead = 1.0;    ///< per loop iteration
    double scalar_op = 1.0;        ///< per scalar Assign/Reduce
    /** Scalar-op multiplier (e.g. slow accelerator host CPU). */
    double host_penalty = 1.0;
    /** Fixed per-call front-end cost (library dispatch, argument
     *  checking, architecture selection). Zero for generated kernels;
     *  nonzero for the reference-library models (DESIGN.md). */
    double dispatch_cycles = 0.0;
    /** Measure hot-loop (warm-cache) performance: execute once to warm
     *  the caches, then report the second execution, matching how the
     *  paper's wall-clock benchmarks iterate each kernel. */
    bool warm = true;
};

/** Simulation outcome. */
struct CostResult
{
    double cycles = 0.0;
    int64_t instr_calls = 0;
    int64_t config_writes = 0;
    int64_t dram_accesses = 0;
    int64_t l1_misses = 0;
    int64_t l2_misses = 0;
};

/** Argument for a cost simulation: a size or a scalar value. Buffers
 *  are materialized internally from the signature. */
struct CostArg
{
    bool is_scalar = false;
    int64_t size = 0;
    double scalar = 0.0;

    static CostArg make_size(int64_t v)
    {
        CostArg a;
        a.size = v;
        return a;
    }
    static CostArg make_scalar(double v)
    {
        CostArg a;
        a.is_scalar = true;
        a.scalar = v;
        return a;
    }
};

/**
 * Simulate `p`. `args` supplies size/scalar arguments positionally
 * (buffer arguments are skipped in `args` and allocated internally).
 * Buffers may have at most `kMaxRank` (8) dimensions. The one-job case
 * of `simulate_cost_batch`.
 */
CostResult simulate_cost(const ProcPtr& p, const std::vector<CostArg>& args,
                         const CostConfig& cfg = CostConfig());

/** Convenience: bind sizes by name; scalars default to 1.0. */
CostResult simulate_cost_named(const ProcPtr& p,
                               const std::map<std::string, int64_t>& sizes,
                               const CostConfig& cfg = CostConfig());

/** The positional arguments `simulate_cost_named` passes: sizes bound
 *  by name, scalars 1.0. Throws InternalError for a missing size. */
std::vector<CostArg> cost_args_named(
    const ProcPtr& p, const std::map<std::string, int64_t>& sizes);

/** One simulation of a batch. */
struct CostJob
{
    ProcPtr proc;
    std::vector<CostArg> args;
};

/**
 * Simulate every job under `cfg`; results come back in input order and
 * equal what a loop of `simulate_cost` calls would return (DESIGN.md
 * §6). The memo is probed and filled on the calling thread, in input
 * order, and a key repeated within the batch counts as a hit, as it
 * would in that loop. Only the misses are simulated: a single miss on
 * the calling thread, more on the process-wide pool — one worker
 * pinned to each CPU of the process's affinity mask, started by the
 * first batch that needs it, while the caller blocks.
 *
 * `stop`, when given, is polled before each simulation starts, from
 * the pool's workers too, so it must be thread-safe and must not
 * throw; once it holds, no further simulation starts and the result
 * is cut before the first job left unsimulated, so it is always a
 * prefix of `jobs`. Failures are rethrown after every started
 * simulation has finished: the first in input order.
 */
std::vector<CostResult> simulate_cost_batch(
    const std::vector<CostJob>& jobs, const CostConfig& cfg = CostConfig(),
    const std::function<bool()>& stop = {});

// -- Result memoization (DESIGN.md §6) ---------------------------------
//
// `simulate_cost` memoizes results keyed on (proc_digest, arguments,
// config): the autotuner's beam search repeatedly reaches structurally
// identical schedule states through different edit orders, and a
// digest hit skips the whole simulation. Keys are structural, so the
// cache can never go stale (simulation depends only on proc structure
// and inputs). Cleared together with the cursor-accel caches
// (`clear_cursor_accel_caches`). The memo itself is unsynchronized,
// like the analysis memo caches: only the calling thread of
// `simulate_cost_batch` touches it (keys, which compute and cache each
// proc's digest, included), and the pool's workers only simulate.
// Callers on different threads must not overlap (the daemon holds its
// engine lock around every tune).

/** Hit/miss counts, reported alongside `cursor_accel_stats()`: a
 *  snapshot of the `costsim.cache_*` registry counters. */
struct CostSimCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;  ///< simulations actually executed
};

CostSimCacheStats cost_sim_cache_stats();

// The `costsim.pool_workers` registry gauge holds the number of
// workers the last pooled batch ran on: 0 until a batch first needs
// the pool. A fork joins the workers first (a pthread_atfork handler),
// and the next batch that needs them, in parent or child, starts them
// again.

/** Drop every memoized cost result. */
void clear_cost_sim_cache();

}  // namespace exo2

#endif  // EXO2_MACHINE_COST_SIM_H_
