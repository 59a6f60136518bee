#ifndef EXO2_BENCHSUITE_SUITE_H_
#define EXO2_BENCHSUITE_SUITE_H_

/**
 * @file
 * Shared pieces of the benchmark suite (benchsuite/README.md): run
 * options, the result every workload fills, timing and statistics
 * helpers, the cyclic seeded op order, span folding, and the engine
 * counter snapshot that per-layer metrics are computed from.
 */

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/verify/cjit.h"
#include "src/verify/oracle.h"

namespace exo2 {
namespace suite {

/** Command-line settings of one run (one workload, one process). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    /** Scratch directory for every file the run makes (relative to the
     *  working directory, short enough for a unix socket path). */
    std::string work_dir;
};

struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a workload reports: every operation attempted, the ones whose
 *  output was wrong or that failed, and named metrics. */
struct Result
{
    int64_t attempted = 0;
    int64_t failed = 0;
    std::map<std::string, Metric> metrics;

    void set(const std::string& name, double value, const std::string& unit)
    {
        metrics[name] = Metric{value, unit};
    }
    /** Count one failed operation and log why on stderr. */
    void fail(const std::string& why);
};

double now_s();

/** Where the engine's /tmp scratch files go instead (see
 *  scratch_redirect.cc). */
void set_scratch_dir(const std::string& dir);

/** Median, quartiles and tail of a sample (linear interpolation). */
struct Summary
{
    size_t n = 0;
    double median = 0, q1 = 0, q3 = 0, p90 = 0;
    /** The highest percentile of {50, 75, 90, 95, 99, 99.9} with at
     *  least ten samples beyond it (0 when n < 20), and its value. */
    double tail_pct = 0, tail = 0;
};

double percentile(std::vector<double> v, double pct);
Summary summarize(const std::vector<double>& v);
double median(const std::vector<double>& v);
double geomean(const std::vector<double>& v);
/** Spearman rank correlation; ties get their average rank. */
double spearman(const std::vector<double>& x, const std::vector<double>& y);

/** Seeded inputs with scalar arguments pinned to 1.0, so iterated
 *  in-place kernels keep their magnitudes (no denormal slowdown). */
verify::OracleInputs bench_inputs(const ProcPtr& p,
                                  const verify::SizeEnv& env,
                                  uint64_t seed);

/** Compare every buffer within relative tolerance `tol`; "" when
 *  equal, else the first difference. */
std::string compare_buffers(const verify::OracleInputs& want,
                            const verify::OracleInputs& got, double tol);

/** Interpret `original` and `scheduled` on the same seeded inputs and
 *  compare every buffer; "" when equal, else what differed. */
std::string interp_mismatch(const ProcPtr& original,
                            const ProcPtr& scheduled,
                            const verify::SizeEnv& env, uint64_t seed,
                            double tol);

/** Items in seeded cyclic order: cycle c is a fresh permutation of
 *  0..n-1, so every cycle covers every item once. */
class CyclicOrder
{
  public:
    CyclicOrder(size_t n, uint64_t seed) : n_(n), seed_(seed) {}
    size_t at(size_t k);

  private:
    size_t n_;
    uint64_t seed_;
    std::vector<std::vector<size_t>> cycles_;
};

/** Per-op wall times of one measured phase. */
struct OpLog
{
    std::vector<double> ms;
    double wall_s = 0;
};

/**
 * The measured phase of a single-threaded workload, op(k) for k = 0,
 * 1, ..., where `op` returns its own measured time in ms (it decides
 * which part of its work is the operation): whole cycles of
 * `cycle` ops, as many as take o.seconds at `cycle_seconds` per cycle
 * (the cycle's duration on the reference machine; at least one), so
 * every run does the same work. Traced runs do half as many untraced,
 * then replay the same ops under the tracer and report the span and
 * engine per-layer metrics, the tracing overhead (traced over
 * untraced op time, minus one) and dropped spans. Returns the
 * untraced log, which the end-to-end metrics come from.
 */
OpLog measure(const Options& o, Result& r, size_t cycle,
              double cycle_seconds,
              const std::function<double(size_t)>& op);

/** Report op_ms_p50, op_ms_p90 and ops_per_s from an untraced log. */
void report_ops(Result& r, const OpLog& log);

/** Median of `reps` timed calls of `setup`, in seconds. */
double median_setup_s(int reps, const std::function<void()>& setup);

/** Peak resident set of this process, MB. */
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/** Span count and self time (duration minus same-thread children). */
struct SpanStat
{
    uint64_t count = 0;
    double self_ms = 0;
};

/** Fold Chrome trace-event JSON (obs::trace_json) into per-name stats.
 *  Throws std::runtime_error on malformed input. */
std::map<std::string, SpanStat> fold_trace(const std::string& json);

/** Begin recording spans with a ring large enough for a traced phase. */
void start_tracing();

/** Stop recording, fold what was recorded, and clear the rings; counts
 *  dropped spans into `*dropped`. */
std::map<std::string, SpanStat> stop_tracing(uint64_t* dropped);

/**
 * Report span.<name>.count and span.<name>.self_frac (self time over
 * `wall_ms`, the traced phase's wall time) for every span name the
 * suite tracks, so each workload prints the same per-layer keys.
 */
void report_spans(Result& r, const std::map<std::string, SpanStat>& fold,
                  double wall_ms);

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

/** In-process engine stats (interner, cursor, analysis, cost sim). */
struct EngineCounters
{
    uint64_t interner_live = 0, interner_hits = 0, interner_misses = 0;
    uint64_t fwd_hits = 0, fwd_misses = 0;
    uint64_t index_hits = 0, index_misses = 0;
    uint64_t memo_hits = 0, memo_misses = 0, linear_misses = 0;
    uint64_t cost_hits = 0, cost_misses = 0;

    static EngineCounters now();
};

/** Per-layer ratios and counts of the engine over [before, after]. */
void report_engine(Result& r, const EngineCounters& before,
                   const EngineCounters& after);

double ratio(double num, double den);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_sched_lib(const Options& o, Result& r);
void run_tune_search(const Options& o, Result& r);
void run_native_run(const Options& o, Result& r);
void run_serve_mix(const Options& o, Result& r);

/** The kernel library the suite draws from: the 24 level-1 and 50
 *  level-2 registry kernels, SGEMM, blur and unsharp. */
struct LibKernel
{
    std::string name;
    std::string family;  ///< l1 | l2 | sgemm | blur | unsharp
    ScalarType prec = ScalarType::F32;
    std::string main_loop;
    std::string source;  ///< printed naive proc, re-parsed in setup
};
const std::vector<LibKernel>& library();

/** Parse the whole library, the first step of every workload's setup;
 *  appends the parse time to `parse_ms`. */
std::vector<ProcPtr> load_library(std::vector<double>* parse_ms);

/** Index of the library kernel called `name`. */
size_t library_index(const std::string& name);

/** Apply the hand-written sched/ library schedule for `k`'s family. */
ProcPtr schedule_kernel(const LibKernel& k, const ProcPtr& naive);

/** Small ragged sizes for interpreter checks, moderate sizes for
 *  simulated speedups, and the sizes native kernels are timed (and
 *  simulated for cost-model fidelity) at. */
verify::SizeEnv check_sizes(const LibKernel& k, const ProcPtr& p);
verify::SizeEnv sim_sizes(const LibKernel& k, const ProcPtr& p);
verify::SizeEnv bench_sizes(const LibKernel& k, const ProcPtr& p);

/** Arithmetic operations of one call of the naive kernel at `env`
 *  (a multiply-add counts 2; an assignment at least 1, so copies count
 *  their moves): the suite's GFLOP/s convention. */
double kernel_flops(const ProcPtr& naive, const verify::SizeEnv& env);

/** Interpreter tolerance for `k` (looser for triangular solves). */
double check_tolerance(const LibKernel& k);

}  // namespace suite
}  // namespace exo2

#endif  // EXO2_BENCHSUITE_SUITE_H_
