#ifndef EXO2_OBS_METRICS_H_
#define EXO2_OBS_METRICS_H_

/**
 * @file
 * Process-wide metrics registry (DESIGN.md §10): named counters,
 * gauges, and log-scale histograms behind one queryable snapshot.
 *
 * The registry owns every engine counter — cursor acceleration,
 * analysis memo, interner, cost-sim cache, persistent caches, primitive
 * rewrites, ISA downgrades, fired faults — and the daemon's latency
 * histograms; `op=metrics` serializes it as JSON. A subsystem's typed
 * stats getter (`cursor_accel_stats()`, `cache::cache_stats()`, ...)
 * is a snapshot read from its counters.
 *
 * Concurrency: registration (name -> metric lookup) takes a mutex;
 * updates are lock-free atomics. An increment site looks its counter
 * up once, in a function-local static (safe even from another
 * translation unit's static initializer):
 *
 *     EXO2_COUNT("cursor.fwd_hits");
 *
 * and the owning subsystem reads its counters once from a
 * namespace-scope initializer, so metrics_json() lists them at 0
 * before their first bump.
 *
 * References stay valid forever: the registry never erases a metric
 * (reset_metrics() zeroes values in place).
 *
 * Histogram buckets are fixed log-scale: 4 sub-buckets per octave
 * over 2^-12 .. 2^12 (96 buckets — sub-millisecond to ~68 minutes
 * when observing milliseconds), so percentile error is bounded at
 * ~19% of the value and two histograms are always mergeable.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace exo2 {
namespace obs {

/** Monotonic event count. */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Point-in-time signed level (queue depth, cache size, ...). */
class Gauge
{
  public:
    void set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
    void add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

class Histogram;

/** A coherent-enough copy of one histogram (relaxed reads: counts may
 *  straddle a concurrent observe by one sample, which percentile math
 *  tolerates). */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0;
    std::array<uint64_t, 96> buckets{};

    /** p in [0,1]; the geometric midpoint of the bucket holding the
     *  p-quantile sample, 0 when empty. */
    double percentile(double p) const;
};

/** Fixed-bucket log2 histogram; observe() is lock-free. */
class Histogram
{
  public:
    static constexpr int kSub = 4;       ///< sub-buckets per octave
    static constexpr int kMinExp = -12;  ///< lowest edge 2^-12
    static constexpr int kMaxExp = 12;   ///< highest edge 2^12
    static constexpr int kBuckets = (kMaxExp - kMinExp) * kSub;

    /** Bucket index of `v`; v <= lowest edge clamps to 0, v beyond the
     *  top edge clamps to kBuckets-1. */
    static int bucket_for(double v);
    /** Lower edge of bucket `i` (2^(kMinExp + i/kSub)). */
    static double bucket_lower(int i);

    void observe(double v);
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    double sum() const;
    HistogramSnapshot snapshot() const;
    double percentile(double p) const { return snapshot().percentile(p); }
    void reset();

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_bits_{0};  ///< double, CAS-accumulated
};

static_assert(Histogram::kBuckets ==
                  static_cast<int>(std::tuple_size<
                      decltype(HistogramSnapshot::buckets)>::value),
              "snapshot array tracks the bucket count");

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/** Find-or-create by name. Names follow `subsystem.noun` ("serve.
 *  latency_ms"). A name is permanently one kind; asking for it as
 *  another kind throws InternalError. */
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/** The whole registry as one JSON object:
 *  {"counters":{...},"gauges":{...},"histograms":{name:
 *   {"count":..,"sum":..,"p50":..,"p95":..,"p99":..,
 *    "buckets":[[lower_edge,count],...]}}} */
std::string metrics_json();

/** Zero every metric in place (references stay valid). Test hook. */
void reset_metrics();

/** Bump a named counter; the lookup is done once per call site. */
#define EXO2_COUNT(name)                                                  \
    do {                                                                  \
        static ::exo2::obs::Counter& exo2_obs_counter_ =                  \
            ::exo2::obs::counter(name);                                   \
        exo2_obs_counter_.inc();                                          \
    } while (0)

}  // namespace obs
}  // namespace exo2

#endif  // EXO2_OBS_METRICS_H_
