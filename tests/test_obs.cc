/**
 * @file
 * Observability-layer tests (DESIGN.md §10): span nesting and
 * thread-safety (8-thread hammer, TSan-clean), ring wrap accounting,
 * trace JSON well-formedness (parsed by a strict little JSON
 * validator), histogram bucket edges and percentiles, metrics
 * snapshot consistency under concurrent writers, the
 * zero-allocation/near-zero-cost guarantee when tracing is off, phases
 * charged by spans (tracing off), registry-owned engine counters, and
 * the daemon's telemetry surface: request-id echo, per-phase extras,
 * op=metrics round-trip (also polled during a tune, TSan-checked),
 * op=stats latency percentiles.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/machine/machine.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/protocol.h"
#include "src/tune/tune.h"

// ---------------------------------------------------------------------------
// Allocation counting: the whole binary's global new/delete, gated by
// a flag so only the zero-allocation test pays attention.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void*
operator new(size_t sz)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(sz ? sz : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void*
operator new[](size_t sz)
{
    return operator new(sz);
}

// The nothrow forms must come from the same allocator as the deletes
// below (std::stable_sort's temporary buffer uses them).
void*
operator new(size_t sz, const std::nothrow_t&) noexcept
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(sz ? sz : 1);
}

void*
operator new[](size_t sz, const std::nothrow_t& nt) noexcept
{
    return operator new(sz, nt);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, size_t) noexcept
{
    std::free(p);
}

namespace exo2 {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// A strict recursive-descent JSON validator (syntax only): enough to
// prove the emitted traces and metrics parse, with no dependencies.
// ---------------------------------------------------------------------------

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string& s) : s_(s) {}

    bool valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    const std::string& s_;
    size_t i_ = 0;

    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
    bool eat(char c)
    {
        if (peek() != c)
            return false;
        i_++;
        return true;
    }
    void ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                s_[i_] == '\r'))
            i_++;
    }

    bool value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return str();
          case 't': return lit("true");
          case 'f': return lit("false");
          case 'n': return lit("null");
          default: return number();
        }
    }

    bool lit(const char* w)
    {
        size_t n = std::strlen(w);
        if (s_.compare(i_, n, w) != 0)
            return false;
        i_ += n;
        return true;
    }

    bool object()
    {
        if (!eat('{'))
            return false;
        ws();
        if (eat('}'))
            return true;
        for (;;) {
            ws();
            if (!str())
                return false;
            ws();
            if (!eat(':'))
                return false;
            ws();
            if (!value())
                return false;
            ws();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool array()
    {
        if (!eat('['))
            return false;
        ws();
        if (eat(']'))
            return true;
        for (;;) {
            ws();
            if (!value())
                return false;
            ws();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool str()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size()) {
            char c = s_[i_];
            if (c == '"') {
                i_++;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false;  // control chars must be escaped
            if (c == '\\') {
                i_++;
                char e = peek();
                if (e == 'u') {
                    i_++;
                    for (int k = 0; k < 4; k++) {
                        if (!std::isxdigit(
                                static_cast<unsigned char>(peek())))
                            return false;
                        i_++;
                    }
                    continue;
                }
                if (std::strchr("\"\\/bfnrt", e) == nullptr)
                    return false;
                i_++;
                continue;
            }
            i_++;
        }
        return false;
    }

    bool number()
    {
        size_t start = i_;
        if (peek() == '-')
            i_++;
        while (std::isdigit(static_cast<unsigned char>(peek())))
            i_++;
        if (peek() == '.') {
            i_++;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                i_++;
        }
        if (peek() == 'e' || peek() == 'E') {
            i_++;
            if (peek() == '+' || peek() == '-')
                i_++;
            while (std::isdigit(static_cast<unsigned char>(peek())))
                i_++;
        }
        return i_ > start;
    }
};

bool
json_valid(const std::string& s)
{
    return JsonValidator(s).valid();
}

class ObsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        trace_stop();
        trace_clear();
        reset_metrics();
    }
    void TearDown() override
    {
        trace_stop();
        trace_clear();
    }
};

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpansNestAndSurviveAnEightThreadHammer)
{
    trace_start();
    constexpr int kThreads = 8;
    constexpr int kOuter = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([t] {
            for (int i = 0; i < kOuter; i++) {
                EXO2_SPAN("test.outer", {{"thread", t}, {"i", i}});
                {
                    EXO2_SPAN("test.mid");
                    EXO2_SPAN("test.inner", {{"deep", "yes"}});
                }
            }
        });
    }
    // Concurrent readers must not race the writers.
    for (int i = 0; i < 20; i++) {
        (void)trace_json();
        (void)trace_span_count();
    }
    for (auto& th : threads)
        th.join();
    trace_stop();
    EXPECT_EQ(trace_span_count(),
              static_cast<uint64_t>(kThreads * kOuter * 3));
    EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(ObsTest, RingWrapKeepsRecentSpansAndCountsDrops)
{
    trace_start("", 64);
    std::thread writer([] {
        for (int i = 0; i < 1000; i++) {
            EXO2_SPAN("test.wrap", {{"i", i}});
        }
    });
    writer.join();
    trace_stop();
    EXPECT_LE(trace_span_count(), 64u);
    EXPECT_EQ(trace_span_count() + trace_dropped(), 1000u);
}

TEST_F(ObsTest, ThreadsThatComeAndGoReuseOneRing)
{
    // Each thread starts after the last one exited, so each takes over
    // its predecessor's ring: one track, every span kept.
    trace_start("", 128);
    for (int i = 0; i < 20; i++) {
        std::thread([i] { EXO2_SPAN("test.reuse", {{"i", i}}); }).join();
    }
    trace_stop();
    std::string json = trace_json();
    std::set<std::string> tids;
    size_t spans = 0;
    for (size_t at = json.find("\"test.reuse\""); at != std::string::npos;
         at = json.find("\"test.reuse\"", at + 1)) {
        spans++;
        size_t t = json.find("\"tid\":", at);
        ASSERT_NE(t, std::string::npos);
        tids.insert(json.substr(t, json.find_first_of(",}", t) - t));
    }
    EXPECT_EQ(spans, 20u);
    EXPECT_EQ(tids.size(), 1u);
}

TEST_F(ObsTest, TraceJsonIsWellFormedAndEscapes)
{
    trace_start();
    {
        EXO2_SPAN("test.json",
                  {{"text", std::string("quote\" slash\\ nl\n")},
                   {"num", 42},
                   {"fp", 2.5}});
    }
    {
        EXO2_SPAN("test.plain");
    }
    trace_stop();
    std::string js = trace_json();
    EXPECT_TRUE(json_valid(js)) << js;
    EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(js.find("\"test.json\""), std::string::npos);
    EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(js.find("\"num\":42"), std::string::npos);

    // The flushed file round-trips through the atomic writer.
    std::string path = ::testing::TempDir() + "exo2_trace_" +
                       std::to_string(getpid()) + ".json";
    ASSERT_TRUE(trace_flush(path));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), js);
    EXPECT_TRUE(json_valid(ss.str()));
    unlink(path.c_str());
}

TEST_F(ObsTest, DisabledSpansAllocateNothingAndCostAlmostNothing)
{
    trace_stop();
    ASSERT_FALSE(trace_enabled());

    // Warm any lazy statics on this thread before counting.
    {
        EXO2_SPAN("test.warm", {{"k", "v"}});
    }

    g_allocs.store(0);
    g_count_allocs.store(true);
    constexpr int kIters = 10000;
    for (int i = 0; i < kIters; i++) {
        // Args that WOULD allocate if evaluated: the macro must not
        // touch them while tracing is off.
        EXO2_SPAN("test.off",
                  {{"key", std::string("heap-allocated-value")},
                   {"i", i}});
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);

    // Near-zero cost: far below a microsecond per disabled span (the
    // real budget is enforced proportionally by exo2trace --overhead;
    // this bound is deliberately generous so it cannot flake).
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 100000; i++) {
        EXO2_SPAN("test.cost");
    }
    double per = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count() /
                 100000;
    EXPECT_LT(per, 1e-6);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketEdgesAreExactAndMonotonic)
{
    // Lower edges are increasing powers of 2^(1/4).
    for (int i = 0; i + 1 < Histogram::kBuckets; i++)
        EXPECT_LT(Histogram::bucket_lower(i),
                  Histogram::bucket_lower(i + 1));
    EXPECT_DOUBLE_EQ(Histogram::bucket_lower(0), std::exp2(-12));

    // 1.0 sits exactly on a bucket edge and must land in the bucket it
    // bounds from below.
    int b1 = Histogram::bucket_for(1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucket_lower(b1), 1.0);

    // Every bucket's interior maps back to that bucket.
    for (int i = 0; i < Histogram::kBuckets - 1; i++) {
        double mid = std::sqrt(Histogram::bucket_lower(i) *
                               Histogram::bucket_lower(i + 1));
        EXPECT_EQ(Histogram::bucket_for(mid), i) << "bucket " << i;
    }

    // Clamps: zero, negatives, and overflow do not escape the range.
    EXPECT_EQ(Histogram::bucket_for(0.0), 0);
    EXPECT_EQ(Histogram::bucket_for(-3.5), 0);
    EXPECT_EQ(Histogram::bucket_for(1e300), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_for(1e-300), 0);
}

TEST_F(ObsTest, HistogramPercentilesBracketTheData)
{
    Histogram h;
    for (int i = 0; i < 100; i++)
        h.observe(10.0);
    int b = Histogram::bucket_for(10.0);
    double lo = Histogram::bucket_lower(b);
    double hi = Histogram::bucket_lower(b + 1);
    for (double p : {0.5, 0.95, 0.99}) {
        double v = h.percentile(p);
        EXPECT_GE(v, lo);
        EXPECT_LE(v, hi);
    }
    EXPECT_EQ(h.count(), 100u);
    EXPECT_DOUBLE_EQ(h.sum(), 1000.0);

    // A bimodal distribution separates p50 from p99.
    Histogram h2;
    for (int i = 0; i < 99; i++)
        h2.observe(1.0);
    h2.observe(1000.0);
    EXPECT_LT(h2.percentile(0.5), 2.0);
    EXPECT_GT(h2.percentile(0.995), 500.0);
}

TEST_F(ObsTest, MetricsStayConsistentUnderConcurrentWriters)
{
    Counter& c = counter("test.hits");
    Histogram& h = histogram("test.lat");
    Gauge& g = gauge("test.depth");
    constexpr int kThreads = 8;
    constexpr int kIters = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; i++) {
                c.inc();
                h.observe(4.0);
                g.add(1);
            }
        });
    }
    // Concurrent snapshotting must see internally consistent data.
    for (int i = 0; i < 50; i++)
        (void)metrics_json();
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads * kIters));
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads * kIters));
    EXPECT_DOUBLE_EQ(h.sum(), 4.0 * kThreads * kIters);
    EXPECT_EQ(g.value(), static_cast<int64_t>(kThreads * kIters));

    std::string js = metrics_json();
    EXPECT_TRUE(json_valid(js)) << js;
    EXPECT_NE(js.find("\"test.hits\""), std::string::npos);
    EXPECT_NE(js.find("\"test.lat\""), std::string::npos);

    // Reset zeroes in place; the cached references stay usable.
    reset_metrics();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    c.inc();
    EXPECT_EQ(counter("test.hits").value(), 1u);
}

TEST_F(ObsTest, RegistryRejectsKindMismatches)
{
    counter("test.kind");
    EXPECT_THROW(gauge("test.kind"), InternalError);
    EXPECT_THROW(histogram("test.kind"), InternalError);
}

TEST_F(ObsTest, ObsConfigParsesOnceFromEnv)
{
    // The memoized config was parsed at static-init (trace autostart);
    // with EXO2_TRACE unset in the test environment it must be inert.
    const ObsConfig& cfg = obs_config();
    EXPECT_EQ(cfg.trace_path, "");
    EXPECT_GE(cfg.trace_ring_capacity, 16u);
    // Same object every call: one parse for the process lifetime.
    EXPECT_EQ(&cfg, &obs_config());
}

// ---------------------------------------------------------------------------
// Phase attribution
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PhaseCollectionIsThreadLocalAndAdditive)
{
    EXPECT_FALSE(phase_collecting());
    phase_add(Phase::Search, 1.0);  // no-op outside a collection

    phase_begin_collection();
    phase_add(Phase::Search, 0.25);
    phase_add(Phase::Search, 0.25);
    phase_add(Phase::Lint, 0.1);
    std::thread other([] {
        // A different thread's adds must not leak into this one.
        EXPECT_FALSE(phase_collecting());
        phase_add(Phase::Search, 99.0);
    });
    other.join();
    PhaseBreakdown pb = phase_end_collection();
    EXPECT_DOUBLE_EQ(pb.of(Phase::Search), 0.5);
    EXPECT_DOUBLE_EQ(pb.of(Phase::Lint), 0.1);
    EXPECT_DOUBLE_EQ(pb.of(Phase::Queue), 0.0);
    EXPECT_DOUBLE_EQ(pb.total(), 0.6);
    EXPECT_FALSE(phase_collecting());
}

/** Sleep for at least `ms` milliseconds. */
void
spend_ms(double ms)
{
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

TEST_F(ObsTest, MappedSpansChargeTheirPhaseWithTracingOff)
{
    ASSERT_FALSE(trace_enabled());
    const std::pair<const char*, Phase> kMapped[] = {
        {"tune.round", Phase::Search},
        {"tune.restart", Phase::Search},
        {"tune.replay", Phase::Search},
        {"tune.lint_gate", Phase::Lint},
        {"lint.proc", Phase::Lint},
        {"tune.cache_probe", Phase::Cache},
        {"tune.cache_replay", Phase::Cache},
        {"tune.cache_store", Phase::Cache},
        {"tune.jit_measure", Phase::Cjit},
        {"tune.validate", Phase::Validate},
    };
    for (const auto& [name, phase] : kMapped) {
        phase_begin_collection();
        {
            EXO2_SPAN(name);
            spend_ms(1);
        }
        PhaseBreakdown pb = phase_end_collection();
        EXPECT_GE(pb.of(phase), 0.001) << name;
        EXPECT_DOUBLE_EQ(pb.total(), pb.of(phase)) << name;
    }

    // Outside a collection a mapped span charges nothing.
    {
        EXO2_SPAN("tune.round");
        spend_ms(1);
    }
    phase_begin_collection();
    EXPECT_DOUBLE_EQ(phase_end_collection().total(), 0.0);
    EXPECT_EQ(trace_span_count(), 0u);  // and tracing stayed off
}

TEST_F(ObsTest, MappedSpanNestedInAMappedSpanIsChargedOnce)
{
    phase_begin_collection();
    auto t0 = std::chrono::steady_clock::now();
    {
        EXO2_SPAN("tune.lint_gate");
        {
            EXO2_SPAN("lint.proc");  // same phase, nested
            spend_ms(2);
        }
        {
            EXO2_SPAN("tune.validate");  // another phase, still nested
            spend_ms(2);
        }
    }
    double wall = seconds_since(t0);
    PhaseBreakdown pb = phase_end_collection();
    EXPECT_GE(pb.of(Phase::Lint), 0.004);
    EXPECT_LE(pb.of(Phase::Lint), wall);
    EXPECT_DOUBLE_EQ(pb.of(Phase::Validate), 0.0);
    EXPECT_DOUBLE_EQ(pb.total(), pb.of(Phase::Lint));

    // Once the outer span closed, the next mapped span charges again.
    phase_begin_collection();
    {
        EXO2_SPAN("tune.validate");
        spend_ms(1);
    }
    EXPECT_GE(phase_end_collection().of(Phase::Validate), 0.001);
}

TEST_F(ObsTest, UnmappedSpansChargeNothingAndAllocateNothing)
{
    ASSERT_FALSE(trace_enabled());
    phase_begin_collection();
    {
        EXO2_SPAN("test.warm", {{"k", "v"}});
    }

    g_allocs.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 10000; i++) {
        // Args that WOULD allocate if evaluated.
        EXO2_SPAN("test.unmapped",
                  {{"key", std::string("heap-allocated-value")},
                   {"i", i}});
        EXO2_SPAN("cost.simulate",
                  {{"proc", std::string("heap-allocated-value")}});
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);
    EXPECT_DOUBLE_EQ(phase_end_collection().total(), 0.0);

    // A mapped span charges without evaluating its arguments either.
    phase_begin_collection();
    g_count_allocs.store(true);
    for (int i = 0; i < 1000; i++) {
        EXO2_SPAN("tune.round",
                  {{"key", std::string("heap-allocated-value")}});
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);
    EXPECT_GT(phase_end_collection().of(Phase::Search), 0.0);
}

TEST_F(ObsTest, AutotuneChargesSearchLintAndValidateFromSpans)
{
    ASSERT_FALSE(trace_enabled());
    tune::TuneOpts opts;
    opts.tune_sizes = {{"n", 256}};
    opts.beam_width = 2;
    opts.max_rounds = 2;
    opts.random_restarts = 0;
    opts.jit_topk = 0;
    opts.validate = true;
    opts.lint = true;
    opts.use_cache = false;

    phase_begin_collection();
    auto t0 = std::chrono::steady_clock::now();
    tune::TuneResult r = tune::autotune(kernels::find_kernel("saxpy").proc,
                                        find_machine("AVX2"), opts);
    double wall = seconds_since(t0);
    PhaseBreakdown pb = phase_end_collection();

    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.stats.lint_checked, 0);
    EXPECT_GT(pb.of(Phase::Search), 0.0);
    EXPECT_GT(pb.of(Phase::Lint), 0.0);
    EXPECT_GT(pb.of(Phase::Validate), 0.0);
    EXPECT_DOUBLE_EQ(pb.of(Phase::Cjit), 0.0);  // jit_topk = 0
    EXPECT_LT(pb.total(), wall);
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

TEST_F(ObsTest, EngineCountersAreRegisteredRegistryCounters)
{
    // Registered during static initialization, so every name is listed
    // (at 0 after a reset) before any engine work bumps it.
    std::string js = metrics_json();
    size_t lo = js.find("\"counters\":{");
    size_t hi = js.find("},\"gauges\"");
    ASSERT_NE(lo, std::string::npos);
    ASSERT_NE(hi, std::string::npos);
    std::string counters = js.substr(lo, hi - lo);
    for (const char* name :
         {"cursor.fwd_hits", "cursor.fwd_misses", "cursor.index_hits",
          "cursor.index_misses", "cursor.index_pruned",
          "costsim.cache_hits", "costsim.cache_misses", "cache.tune_hits",
          "cache.tune_misses", "cache.tune_stores",
          "cache.tune_store_failures", "cache.tune_corrupt",
          "cache.tune_stale", "cache.jit_hits", "cache.jit_misses",
          "cache.jit_stores", "cache.jit_store_failures",
          "cache.jit_corrupt", "cache.jit_stale", "cache.tmp_swept",
          "cjit.isa_downgrades", "faults.fired", "analysis.affine_hits",
          "analysis.affine_misses", "analysis.linear_hits",
          "analysis.linear_misses", "analysis.effects_hits",
          "analysis.effects_misses", "ir.interner_hits",
          "ir.interner_misses", "prim.rewrites"}) {
        EXPECT_NE(counters.find(std::string("\"") + name + "\":0"),
                  std::string::npos)
            << name << " in " << counters;
    }
    // So is the cost simulator's pool size, before any batch needs it.
    EXPECT_NE(js.find("\"costsim.pool_workers\":", hi), std::string::npos)
        << js.substr(hi);
}

// ---------------------------------------------------------------------------
// Daemon telemetry
// ---------------------------------------------------------------------------

class ObsDaemonTest : public ObsTest
{
  protected:
    void SetUp() override
    {
        ObsTest::SetUp();
        for (const char* v :
             {"EXO2_CACHE_DIR", "EXO2_FAULTS", "EXO2_SERVE_SOCKET",
              "EXO2_SERVE_WORKERS", "EXO2_SERVE_QUEUE",
              "EXO2_SERVE_DEADLINE", "EXO2_SERVE_RETRIES"})
            unsetenv(v);
    }
};

TEST_F(ObsDaemonTest, DaemonEchoesRequestIdsAndAttributesPhases)
{
    serve::ServeConfig cfg;
    cfg.socket_path = "/tmp/exo2_obs_" + std::to_string(getpid()) +
                      "_a.sock";
    cfg.workers = 2;
    serve::Daemon d(cfg);
    d.start();
    serve::ServeClient client(cfg.socket_path);
    ASSERT_TRUE(client.connect());

    serve::ServeRequest req;
    req.id = "my-req-7";
    req.op = "tune";
    req.kernel = "saxpy";
    req.sizes = "n=256";
    req.beam = 2;
    req.rounds = 2;
    req.restarts = 0;
    req.jit_topk = 0;
    req.validate = 0;
    serve::ServeResponse resp = client.call_with_retry(req);
    ASSERT_TRUE(resp.ok()) << resp.detail;
    EXPECT_EQ(resp.id, "my-req-7");
    EXPECT_EQ(resp.extra["request_id"], "my-req-7");
    // Queued work carries the per-phase breakdown.
    for (const char* k :
         {"phase_queue_ms", "phase_lint_ms", "phase_cache_ms",
          "phase_search_ms", "phase_cjit_ms", "phase_validate_ms"}) {
        ASSERT_NE(resp.extra.find(k), resp.extra.end()) << k;
        EXPECT_GE(std::stod(resp.extra[k]), 0.0) << k;
    }
    // The search dominates a cold cost-model-only tune.
    EXPECT_GT(std::stod(resp.extra["phase_search_ms"]), 0.0);

    // A request without an id gets a generated one.
    req.id.clear();
    resp = client.call_with_retry(req);
    ASSERT_TRUE(resp.ok()) << resp.detail;
    EXPECT_FALSE(resp.extra["request_id"].empty());
    EXPECT_EQ(resp.extra["request_id"][0], 'r');

    d.stop();
}

TEST_F(ObsDaemonTest, MetricsEndpointReturnsRegistryWithPercentiles)
{
    serve::ServeConfig cfg;
    cfg.socket_path = "/tmp/exo2_obs_" + std::to_string(getpid()) +
                      "_b.sock";
    cfg.workers = 2;
    serve::Daemon d(cfg);
    d.start();
    serve::ServeClient client(cfg.socket_path);
    ASSERT_TRUE(client.connect());

    // Drive one real request through the queue so the latency and
    // phase histograms are non-empty.
    serve::ServeRequest req;
    req.id = "warm";
    req.op = "tune";
    req.kernel = "saxpy";
    req.sizes = "n=256";
    req.beam = 2;
    req.rounds = 2;
    req.restarts = 0;
    req.jit_topk = 0;
    req.validate = 0;
    serve::ServeResponse resp = client.call_with_retry(req);
    ASSERT_TRUE(resp.ok()) << resp.detail;

    serve::ServeRequest mreq;
    mreq.id = "m1";
    mreq.op = "metrics";
    serve::ServeResponse mresp = client.call_with_retry(mreq);
    ASSERT_TRUE(mresp.ok()) << mresp.detail;
    ASSERT_NE(mresp.extra.find("metrics"), mresp.extra.end());
    const std::string& js = mresp.extra["metrics"];
    EXPECT_TRUE(json_valid(js)) << js;
    EXPECT_NE(js.find("\"serve.latency_ms\""), std::string::npos);
    EXPECT_NE(js.find("\"serve.phase.search_ms\""), std::string::npos);
    EXPECT_NE(js.find("\"p50\""), std::string::npos);
    EXPECT_NE(js.find("\"p95\""), std::string::npos);
    EXPECT_NE(js.find("\"p99\""), std::string::npos);
    // The engine mirror rode along.
    EXPECT_NE(js.find("\"costsim.cache_hits\""), std::string::npos);

    // op=stats surfaces the same histogram as flat percentiles, via
    // the lock-free snapshot (never the queue mutex).
    serve::ServeRequest sreq;
    sreq.id = "s1";
    sreq.op = "stats";
    serve::ServeResponse sresp = client.call_with_retry(sreq);
    ASSERT_TRUE(sresp.ok());
    ASSERT_NE(sresp.extra.find("latency_p50_ms"), sresp.extra.end());
    ASSERT_NE(sresp.extra.find("latency_p95_ms"), sresp.extra.end());
    ASSERT_NE(sresp.extra.find("latency_p99_ms"), sresp.extra.end());
    EXPECT_GE(std::stoull(sresp.extra["latency_count"]), 1u);
    EXPECT_GT(std::stod(sresp.extra["latency_p50_ms"]), 0.0);

    d.stop();
}

TEST_F(ObsDaemonTest, MetricsPolledDuringATuneReadOnlyAtomics)
{
    // op=metrics answers inline on the connection thread while a
    // worker tunes and bumps the engine counters. The counters are
    // registry atomics, so the poll is no data race (checked under
    // TSan, which the CI concurrency job runs this binary with).
    serve::ServeConfig cfg;
    cfg.socket_path = "/tmp/exo2_obs_" + std::to_string(getpid()) +
                      "_c.sock";
    cfg.workers = 1;
    serve::Daemon d(cfg);
    d.start();

    std::atomic<bool> tuned{false};
    serve::ServeResponse tresp;
    std::thread tuner([&] {
        serve::ServeClient client(cfg.socket_path);
        serve::ServeRequest req;
        req.id = "tune";
        req.op = "tune";
        req.kernel = "saxpy";
        req.sizes = "n=256";
        req.beam = 2;
        req.rounds = 3;
        req.restarts = 0;
        req.jit_topk = 0;
        req.validate = 0;
        if (client.connect())
            tresp = client.call_with_retry(req);
        tuned.store(true);
    });

    serve::ServeClient poller(cfg.socket_path);
    EXPECT_TRUE(poller.connect());
    int polls = 0;
    while (!tuned.load() || polls < 2) {
        serve::ServeRequest mreq;
        mreq.id = "m" + std::to_string(polls++);
        mreq.op = "metrics";
        serve::ServeResponse mresp = poller.call_with_retry(mreq);
        EXPECT_TRUE(mresp.ok()) << mresp.detail;
        EXPECT_NE(mresp.extra["metrics"].find("\"cursor.fwd_hits\""),
                  std::string::npos);
    }
    tuner.join();
    EXPECT_TRUE(tresp.ok()) << tresp.detail;
    d.stop();
}

TEST_F(ObsDaemonTest, LintAndScheduleReportTheirLintPhase)
{
    // Admission and on-demand lint run under the mapped `lint.proc`
    // span, so their time lands in phase_lint_ms.
    serve::ServeConfig cfg;
    cfg.socket_path = "/tmp/exo2_obs_" + std::to_string(getpid()) +
                      "_d.sock";
    cfg.workers = 1;
    serve::Daemon d(cfg);
    d.start();
    serve::ServeClient client(cfg.socket_path);
    ASSERT_TRUE(client.connect());

    serve::ServeRequest req;
    req.id = "lint";
    req.op = "lint";
    req.kernel = "sgemv_n";
    serve::ServeResponse resp = client.call_with_retry(req);
    ASSERT_TRUE(resp.ok()) << resp.detail;
    EXPECT_GT(std::stod(resp.extra["phase_lint_ms"]), 0.0);

    req.id = "sched";
    req.op = "schedule";
    req.kernel = "saxpy";
    resp = client.call_with_retry(req);
    ASSERT_TRUE(resp.ok()) << resp.detail;
    EXPECT_GT(std::stod(resp.extra["phase_lint_ms"]), 0.0);
    d.stop();
}

}  // namespace
}  // namespace obs
}  // namespace exo2
