#ifndef EXO2_OBS_TRACE_H_
#define EXO2_OBS_TRACE_H_

/**
 * @file
 * Thread-safe span tracer with Chrome trace-event / Perfetto JSON
 * export (DESIGN.md §10).
 *
 * Usage — one macro, RAII-scoped:
 *
 *     void lint_proc(...) {
 *         EXO2_SPAN("lint.proc", {{"proc", p->name()}});
 *         ...
 *     }
 *
 * Span names follow `subsystem.verb` ("tune.round", "cjit.compile",
 * "serve.request") and MUST be string literals — the tracer stores
 * the pointer, not a copy. Dynamic values go in the args list. A span
 * whose arguments are known only at its end is opened by hand, and
 * its arguments are set before it closes:
 *
 *     obs::Span span;
 *     bool traced = span.open("tune.score");
 *     ...
 *     if (traced)
 *         span.set_args("tune.score", {{"misses", n}});
 *
 * Inside a thread's phase collection, a span whose name phase.h maps
 * to a phase also charges its duration to it, traced or not.
 *
 * Cost model: with tracing off and no collection open anywhere, the
 * macro is one relaxed atomic load and a branch (plus one thread-local
 * read while another thread collects); the arguments are not evaluated
 * and nothing is allocated (test_obs.cc asserts both). When on, each
 * completed span
 * is appended to a per-thread ring buffer (per-ring mutex, touched
 * only by its own thread and the flusher), so tracing never contends
 * across threads on the hot path. Rings wrap: a thread keeps its most
 * recent EXO2_TRACE_RING spans and `trace_dropped()` counts the rest.
 * A ring outlives its thread, spans and all, and passes to the next
 * thread that starts, so threads that come and go (the cost
 * simulator's pool workers, cost_sim.h) reuse a bounded set of rings.
 *
 * Export: `EXO2_TRACE=out.json` starts tracing at process start and
 * flushes at exit; `trace_start`/`trace_flush` do the same under
 * program control. The JSON loads directly in https://ui.perfetto.dev
 * (complete "X" events; nesting is reconstructed from timestamps per
 * thread track).
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

namespace exo2 {
namespace obs {

namespace trace_internal {
/** Bit 0: tracing on; plus kCollector per thread inside a phase
 *  collection. Zero: every span is dormant. */
extern std::atomic<uint32_t> g_hooks;
constexpr uint32_t kTracing = 1;
constexpr uint32_t kCollector = 2;
}  // namespace trace_internal

inline bool
trace_enabled()
{
    return trace_internal::g_hooks.load(std::memory_order_relaxed) &
           trace_internal::kTracing;
}

/** One span argument. Converting constructors let call sites write
 *  `{{"digest", d}, {"round", 3}}` for strings and numbers alike. */
struct TraceArg
{
    const char* key;    ///< string literal, like the span name
    std::string value;
    bool quoted = true; ///< false: emit raw (numbers)

    TraceArg(const char* k, std::string v) : key(k), value(std::move(v)) {}
    TraceArg(const char* k, const char* v) : key(k), value(v) {}
    TraceArg(const char* k, int v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, long v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, long long v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, unsigned v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, unsigned long v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, unsigned long long v)
        : key(k), value(std::to_string(v)), quoted(false) {}
    TraceArg(const char* k, double v) : key(k), quoted(false)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        value = buf;
    }
};

/** RAII span. Declared unconditionally by EXO2_SPAN; a dormant Span is
 *  a few POD stores. */
class Span
{
  public:
    Span() = default;
    ~Span()
    {
        if (traced_ || phase_ >= 0)
            finish();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Start if tracing is on or the span charges a phase; true when
     *  tracing is on (then the caller attaches set_args()). */
    bool open(const char* name)
    {
        uint32_t hooks =
            trace_internal::g_hooks.load(std::memory_order_relaxed);
        return hooks != 0 && open_hooked(name, hooks);
    }
    void set_args(const char*) {}
    void set_args(const char*, std::initializer_list<TraceArg> args)
    {
        args_.assign(args.begin(), args.end());
    }

  private:
    bool open_hooked(const char* name, uint32_t hooks);
    void finish();

    bool traced_ = false;
    int phase_ = -1;  ///< the Phase (phase.h) this span charges, or -1
    const char* name_ = nullptr;
    uint64_t t0_ns_ = 0;
    std::vector<TraceArg> args_;
};

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

/** Enable recording. `path` is remembered as the flush sink (also
 *  flushed at process exit when set via EXO2_TRACE); "" records to
 *  memory only. `ring_capacity` 0 keeps the current/default size.
 *  Already-recorded spans are kept. */
void trace_start(const std::string& path = "", size_t ring_capacity = 0);

/** Stop recording (spans already captured are kept for flushing). */
void trace_stop();

/** Drop every recorded span and zero the drop counter. */
void trace_clear();

/** Spans currently retained across all thread rings. */
uint64_t trace_span_count();

/** Spans overwritten by ring wrap since the last clear. */
uint64_t trace_dropped();

/** Render everything recorded so far as Chrome trace-event JSON. */
std::string trace_json();

/** trace_json() -> `path` via the atomic file writer. False on I/O
 *  failure. */
bool trace_flush(const std::string& path);

// ---------------------------------------------------------------------------
// The macro
// ---------------------------------------------------------------------------

#define EXO2_OBS_CONCAT_(a, b) a##b
#define EXO2_OBS_CONCAT(a, b) EXO2_OBS_CONCAT_(a, b)

/** The span name: the first macro argument (the trailing 0 keeps the
 *  variadic part non-empty for a bare EXO2_SPAN("name")). */
#define EXO2_OBS_SPAN_NAME_(name, ...) name

/** Open a span for the rest of the enclosing scope. Arguments are
 *  evaluated only when tracing is enabled. One use per source line. */
#define EXO2_SPAN(...)                                                    \
    ::exo2::obs::Span EXO2_OBS_CONCAT(exo2_obs_span_, __LINE__);          \
    if (EXO2_OBS_CONCAT(exo2_obs_span_, __LINE__)                         \
            .open(EXO2_OBS_SPAN_NAME_(__VA_ARGS__, 0)))                   \
    EXO2_OBS_CONCAT(exo2_obs_span_, __LINE__).set_args(__VA_ARGS__)

}  // namespace obs
}  // namespace exo2

#endif  // EXO2_OBS_TRACE_H_
