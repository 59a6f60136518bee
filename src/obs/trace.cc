#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "src/obs/obs.h"
#include "src/obs/phase.h"
#include "src/util/file_atomic.h"

namespace exo2 {
namespace obs {

namespace trace_internal {
std::atomic<uint32_t> g_hooks{0};
}

namespace {

uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct SpanRecord
{
    const char* name;
    uint64_t t0_ns;
    uint64_t dur_ns;
    std::vector<TraceArg> args;
};

/** One thread's span storage. Only its owner pushes; the control
 *  plane (flush/clear/count) takes `mu` too, so there is never an
 *  unsynchronized access — but in steady state the mutex is
 *  uncontended and stays in the owner's cache line. */
struct Ring
{
    std::mutex mu;
    uint32_t tid = 0;
    size_t cap = 0;
    std::vector<SpanRecord> buf;  ///< grows to cap, then wraps
    size_t next = 0;              ///< overwrite cursor once full
    uint64_t total = 0;           ///< spans ever pushed

    void push(SpanRecord r)
    {
        std::lock_guard<std::mutex> lk(mu);
        total++;
        if (buf.size() < cap) {
            buf.push_back(std::move(r));
        } else if (cap > 0) {
            buf[next] = std::move(r);
            next = (next + 1) % cap;
        }
    }
};

/** All rings ever created, kept alive past thread exit so late
 *  flushes still see every thread's spans. */
struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<Ring>> rings;
    /** Rings of exited threads, handed to the next new thread (spans
     *  and track id included): the cost simulator's pool restarts its
     *  workers after every fork, and a ring per thread ever started
     *  would grow the registry without bound. */
    std::vector<std::shared_ptr<Ring>> free_rings;
    uint32_t next_tid = 1;
    size_t ring_cap;
    std::string sink_path;  ///< flushed at exit when non-empty
    uint64_t base_ns;       ///< trace epoch: first registry touch

    Registry() : ring_cap(obs_config().trace_ring_capacity),
                 base_ns(now_ns()) {}
};

Registry&
registry()
{
    static Registry* r = new Registry();  // leaked: usable at exit
    return *r;
}

/** The calling thread's ring, returned to the free list at exit. */
struct RingSlot
{
    std::shared_ptr<Ring> ring;

    ~RingSlot()
    {
        if (!ring)
            return;
        Registry& reg = registry();
        std::lock_guard<std::mutex> lk(reg.mu);
        reg.free_rings.push_back(std::move(ring));
    }
};

thread_local RingSlot t_ring;

Ring&
my_ring()
{
    if (!t_ring.ring) {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lk(reg.mu);
        // The most recently freed ring of the current capacity (a
        // ring's capacity is fixed, and trace_start can change it).
        auto it = std::find_if(reg.free_rings.rbegin(),
                               reg.free_rings.rend(),
                               [&](const std::shared_ptr<Ring>& r) {
                                   return r->cap == reg.ring_cap;
                               });
        if (it != reg.free_rings.rend()) {
            t_ring.ring = std::move(*it);
            reg.free_rings.erase(std::next(it).base());
            return *t_ring.ring;
        }
        auto ring = std::make_shared<Ring>();
        ring->tid = reg.next_tid++;
        ring->cap = reg.ring_cap;
        ring->buf.reserve(ring->cap);
        reg.rings.push_back(ring);
        t_ring.ring = std::move(ring);
    }
    return *t_ring.ring;
}

void
json_escape_into(std::ostringstream& out, const std::string& s)
{
    for (char c : s) {
        switch (c) {
          case '"': out << "\\\""; break;
          case '\\': out << "\\\\"; break;
          case '\n': out << "\\n"; break;
          case '\r': out << "\\r"; break;
          case '\t': out << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

void
flush_sink_at_exit()
{
    std::string path;
    {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lk(reg.mu);
        path = reg.sink_path;
    }
    if (!path.empty())
        (void)trace_flush(path);
}

/** EXO2_TRACE=out.json turns tracing on for the whole process life
 *  and flushes at exit. Runs at static-init time; instrumented TUs
 *  reference trace_enabled(), keeping this TU linked in. */
struct EnvAutoStart
{
    EnvAutoStart()
    {
        const ObsConfig& cfg = obs_config();
        if (!cfg.trace_path.empty())
            trace_start(cfg.trace_path, cfg.trace_ring_capacity);
    }
} g_env_autostart;

}  // namespace

bool
Span::open_hooked(const char* name, uint32_t hooks)
{
    phase_ = hooks >= trace_internal::kCollector
                 ? phase_internal::open_span(name)
                 : -1;
    traced_ = (hooks & trace_internal::kTracing) != 0;
    if (phase_ < 0 && !traced_)
        return false;
    name_ = name;
    t0_ns_ = now_ns();
    return traced_;
}

void
Span::finish()
{
    uint64_t t1 = now_ns();
    uint64_t dur_ns = t1 >= t0_ns_ ? t1 - t0_ns_ : 0;
    if (phase_ >= 0)
        phase_internal::close_span(phase_,
                                   static_cast<double>(dur_ns) * 1e-9);
    if (!traced_ || !trace_enabled())
        return;  // untraced, or tracing stopped mid-span: drop it
    SpanRecord r;
    r.name = name_;
    r.t0_ns = t0_ns_;
    r.dur_ns = dur_ns;
    r.args = std::move(args_);
    my_ring().push(std::move(r));
}

void
trace_start(const std::string& path, size_t ring_capacity)
{
    static std::once_flag at_exit_once;
    Registry& reg = registry();
    {
        std::lock_guard<std::mutex> lk(reg.mu);
        if (!path.empty())
            reg.sink_path = path;
        if (ring_capacity > 0)
            reg.ring_cap = ring_capacity;
    }
    if (!path.empty())
        std::call_once(at_exit_once,
                       [] { std::atexit(flush_sink_at_exit); });
    trace_internal::g_hooks.fetch_or(trace_internal::kTracing,
                                     std::memory_order_relaxed);
}

void
trace_stop()
{
    trace_internal::g_hooks.fetch_and(~trace_internal::kTracing,
                                      std::memory_order_relaxed);
}

void
trace_clear()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    for (auto& ring : reg.rings) {
        std::lock_guard<std::mutex> rlk(ring->mu);
        ring->buf.clear();
        ring->next = 0;
        ring->total = 0;
    }
}

uint64_t
trace_span_count()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    uint64_t n = 0;
    for (auto& ring : reg.rings) {
        std::lock_guard<std::mutex> rlk(ring->mu);
        n += ring->buf.size();
    }
    return n;
}

uint64_t
trace_dropped()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lk(reg.mu);
    uint64_t n = 0;
    for (auto& ring : reg.rings) {
        std::lock_guard<std::mutex> rlk(ring->mu);
        n += ring->total - ring->buf.size();
    }
    return n;
}

std::string
trace_json()
{
    // Snapshot under the locks, render outside them.
    struct Row
    {
        const char* name;
        uint64_t t0_ns, dur_ns;
        uint32_t tid;
        std::vector<TraceArg> args;
    };
    std::vector<Row> rows;
    uint64_t base;
    {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lk(reg.mu);
        base = reg.base_ns;
        for (auto& ring : reg.rings) {
            std::lock_guard<std::mutex> rlk(ring->mu);
            for (const SpanRecord& r : ring->buf)
                rows.push_back(
                    {r.name, r.t0_ns, r.dur_ns, ring->tid, r.args});
        }
    }
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        if (a.t0_ns != b.t0_ns)
            return a.t0_ns < b.t0_ns;
        return a.dur_ns > b.dur_ns;  // parents before children
    });

    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    char num[64];
    for (const Row& r : rows) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"name\":\"";
        json_escape_into(out, r.name);
        out << "\",\"cat\":\"exo2\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << r.tid;
        double ts_us =
            static_cast<double>(r.t0_ns >= base ? r.t0_ns - base : 0) /
            1000.0;
        double dur_us = static_cast<double>(r.dur_ns) / 1000.0;
        std::snprintf(num, sizeof(num), "%.3f", ts_us);
        out << ",\"ts\":" << num;
        std::snprintf(num, sizeof(num), "%.3f", dur_us);
        out << ",\"dur\":" << num;
        if (!r.args.empty()) {
            out << ",\"args\":{";
            bool afirst = true;
            for (const TraceArg& a : r.args) {
                if (!afirst)
                    out << ",";
                afirst = false;
                out << "\"";
                json_escape_into(out, a.key);
                out << "\":";
                if (a.quoted) {
                    out << "\"";
                    json_escape_into(out, a.value);
                    out << "\"";
                } else {
                    out << a.value;
                }
            }
            out << "}";
        }
        out << "}";
    }
    out << "]}";
    return out.str();
}

bool
trace_flush(const std::string& path)
{
    return util::write_file_atomic(path, trace_json());
}

}  // namespace obs
}  // namespace exo2
