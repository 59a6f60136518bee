#ifndef EXO2_SERVE_PROTOCOL_H_
#define EXO2_SERVE_PROTOCOL_H_

/**
 * @file
 * Wire protocol of the scheduling daemon (DESIGN.md §8).
 *
 * Transport: a unix-domain stream socket carrying *frames*. A frame
 * is a 4-byte little-endian payload length followed by that many
 * payload bytes; frames larger than kMaxFrameBytes are rejected so a
 * corrupt length prefix cannot make a reader allocate gigabytes.
 *
 * Payload: UTF-8 text, one `key=value` per line. Values escape
 * backslash and newline (`\\` and `\n`) so multi-line schedule
 * scripts travel as one value. Unknown keys are preserved in
 * `extra` on decode — a newer client talking to an older daemon
 * degrades instead of failing.
 *
 * Requests (client -> daemon):
 *   id       echo token, returned verbatim in the response; when
 *            omitted the daemon assigns one ("r<n>") and reports it
 *            in the request_id extra
 *   op       ping | stats | metrics | tune | schedule | lint | shutdown
 *   kernel   kernel name (tune/schedule/lint), e.g. "saxpy", "sgemm"
 *   machine  machine name (default "AVX2")
 *   sizes    canonical size env, e.g. "K=48,M=48,N=48"
 *   deadline_ms  per-request wall-clock budget (0 = daemon default)
 *   beam/rounds/restarts/jit_topk  optional tuner budget overrides
 *   validate 0/1 (tune default 1, schedule default 0)
 *   script   schedule script text (op=schedule)
 *
 * Responses (daemon -> client):
 *   id       echoed request id
 *   status   ok | degraded | rejected | error
 *   detail   human-readable context (error cause, rejection reason)
 *   retry_after_ms  backpressure hint, set when status=rejected
 *   script / cost / naive_cost / validated / from_cache / elapsed_ms
 *   (op=stats responses carry counters as extra key=value pairs plus
 *   latency_count and latency_p50/p95/p99_ms percentiles; op=metrics
 *   returns the whole observability registry as one JSON value under
 *   `metrics`: every engine counter (cursor.*, analysis.*,
 *   ir.interner_*, costsim.cache_*, cache.*, prim.rewrites,
 *   cjit.isa_downgrades, faults.fired — listed from startup, at 0
 *   before first use) under "counters", plus gauges (among them
 *   costsim.pool_workers, the worker count of the cost simulator's
 *   last pooled batch) and
 *   the latency and per-phase histograms; op=lint — and op=schedule,
 *   which lints at admission — carry the static-analysis verdict in
 *   extra: lint_errors/lint_warnings/lint_infos/lint_proven/lint_safe
 *   plus the full diagnostic list as JSON under `lint`)
 *
 * Telemetry extras on every response: request_id (the request's id,
 *   daemon-assigned when the client sent none) and — for queued work
 *   (tune/schedule/lint) — a per-phase time breakdown
 *   phase_{queue,lint,cache,search,cjit,validate}_ms attributing
 *   where the request's wall clock went (DESIGN.md §10); op=lint and
 *   op=schedule report their lint time in phase_lint_ms.
 *
 * Every response is one of exactly four statuses; "the daemon died"
 * is not among them. `rejected` means the bounded queue (or a drain
 * in progress) refused admission — retry after `retry_after_ms`.
 * `degraded` means a usable-but-weaker answer (deadline-cut search,
 * naive fallback). `error` is reserved for malformed or unsatisfiable
 * requests, never for transient faults (those are retried inside the
 * daemon and surface as degraded at worst).
 */

#include <cstdint>
#include <map>
#include <string>

namespace exo2 {
namespace serve {

/** Upper bound on one frame's payload (schedule scripts are a few KB;
 *  this is sanity, not capacity). */
constexpr uint32_t kMaxFrameBytes = 8u << 20;

// ---------------------------------------------------------------------------
// Framing (blocking fd + poll timeout; fd is a connected stream socket)
// ---------------------------------------------------------------------------

/** Write a length-prefixed frame. False on error/timeout/EPIPE (the
 *  caller treats the connection as dead; never raises SIGPIPE). */
bool write_frame(int fd, const std::string& payload,
                 double timeout_seconds);

/** Read one frame into `*out`. Returns false on EOF, timeout, a
 *  malformed length, or a short read. */
bool read_frame(int fd, std::string* out, double timeout_seconds);

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

/** Escape a value for one-line transport (`\` -> `\\`, LF -> `\n`). */
std::string escape_value(const std::string& v);
std::string unescape_value(const std::string& v);

/** Render a key=value map, one pair per line, values escaped. */
std::string encode_kv(const std::map<std::string, std::string>& kv);

/** Parse encode_kv output. Lines without '=' are ignored. */
std::map<std::string, std::string> decode_kv(const std::string& text);

// ---------------------------------------------------------------------------
// Typed request/response views
// ---------------------------------------------------------------------------

struct ServeRequest
{
    std::string id;
    std::string op;  ///< ping|stats|metrics|tune|schedule|lint|shutdown
    std::string kernel;
    std::string machine = "AVX2";
    std::string sizes;     ///< "K=48,M=48,N=48"
    double deadline_ms = 0;
    int beam = 0;          ///< 0 = tuner default
    int rounds = 0;
    int restarts = -1;     ///< -1 = tuner default (0 is meaningful)
    int jit_topk = -1;
    int validate = -1;     ///< -1 = op default
    std::string script;

    std::string to_wire() const;
    /** Throws ConfigError on unparseable numeric fields. */
    static ServeRequest from_wire(const std::string& payload);
};

struct ServeResponse
{
    std::string id;
    std::string status;  ///< ok|degraded|rejected|error
    std::string detail;
    int retry_after_ms = 0;
    std::string script;
    double cost = 0;
    double naive_cost = 0;
    bool validated = false;
    bool from_cache = false;
    double elapsed_ms = 0;
    /** Extra key=value pairs (op=stats counters; forward compat). */
    std::map<std::string, std::string> extra;

    bool ok() const { return status == "ok"; }
    bool degraded() const { return status == "degraded"; }
    bool rejected() const { return status == "rejected"; }

    std::string to_wire() const;
    static ServeResponse from_wire(const std::string& payload);
};

}  // namespace serve
}  // namespace exo2

#endif  // EXO2_SERVE_PROTOCOL_H_
