#include "src/serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "src/cache/cache.h"
#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/lint/lint.h"
#include "src/machine/machine.h"
#include "src/obs/metrics.h"
#include "src/obs/phase.h"
#include "src/obs/trace.h"
#include "src/tune/tune.h"
#include "src/util/env.h"
#include "src/verify/oracle.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace serve {

namespace {

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Attach a lint verdict to a response as structured extra fields:
 *  summary counters plus the full diagnostic list as JSON, so clients
 *  render findings without re-running the analysis. */
void
attach_lint(ServeResponse* resp, const lint::LintReport& rep)
{
    resp->extra["lint_errors"] =
        std::to_string(rep.count(lint::Severity::Error));
    resp->extra["lint_warnings"] =
        std::to_string(rep.count(lint::Severity::Warn));
    resp->extra["lint_infos"] =
        std::to_string(rep.count(lint::Severity::Info));
    resp->extra["lint_proven"] = std::to_string(rep.proven) + "/" +
                                 std::to_string(rep.obligations);
    resp->extra["lint_safe"] = rep.proven_safe() ? "1" : "0";
    resp->extra["lint"] = rep.to_json();
}

/** Millisecond values travel with fixed sub-microsecond precision
 *  (extras are text; std::to_string's %f default is fine for ms). */
std::string
fmt_ms(double ms)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
    return buf;
}

/** Attach one request's phase breakdown as phase_*_ms extras and feed
 *  the registry's latency histograms, so the same numbers surface in
 *  the response, op=metrics, and op=stats percentiles. */
void
attach_phases(ServeResponse* resp, const obs::PhaseBreakdown& pb)
{
    static const obs::Phase kPhases[] = {
        obs::Phase::Queue,    obs::Phase::Lint,  obs::Phase::Cache,
        obs::Phase::Search,   obs::Phase::Cjit,  obs::Phase::Validate,
    };
    for (obs::Phase ph : kPhases) {
        double ms = pb.of(ph) * 1000.0;
        resp->extra[std::string("phase_") + obs::phase_name(ph) +
                    "_ms"] = fmt_ms(ms);
        obs::histogram(std::string("serve.phase.") +
                       obs::phase_name(ph) + "_ms")
            .observe(ms);
    }
}

/** Transient faults are worth a bounded retry; deterministic ones
 *  (a kernel that always SIGSEGVs) are not — but those never escape
 *  autotune, which scores them infeasible. */
bool
is_transient(FaultKind k)
{
    switch (k) {
      case FaultKind::CompileError:
      case FaultKind::CompileTimeout:
      case FaultKind::LoadError:
      case FaultKind::Timeout:
      case FaultKind::ResourceLimit:
      case FaultKind::SandboxError:
        return true;
      default:
        return false;
    }
}

}  // namespace

ServeConfig
ServeConfig::from_env()
{
    ServeConfig c;
    c.socket_path = util::env_string("EXO2_SERVE_SOCKET", c.socket_path);
    c.workers = static_cast<int>(
        util::env_int("EXO2_SERVE_WORKERS", c.workers, 1, 256));
    c.queue_capacity = static_cast<int>(
        util::env_int("EXO2_SERVE_QUEUE", c.queue_capacity, 1, 65536));
    c.default_deadline_seconds = util::env_double(
        "EXO2_SERVE_DEADLINE", c.default_deadline_seconds, 0, 86400);
    c.retry_attempts = static_cast<int>(
        util::env_int("EXO2_SERVE_RETRIES", c.retry_attempts, 0, 16));
    return c;
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

/** One accepted client connection. Workers and the connection thread
 *  share it; the last owner closes the fd. Writes are serialized so
 *  two workers answering pipelined requests cannot interleave
 *  frames. */
struct Daemon::Conn
{
    int fd = -1;
    std::mutex write_mu;

    explicit Conn(int f) : fd(f) {}
    ~Conn()
    {
        if (fd >= 0)
            close(fd);
    }
};

/** One admitted request waiting for a worker. */
struct Daemon::Job
{
    ServeRequest req;
    std::shared_ptr<Conn> conn;
    double admitted = 0;  ///< now_seconds() at admission
};

Daemon::Daemon(ServeConfig cfg) : cfg_(std::move(cfg)) {}

Daemon::~Daemon() { stop(); }

void
Daemon::start()
{
    if (running_.load())
        return;

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path))
        throw ConfigError("socket path too long (" +
                          std::to_string(cfg_.socket_path.size()) +
                          " bytes, max " +
                          std::to_string(sizeof(addr.sun_path) - 1) +
                          "): " + cfg_.socket_path);
    std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        throw ConfigError(std::string("socket() failed: ") +
                          std::strerror(errno));
    // A previous daemon instance (clean or killed) leaves the socket
    // file behind; crash-only startup reclaims it unconditionally.
    unlink(cfg_.socket_path.c_str());
    if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
        listen(listen_fd_, 64) != 0) {
        int err = errno;
        close(listen_fd_);
        listen_fd_ = -1;
        throw ConfigError("bind/listen on '" + cfg_.socket_path +
                          "' failed: " + std::strerror(err));
    }

    running_.store(true);
    draining_.store(false);
    listener_ = std::thread([this] { listener_main(); });
    for (int i = 0; i < cfg_.workers; i++)
        workers_.emplace_back([this] { worker_main(); });
}

void
Daemon::request_stop()
{
    draining_.store(true);
    queue_cv_.notify_all();
}

void
Daemon::join()
{
    if (listener_.joinable())
        listener_.join();
    // Workers exit once draining_ is set and the queue is empty.
    for (std::thread& w : workers_) {
        if (w.joinable())
            w.join();
    }
    workers_.clear();
    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        for (std::thread& c : conns_) {
            if (c.joinable())
                c.join();
        }
        conns_.clear();
    }
    if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
    }
    unlink(cfg_.socket_path.c_str());
    running_.store(false);
}

void
Daemon::stop()
{
    if (!running_.load())
        return;
    request_stop();
    join();
}

ServeStats
Daemon::stats() const
{
    ServeStats s;
    s.connections = stats_.connections.load(std::memory_order_relaxed);
    s.requests = stats_.requests.load(std::memory_order_relaxed);
    s.completed = stats_.completed.load(std::memory_order_relaxed);
    s.degraded = stats_.degraded.load(std::memory_order_relaxed);
    s.rejected = stats_.rejected.load(std::memory_order_relaxed);
    s.errors = stats_.errors.load(std::memory_order_relaxed);
    s.retries = stats_.retries.load(std::memory_order_relaxed);
    s.queue_peak = stats_.queue_peak.load(std::memory_order_relaxed);
    s.deadline_expired =
        stats_.deadline_expired.load(std::memory_order_relaxed);
    s.lint_rejects =
        stats_.lint_rejects.load(std::memory_order_relaxed);
    return s;
}

void
Daemon::listener_main()
{
    while (!draining_.load()) {
        struct pollfd pfd;
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        pfd.revents = 0;
        int rc = poll(&pfd, 1, 100);
        if (rc <= 0)
            continue;  // timeout tick or EINTR: re-check draining_
        int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Conn>(fd);
        stats_.connections.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(conns_mu_);
        conns_.emplace_back(
            [this, conn] { connection_main(conn); });
    }
}

void
Daemon::connection_main(std::shared_ptr<Conn> conn)
{
    std::string payload;
    // 1s read ticks so a drain closes idle connections promptly.
    while (!draining_.load()) {
        if (!read_frame(conn->fd, &payload, 1.0)) {
            // Distinguish "nothing arrived this tick" from EOF/error:
            // peek for EOF.
            char b;
            ssize_t n = recv(conn->fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
            if (n == 0)
                return;  // peer closed
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                return;
            continue;
        }

        ServeRequest req;
        try {
            req = ServeRequest::from_wire(payload);
            stats_.requests.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& e) {
            ServeResponse resp;
            resp.status = "error";
            resp.detail = e.what();
            send_response(conn, resp);
            stats_.errors.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        // Telemetry needs every request attributable: a frame that
        // arrives without an id is assigned one ("r<n>"), echoed back
        // in the request_id extra (the id field itself stays an echo
        // of what the client sent).
        if (req.id.empty()) {
            req.id = "r" + std::to_string(req_seq_.fetch_add(
                               1, std::memory_order_relaxed) +
                           1);
        }

        // Control ops answer inline: they must work even when the
        // queue is saturated — that is when you need `stats` most.
        if (req.op == "ping" || req.op == "stats" ||
            req.op == "metrics" || req.op == "shutdown") {
            ServeResponse resp = process(req, now_seconds());
            send_response(conn, resp);
            if (req.op == "shutdown")
                request_stop();
            continue;
        }

        // Admission: bounded queue with explicit backpressure. The
        // `queue_full` fault site makes a healthy queue report
        // saturation for one admission, driving this exact path.
        bool full_injected =
            verify::fault_should_inject(verify::FaultSite::QueueFull);
        bool admitted = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!draining_.load() && !full_injected &&
                queue_.size() <
                    static_cast<size_t>(cfg_.queue_capacity)) {
                Job job;
                job.req = req;
                job.conn = conn;
                job.admitted = now_seconds();
                queue_.push_back(std::move(job));
                uint64_t depth = queue_.size();
                uint64_t peak = stats_.queue_peak.load(
                    std::memory_order_relaxed);
                while (depth > peak &&
                       !stats_.queue_peak.compare_exchange_weak(
                           peak, depth, std::memory_order_relaxed)) {
                }
                admitted = true;
            } else {
                stats_.rejected.fetch_add(1, std::memory_order_relaxed);
            }
        }
        if (admitted) {
            queue_cv_.notify_one();
        } else {
            ServeResponse resp;
            resp.id = req.id;
            resp.status = "rejected";
            resp.detail = draining_.load()
                              ? "draining: daemon is shutting down"
                              : (full_injected
                                     ? "queue full (injected)"
                                     : "queue full");
            resp.retry_after_ms = cfg_.retry_after_ms;
            send_response(conn, resp);
        }
    }
}

void
Daemon::worker_main()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queue_cv_.wait(lk, [this] {
                return !queue_.empty() || draining_.load();
            });
            if (queue_.empty()) {
                if (draining_.load())
                    return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        // One collection per request: queue wait measured here, the
        // engine phases (lint/cache/search/cjit/validate) charged by
        // the mapped spans inside autotune and friends (obs/phase.h).
        obs::phase_begin_collection();
        obs::phase_add(obs::Phase::Queue,
                       now_seconds() - job.admitted);
        ServeResponse resp;
        {
            EXO2_SPAN("serve.request",
                      {{"rid", job.req.id}, {"op", job.req.op}});
            resp = process(job.req, job.admitted);
        }
        obs::PhaseBreakdown pb = obs::phase_end_collection();
        attach_phases(&resp, pb);
        obs::histogram("serve.latency_ms").observe(resp.elapsed_ms);
        send_response(job.conn, resp);
    }
}

ServeResponse
Daemon::process(const ServeRequest& req, double admitted)
{
    double t0 = now_seconds();
    ServeResponse resp;
    resp.id = req.id;
    try {
        if (req.op == "ping") {
            resp.status = "ok";
            resp.detail = "pong";
        } else if (req.op == "shutdown") {
            resp.status = "ok";
            resp.detail = "draining";
        } else if (req.op == "stats") {
            resp.status = "ok";
            ServeStats s = stats();
            cache::CacheStats cs = cache::cache_stats();
            verify::FaultInjectionCounts fc =
                verify::fault_injection_counts();
            auto put = [&](const char* k, uint64_t v) {
                resp.extra[k] = std::to_string(v);
            };
            put("connections", s.connections);
            put("requests", s.requests);
            put("completed", s.completed);
            put("degraded_count", s.degraded);
            put("rejected_count", s.rejected);
            put("error_count", s.errors);
            put("retry_count", s.retries);
            put("queue_peak", s.queue_peak);
            put("deadline_expired", s.deadline_expired);
            put("lint_rejects", s.lint_rejects);
            put("tune_cache_hits", cs.tune_hits);
            put("tune_cache_misses", cs.tune_misses);
            put("tune_cache_corrupt", cs.tune_corrupt);
            put("tune_cache_stale", cs.tune_stale);
            put("jit_cache_hits", cs.jit_hits);
            put("jit_cache_misses", cs.jit_misses);
            put("jit_cache_corrupt", cs.jit_corrupt);
            put("tmp_swept", cs.tmp_swept);
            put("faults_fired", fc.total());
            obs::HistogramSnapshot lat =
                obs::histogram("serve.latency_ms").snapshot();
            resp.extra["latency_count"] = std::to_string(lat.count);
            resp.extra["latency_p50_ms"] = fmt_ms(lat.percentile(0.50));
            resp.extra["latency_p95_ms"] = fmt_ms(lat.percentile(0.95));
            resp.extra["latency_p99_ms"] = fmt_ms(lat.percentile(0.99));
        } else if (req.op == "metrics") {
            // The whole registry as one JSON value: engine counters,
            // latency and phase histograms in a single snapshot.
            resp.status = "ok";
            resp.extra["metrics"] = obs::metrics_json();
        } else if (req.op == "tune") {
            resp = process_tune(req, admitted);
        } else if (req.op == "schedule") {
            resp = process_schedule(req);
        } else if (req.op == "lint") {
            resp = process_lint(req);
        } else {
            resp.status = "error";
            resp.detail =
                "unknown op '" + req.op +
                "' (ping|stats|metrics|tune|schedule|lint|shutdown)";
        }
    } catch (const std::exception& e) {
        resp.status = "error";
        resp.detail = e.what();
    } catch (...) {
        resp.status = "error";
        resp.detail = "unknown exception";
    }
    resp.id = req.id;
    resp.extra["request_id"] = req.id;
    resp.elapsed_ms = (now_seconds() - t0) * 1000.0;
    if (resp.status == "ok")
        stats_.completed.fetch_add(1, std::memory_order_relaxed);
    else if (resp.status == "degraded")
        stats_.degraded.fetch_add(1, std::memory_order_relaxed);
    else if (resp.status == "rejected")
        stats_.rejected.fetch_add(1, std::memory_order_relaxed);
    else
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
    return resp;
}

ServeResponse
Daemon::process_tune(const ServeRequest& req, double admitted)
{
    ServeResponse resp;
    resp.id = req.id;

    ProcPtr naive = kernels::resolve_kernel(req.kernel);
    const Machine& m = find_machine(req.machine);

    tune::TuneOpts opts;
    opts.tune_sizes = verify::parse_sizes(req.sizes);
    if (opts.tune_sizes.empty())
        throw ConfigError("tune request needs non-empty sizes");
    if (req.beam > 0)
        opts.beam_width = req.beam;
    if (req.rounds > 0)
        opts.max_rounds = req.rounds;
    if (req.restarts >= 0)
        opts.random_restarts = req.restarts;
    if (req.jit_topk >= 0)
        opts.jit_topk = req.jit_topk;
    opts.validate = req.validate != 0;  // default on

    double budget = req.deadline_ms > 0
                        ? req.deadline_ms / 1000.0
                        : cfg_.default_deadline_seconds;
    double waited = now_seconds() - admitted;
    bool expired_in_queue = budget > 0 && waited >= budget;
    if (expired_in_queue) {
        // Bottom of the degradation ladder: no search budget left.
        // A cached winner still replays in milliseconds; otherwise
        // answer with the naive schedule. Weaker, never an error.
        stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    }
    if (budget > 0) {
        opts.deadline_seconds =
            expired_in_queue ? 0.001 : budget - waited;
        if (expired_in_queue) {
            opts.max_rounds = 0;
            opts.random_restarts = 0;
            opts.jit_topk = 0;
            opts.validate = false;
        }
    }

    tune::TuneResult r;
    int attempt = 0;
    for (;;) {
        try {
            std::lock_guard<std::mutex> lk(engine_mu_);
            r = tune::autotune(naive, m, opts);
            break;
        } catch (const FaultError& e) {
            if (!is_transient(e.fault().kind) ||
                attempt >= cfg_.retry_attempts)
                throw;
            double back_ms =
                cfg_.retry_backoff_ms * static_cast<double>(1 << attempt);
            attempt++;
            stats_.retries.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::duration<double>(
                back_ms / 1000.0));
        }
    }

    resp.status =
        (r.degraded || expired_in_queue) ? "degraded" : "ok";
    if (expired_in_queue)
        resp.detail = "deadline expired before search began";
    else if (r.degraded)
        resp.detail = "deadline reached mid-search: best-so-far";
    resp.script = verify::script_to_string(r.script);
    resp.cost = r.cost;
    resp.naive_cost = r.naive_cost;
    resp.validated = r.validated;
    resp.from_cache = r.from_cache;
    resp.extra["lint_checked"] = std::to_string(r.stats.lint_checked);
    resp.extra["lint_pruned"] = std::to_string(r.stats.lint_pruned);
    return resp;
}

ServeResponse
Daemon::process_lint(const ServeRequest& req)
{
    ServeResponse resp;
    resp.id = req.id;

    ProcPtr p = kernels::resolve_kernel(req.kernel);
    // Lint fills the same unsynchronized analysis caches a tune does.
    std::lock_guard<std::mutex> lk(engine_mu_);
    if (!req.script.empty()) {
        std::vector<verify::FuzzStep> script =
            verify::script_from_string(req.script);
        p = tune::replay_script(p, script);
        resp.script = verify::script_to_string(script);
    }
    lint::LintReport rep = lint::lint_proc(p);
    attach_lint(&resp, rep);
    // The analysis ran to completion, so the request succeeded; the
    // verdict — including any Error findings — is the payload.
    resp.status = "ok";
    resp.detail = std::to_string(rep.count(lint::Severity::Error)) +
                  " error(s), " +
                  std::to_string(rep.count(lint::Severity::Warn)) +
                  " warning(s), " +
                  std::to_string(rep.count(lint::Severity::Info)) +
                  " info(s)";
    return resp;
}

ServeResponse
Daemon::process_schedule(const ServeRequest& req)
{
    ServeResponse resp;
    resp.id = req.id;

    ProcPtr naive = kernels::resolve_kernel(req.kernel);
    std::vector<verify::FuzzStep> script =
        verify::script_from_string(req.script);

    std::lock_guard<std::mutex> lk(engine_mu_);
    ProcPtr scheduled = tune::replay_script(naive, script);

    // Admission lint (DESIGN.md §9): every submitted schedule is
    // statically vetted before the daemon spends any JIT/oracle time
    // on it. Error-level findings are proven violations — the request
    // is unsatisfiable, refused with the structured diagnostics.
    lint::LintReport lrep = lint::lint_proc(scheduled);
    attach_lint(&resp, lrep);
    if (lrep.has_errors()) {
        stats_.lint_rejects.fetch_add(1, std::memory_order_relaxed);
        resp.status = "error";
        resp.detail =
            "schedule rejected by lint: " + lrep.to_text();
        return resp;
    }

    resp.status = "ok";
    resp.extra["digest"] = cache::hex64(proc_digest(scheduled));
    if (!req.sizes.empty()) {
        verify::SizeEnv env = verify::parse_sizes(req.sizes);
        resp.cost = simulate_cost_named(scheduled, env).cycles;
        resp.naive_cost = simulate_cost_named(naive, env).cycles;
        if (req.validate == 1) {
            verify::TriOracleReport rep =
                verify::tri_oracle_check(naive, scheduled, env, 4242);
            if (!rep.ok)
                throw VerifyError("schedule failed validation: " +
                                  rep.detail);
            resp.validated = true;
        }
    }
    resp.script = verify::script_to_string(script);
    return resp;
}

void
Daemon::send_response(const std::shared_ptr<Conn>& conn,
                      const ServeResponse& resp)
{
    std::lock_guard<std::mutex> lk(conn->write_mu);
    // A client that vanished mid-request is not an error worth more
    // than a counter; the next read on the connection sees EOF.
    (void)write_frame(conn->fd, resp.to_wire(),
                      cfg_.io_timeout_seconds);
}

}  // namespace serve
}  // namespace exo2
