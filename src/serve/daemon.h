#ifndef EXO2_SERVE_DAEMON_H_
#define EXO2_SERVE_DAEMON_H_

/**
 * @file
 * The scheduling daemon `exo2d` (DESIGN.md §8): a long-running
 * service that answers tune/schedule requests over a unix-domain
 * socket, built crash-only on the persistent caches of src/cache/.
 *
 * Architecture:
 *
 *   listener thread ── accept ──> connection threads (one per client)
 *        │                              │ read frame, decode
 *        │                              │ ping/stats/shutdown: inline
 *        │                              ▼
 *        │                     bounded request queue ── full? ──> REJECTED
 *        │                              │                 (retry_after_ms)
 *        │                              ▼
 *        └── stop flag ──────── worker thread pool
 *                                       │ engine mutex (the scheduling
 *                                       │ engine's memo caches are
 *                                       │ unsynchronized by design)
 *                                       ▼
 *                               autotune / replay  ──>  response frame
 *                                       │ a tune's scoring batches
 *                                       ▼ (cost_sim.h)
 *                               cost-sim pool: one pinned worker per CPU
 *
 * Robustness posture — every request gets exactly one response and
 * the daemon never dies on a request's behalf:
 *
 *  - **Backpressure**: the queue is bounded (ServeConfig::queue_capacity).
 *    A full queue (real, or injected via the `queue_full` fault site)
 *    answers `rejected` + `retry_after_ms` immediately instead of
 *    growing without bound. Clients retry; memory does not.
 *  - **Deadlines**: each request carries a wall-clock budget, counted
 *    from *admission* (queue wait included). The degradation ladder:
 *    budget left -> full search; budget expires mid-search -> the
 *    tuner's best-so-far, `degraded`; budget already gone at dequeue
 *    -> cached winner if one replays, else the naive schedule,
 *    `degraded`. Deadlines produce weaker answers, never errors.
 *  - **Retry**: transient faults from the PR 6 taxonomy (compiler
 *    timeout/crash, sandbox trouble, resource limits) are retried
 *    inside the daemon with bounded exponential backoff before any
 *    degraded answer is considered.
 *  - **Drain**: request_stop() (SIGTERM in exo2d) stops admission —
 *    late arrivals are `rejected` with "draining" — finishes every
 *    queued request, flushes nothing because cache writes are
 *    write-through (atomic rename + fsync at store time), then joins.
 *  - **Crash-only**: kill -9 at any instant leaves only temp files and
 *    possibly-torn unreferenced entries; the next daemon's cache
 *    construction sweeps orphans and quarantines damage (cache.h).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/protocol.h"

namespace exo2 {
namespace serve {

/** Daemon configuration; every field has an EXO2_SERVE_* override
 *  (see from_env). */
struct ServeConfig
{
    std::string socket_path = "/tmp/exo2d.sock";
    int workers = 4;            ///< worker threads (EXO2_SERVE_WORKERS)
    int queue_capacity = 64;    ///< bounded queue (EXO2_SERVE_QUEUE)
    double default_deadline_seconds = 0;  ///< 0 = none (EXO2_SERVE_DEADLINE)
    int retry_attempts = 3;     ///< transient-fault retries (EXO2_SERVE_RETRIES)
    double retry_backoff_ms = 25;  ///< first backoff; doubles per attempt
    double io_timeout_seconds = 30;  ///< per-frame read/write budget
    int retry_after_ms = 100;   ///< hint sent with `rejected`

    /** Defaults overridden by EXO2_SERVE_SOCKET, EXO2_SERVE_WORKERS,
     *  EXO2_SERVE_QUEUE, EXO2_SERVE_DEADLINE (seconds),
     *  EXO2_SERVE_RETRIES. Throws ConfigError on out-of-range values
     *  (util/env.h) — a misconfigured daemon must not start. */
    static ServeConfig from_env();
};

/** Monotonic service counters (stats() and the op=stats response).
 *  A point-in-time copy: the live counters are lock-free atomics, so
 *  sampling them (bench_serve does, mid-run) never touches the queue
 *  mutex or blocks a worker. */
struct ServeStats
{
    uint64_t connections = 0;
    uint64_t requests = 0;        ///< frames decoded into requests
    uint64_t completed = 0;       ///< responses with status ok
    uint64_t degraded = 0;        ///< responses with status degraded
    uint64_t rejected = 0;        ///< backpressure/drain rejections
    uint64_t errors = 0;          ///< responses with status error
    uint64_t retries = 0;         ///< transient-fault retry sleeps
    uint64_t queue_peak = 0;      ///< high-water mark of queue depth
    uint64_t deadline_expired = 0;  ///< budget gone before dequeue
    /** Schedule submissions refused at admission because the static
     *  linter (DESIGN.md §9) proved an Error-level violation. */
    uint64_t lint_rejects = 0;
};

class Daemon
{
  public:
    explicit Daemon(ServeConfig cfg);
    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind the socket and start listener + workers. Throws
     *  ConfigError when the socket cannot be created (path too long,
     *  directory missing, ...). */
    void start();

    /** Begin a graceful drain: stop admitting, finish the queue, then
     *  stop the threads. Safe from signal-driven contexts via a
     *  self-pipe in exo2d; idempotent. */
    void request_stop();

    /** Block until a drain requested by request_stop() (or a shutdown
     *  request frame) has completed and all threads are joined. */
    void join();

    /** request_stop() + join(); called by the destructor. */
    void stop();

    bool running() const { return running_.load(); }
    bool draining() const { return draining_.load(); }
    const ServeConfig& config() const { return cfg_; }
    /** Atomic snapshot of the live counters; never blocks a worker. */
    ServeStats stats() const;

  private:
    struct Conn;
    struct Job;

    void listener_main();
    void connection_main(std::shared_ptr<Conn> conn);
    void worker_main();

    /** Handle one decoded request end-to-end (never throws). */
    ServeResponse process(const ServeRequest& req,
                          double admitted_monotonic);

    ServeResponse process_tune(const ServeRequest& req,
                               double admitted_monotonic);
    ServeResponse process_schedule(const ServeRequest& req);
    ServeResponse process_lint(const ServeRequest& req);

    void send_response(const std::shared_ptr<Conn>& conn,
                       const ServeResponse& resp);

    /** Lock-free mirror of ServeStats: every counter bumps through a
     *  relaxed atomic, so op=stats and bench sampling are wait-free
     *  with respect to the worker queue (whose mutex now guards only
     *  the queue). */
    struct AtomicStats
    {
        std::atomic<uint64_t> connections{0};
        std::atomic<uint64_t> requests{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<uint64_t> degraded{0};
        std::atomic<uint64_t> rejected{0};
        std::atomic<uint64_t> errors{0};
        std::atomic<uint64_t> retries{0};
        std::atomic<uint64_t> queue_peak{0};
        std::atomic<uint64_t> deadline_expired{0};
        std::atomic<uint64_t> lint_rejects{0};
    };

    ServeConfig cfg_;
    int listen_fd_ = -1;

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};

    mutable std::mutex mu_;           ///< queue only
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;
    AtomicStats stats_;
    /** Generates "r<n>" request ids for frames that arrive without
     *  one, so telemetry can always attribute a request. */
    std::atomic<uint64_t> req_seq_{0};

    /** The scheduling engine's caches (analysis memo caches, cost-sim
     *  memo, interning tables) are unsynchronized by design, so one
     *  worker at a time drives the engine: every worker takes this
     *  around engine work. Cache I/O, framing, and backpressure run
     *  outside it. A tune holding it spreads its cost simulations over
     *  the cost simulator's process-wide pool (cost_sim.h), whose
     *  workers touch none of those caches; the other workers wait on
     *  this lock anyway. */
    std::mutex engine_mu_;

    std::thread listener_;
    std::vector<std::thread> workers_;
    std::vector<std::thread> conns_;
    std::mutex conns_mu_;
};

}  // namespace serve
}  // namespace exo2

#endif  // EXO2_SERVE_DAEMON_H_
