/**
 * @file
 * serve_mix: a forked scheduling daemon with a fresh cache, loaded by
 * three closed-loop client connections from one process. Each client
 * sends seeded blocks of 20 requests: 14 warm tunes of keys seeded
 * during setup (each must come back from the cache with the setup's
 * script), 4 lints of library kernels, and 2 cold tunes of saxpy or
 * sdot at a size no earlier request used (each a full search that
 * stores a new cache entry). The cache serves reads and writes side by
 * side, and a cold tune holds the daemon's worker for ~0.1 s, so
 * queueing shows in the warm tail. The op is a warm tune.
 *
 * The daemon runs one worker: op=lint runs outside the engine lock
 * (src/serve/daemon.cc), and the engine's caches are single-threaded,
 * so a second worker would race a lint against a tune.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "benchsuite/suite.h"
#include "src/obs/trace.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/util/file_atomic.h"
#include "src/util/rng.h"

namespace exo2 {
namespace suite {

namespace {

using serve::ServeClient;
using serve::ServeRequest;
using serve::ServeResponse;

/** Warm keys: small enough that seeding all five takes ~3 s. */
const char* const kWarm[][2] = {
    {"saxpy", "n=1024"},   {"sdot", "n=1024"},
    {"sgemv_n", "M=48,N=48"}, {"sger", "M=48,N=48"},
    {"sgemm", "K=16,M=16,N=16"},
};
constexpr size_t kNumWarm = sizeof(kWarm) / sizeof(kWarm[0]);
constexpr int kClients = 3;

ServeRequest
tune_request(const std::string& kernel, const std::string& sizes)
{
    ServeRequest q;
    q.op = "tune";
    q.kernel = kernel;
    q.sizes = sizes;
    q.beam = 2;
    q.rounds = 3;
    q.restarts = 0;
    q.jit_topk = 0;
    return q;
}

/** A forked daemon, stopped by closing its control pipe (stop_daemon);
 *  one still running when this is destroyed, after an error, is
 *  killed and reaped. */
struct DaemonProc
{
    pid_t pid = -1;
    int ctl_fd = -1;
    std::string dir, socket;

    DaemonProc() = default;
    DaemonProc(DaemonProc&& o) noexcept { *this = std::move(o); }
    DaemonProc& operator=(DaemonProc&& o) noexcept
    {
        std::swap(pid, o.pid);
        std::swap(ctl_fd, o.ctl_fd);
        dir = std::move(o.dir);
        socket = std::move(o.socket);
        return *this;
    }
    DaemonProc(const DaemonProc&) = delete;
    DaemonProc& operator=(const DaemonProc&) = delete;
    ~DaemonProc()
    {
        if (pid > 0) {
            kill(pid, SIGKILL);
            waitpid(pid, nullptr, 0);
            close(ctl_fd);
        }
    }
};

/** Fork a daemon whose cache and socket live in `dir`. A traced one
 *  records spans from its start and, when stopped, writes them to
 *  dir/trace.json and the dropped-span count to dir/dropped. */
DaemonProc
spawn_daemon(const std::string& dir, bool traced)
{
    DaemonProc d;
    d.dir = dir;
    d.socket = dir + "/d.sock";
    std::string cache = dir + "/cache";
    mkdir(dir.c_str(), 0755);
    int ctl[2];
    if (pipe(ctl) != 0)
        throw std::runtime_error("pipe failed");
    d.pid = fork();
    if (d.pid < 0)
        throw std::runtime_error("fork failed");
    if (d.pid == 0) {
        // Drop inherited descriptors, above all the control pipes of
        // earlier daemons: a copy held here would keep them running.
        close_range(3, static_cast<unsigned>(ctl[0]) - 1, 0);
        close_range(static_cast<unsigned>(ctl[0]) + 1, ~0u, 0);
        int code = 0;
        try {
            setenv("EXO2_CACHE_DIR", cache.c_str(), 1);
            if (traced)
                start_tracing();
            serve::ServeConfig cfg;
            cfg.socket_path = d.socket;
            cfg.workers = 1;
            cfg.queue_capacity = 16;
            serve::Daemon daemon(cfg);
            daemon.start();
            char b;
            while (read(ctl[0], &b, 1) != 0 && errno == EINTR) {
            }
            daemon.stop();
            if (traced &&
                (!obs::trace_flush(dir + "/trace.json") ||
                 !util::write_file_atomic(
                     dir + "/dropped", std::to_string(obs::trace_dropped()))))
                code = 4;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_suite: daemon: %s\n", e.what());
            code = 3;
        } catch (...) {
            code = 3;
        }
        _exit(code);
    }
    close(ctl[0]);
    d.ctl_fd = ctl[1];
    for (int i = 0; i < 1000; i++) {
        ServeClient probe(d.socket, 1.0);
        if (probe.connect())
            return d;
        usleep(10 * 1000);
    }
    throw std::runtime_error("daemon did not start");
}

/** Stop the daemon and wait for it; returns its peak RSS in MB. */
double
stop_daemon(DaemonProc& d)
{
    if (d.pid <= 0)
        return 0;
    close(d.ctl_fd);
    int status = 0;
    struct rusage ru;
    pid_t got = wait4(d.pid, &status, 0, &ru);
    d.pid = -1;
    if (got <= 0)
        throw std::runtime_error("wait4 on the daemon failed");
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("daemon exited abnormally");
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
rss_mb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

std::map<std::string, std::string>
daemon_extras(const std::string& socket, const char* op)
{
    ServeClient c(socket, 30.0);
    ServeRequest q;
    q.op = op;
    ServeResponse resp;
    if (!c.call(q, &resp) || !resp.ok())
        throw std::runtime_error(std::string("op=") + op + " failed");
    return resp.extra;
}

double
num(const std::map<std::string, std::string>& m, const std::string& key)
{
    auto it = m.find(key);
    return it == m.end() ? 0 : std::strtod(it->second.c_str(), nullptr);
}

/** A gauge of the op=metrics registry JSON. */
double
gauge(const std::string& json, const std::string& name)
{
    size_t pos = json.find("\"" + name + "\":");
    return pos == std::string::npos
               ? 0
               : std::strtod(json.c_str() + pos + name.size() + 3, nullptr);
}

struct Seeded
{
    DaemonProc daemon;
    std::vector<std::string> scripts;  ///< per warm key
    std::vector<double> speedups;      ///< naive over tuned cycles
};

/** A daemon with a fresh cache, with every warm key tuned once. */
Seeded
start_seeded(const std::string& dir)
{
    Seeded s;
    s.daemon = spawn_daemon(dir, false);
    ServeClient c(s.daemon.socket, 120.0);
    for (const auto& w : kWarm) {
        ServeResponse resp = c.call_with_retry(tune_request(w[0], w[1]), 5);
        if (!resp.ok() || !resp.validated)
            throw std::runtime_error(std::string("seeding ") + w[0] +
                                     " failed: " + resp.detail);
        s.scripts.push_back(resp.script);
        s.speedups.push_back(resp.naive_cost / resp.cost);
    }
    return s;
}

enum class Kind { Warm, Lint, Cold };

struct Reply
{
    Kind kind = Kind::Warm;
    double ms = 0;
    double queue_ms = 0, cache_ms = 0, validate_ms = 0;
    bool answered = false;  ///< ok or degraded
};

/** Three closed-loop clients, each sending `blocks` blocks of 20
 *  requests to `socket`; every reply is checked. Cold requests take
 *  sizes from position `*cold_next` of the seeded size list on, and
 *  advance it. */
std::vector<Reply>
drive(const std::string& socket, const Seeded& s, uint64_t seed,
      size_t blocks, size_t* cold_next, Result& r, double* wall_s)
{
    const std::vector<LibKernel>& lib = library();
    std::vector<std::string> lintable;
    for (const LibKernel& k : lib) {
        if (k.family != "unsharp")  // not a daemon kernel name
            lintable.push_back(k.name);
    }
    // Cold sizes: a seeded permutation of n in [2048, 3072), shared so
    // no two cold requests repeat a key. A narrow range keeps every
    // cold search about equally long (its time grows with n).
    std::vector<int64_t> cold_n(1024);
    for (size_t i = 0; i < cold_n.size(); i++)
        cold_n[i] = 2048 + static_cast<int64_t>(i);
    XorShiftRng perm_rng(seed * 7919 + 1);
    for (size_t i = cold_n.size(); i > 1; i--)
        std::swap(cold_n[i - 1],
                  cold_n[perm_rng.below(static_cast<int64_t>(i))]);
    std::atomic<size_t> next_cold{*cold_next};

    std::mutex mu;
    std::vector<Reply> replies;
    double t0 = now_s();
    std::vector<std::thread> clients;
    for (int ci = 0; ci < kClients; ci++) {
        clients.emplace_back([&, ci] {
            XorShiftRng rng(seed * 1000003ull + static_cast<uint64_t>(ci));
            ServeClient client(socket, 120.0);
            size_t warm_i = rng.below(kNumWarm);
            std::vector<Kind> block;
            for (size_t sent = 0; sent < blocks * 20; sent++) {
                if (block.empty()) {
                    block.assign(14, Kind::Warm);
                    block.insert(block.end(), 4, Kind::Lint);
                    block.insert(block.end(), 2, Kind::Cold);
                    for (size_t i = block.size(); i > 1; i--)
                        std::swap(block[i - 1],
                                  block[rng.below(static_cast<int64_t>(i))]);
                }
                Reply rep;
                rep.kind = block.back();
                block.pop_back();
                ServeRequest q;
                size_t key = 0;
                if (rep.kind == Kind::Warm) {
                    key = warm_i++ % kNumWarm;
                    q = tune_request(kWarm[key][0], kWarm[key][1]);
                } else if (rep.kind == Kind::Lint) {
                    q.op = "lint";
                    q.kernel = lintable[rng.below(
                        static_cast<int64_t>(lintable.size()))];
                } else {
                    size_t j = next_cold++ % cold_n.size();
                    q = tune_request(j % 2 ? "sdot" : "saxpy",
                                     "n=" + std::to_string(cold_n[j]));
                }
                double a = now_s();
                ServeResponse resp = client.call_with_retry(q, 20);
                rep.ms = (now_s() - a) * 1e3;
                rep.answered = resp.ok() || resp.degraded();
                rep.queue_ms = num(resp.extra, "phase_queue_ms");
                rep.cache_ms = num(resp.extra, "phase_cache_ms");
                rep.validate_ms = num(resp.extra, "phase_validate_ms");
                std::string bad;
                if (!resp.ok())
                    bad = resp.status + ": " + resp.detail;
                else if (rep.kind == Kind::Warm &&
                         (!resp.from_cache || resp.script != s.scripts[key]))
                    bad = "warm tune not served from the cache as seeded";
                else if (rep.kind == Kind::Cold &&
                         (resp.from_cache || !resp.validated))
                    bad = "cold tune not searched and validated";
                std::lock_guard<std::mutex> lk(mu);
                r.attempted++;
                if (!bad.empty())
                    r.fail(q.op + " " + q.kernel + " " + q.sizes + ": " + bad);
                replies.push_back(rep);
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    *wall_s = now_s() - t0;
    *cold_next = next_cold;
    return replies;
}

std::vector<double>
latencies(const std::vector<Reply>& rs, Kind kind)
{
    std::vector<double> out;
    for (const Reply& rep : rs) {
        if (rep.kind == kind)
            out.push_back(rep.ms);
    }
    return out;
}

/** Daemon RSS sampled against completed requests while `running`. */
struct RssSampler
{
    std::vector<std::pair<double, double>> points;  ///< (requests, MB)
    std::atomic<bool> running{true};
    std::thread th;

    RssSampler(pid_t pid, const std::string& socket)
        : th([this, pid, socket] {
              while (running.load()) {
                  try {
                      // "completed" counts these stats calls too.
                      double done = num(daemon_extras(socket, "stats"),
                                        "completed") -
                                    static_cast<double>(points.size());
                      points.emplace_back(done, rss_mb(pid));
                  } catch (const std::exception&) {
                      // A missed sample only thins the regression.
                  }
                  usleep(250 * 1000);
              }
          })
    {
    }
    ~RssSampler()
    {
        running = false;
        if (th.joinable())
            th.join();
    }
    RssSampler(const RssSampler&) = delete;
    RssSampler& operator=(const RssSampler&) = delete;

    /** Least-squares MB per 1000 requests over the samples after the
     *  first quarter (warm-up). */
    double slope_per_1k()
    {
        running = false;
        th.join();
        size_t from = points.size() / 4;
        double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
        for (size_t i = from; i < points.size(); i++) {
            auto [x, y] = points[i];
            n++;
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        double den = n * sxx - sx * sx;
        return den == 0 ? 0 : (n * sxy - sx * sy) / den * 1000.0;
    }
};

}  // namespace

void
run_serve_mix(const Options& o, Result& r)
{
    std::vector<double> parse_ms;
    std::vector<Seeded> gens;
    r.set("setup_s", median_setup_s(3, [&] {
              load_library(&parse_ms);
              gens.push_back(start_seeded(o.work_dir + "/g" +
                                          std::to_string(gens.size())));
          }),
          "s");
    r.set("frontend.parse_ms", median(parse_ms), "ms");
    for (size_t g = 0; g + 1 < gens.size(); g++)
        stop_daemon(gens[g].daemon);
    Seeded& s = gens.back();
    r.set("code_speedup", geomean(s.speedups), "x");

    auto stats0 = daemon_extras(s.daemon.socket, "stats");
    // Each client sends ~0.7 blocks per second of run time on the
    // reference machine; the count is fixed so every run does the same
    // work.
    auto blocks = [](double seconds) {
        return static_cast<size_t>(std::max(1.0, std::round(seconds * 0.7)));
    };
    double wall = 0;
    size_t cold_next = 0;
    std::vector<Reply> replies;
    double rss_slope = 0;
    {
        RssSampler sampler(s.daemon.pid, s.daemon.socket);
        replies = drive(s.daemon.socket, s, o.seed,
                        blocks(o.trace ? o.seconds / 2 : o.seconds),
                        &cold_next, r, &wall);
        rss_slope = sampler.slope_per_1k();
    }
    auto stats1 = daemon_extras(s.daemon.socket, "stats");
    std::string metrics = daemon_extras(s.daemon.socket, "metrics")["metrics"];
    r.set("peak_rss_mb", stop_daemon(s.daemon), "MB");

    double answered = 0, sum_warm = 0, q = 0, c = 0, v = 0;
    for (const Reply& rep : replies) {
        answered += rep.answered;
        if (rep.kind == Kind::Warm) {
            sum_warm += rep.ms;
            q += rep.queue_ms;
            c += rep.cache_ms;
            v += rep.validate_ms;
        }
    }
    // The op is a warm tune; throughput counts every answered request.
    report_ops(r, OpLog{latencies(replies, Kind::Warm), wall});
    r.set("ops_per_s", ratio(answered, wall), "1/s");

    // Per-layer: the reply mix, phases of warm latency, cache, daemon.
    double warm_p50 = r.metrics["op_ms_p50"].value;
    r.set("serve.cold_vs_warm",
          ratio(median(latencies(replies, Kind::Cold)), warm_p50), "ratio");
    r.set("serve.lint_vs_warm",
          ratio(median(latencies(replies, Kind::Lint)), warm_p50), "ratio");
    r.set("serve.warm_phase_queue_frac", ratio(q, sum_warm), "ratio");
    r.set("serve.warm_phase_cache_frac", ratio(c, sum_warm), "ratio");
    r.set("serve.warm_phase_validate_frac", ratio(v, sum_warm), "ratio");
    auto delta = [&](const char* key) {
        return num(stats1, key) - num(stats0, key);
    };
    r.set("serve.rejected", delta("rejected_count"), "count");
    r.set("serve.degraded", delta("degraded_count"), "count");
    r.set("cache.tune_hit_ratio",
          ratio(delta("tune_cache_hits"),
                delta("tune_cache_hits") + delta("tune_cache_misses")),
          "ratio");
    r.set("cache.stores", gauge(metrics, "cache.tune_stores"), "count");
    r.set("serve.rss_mb_per_1k_req", rss_slope, "MB");
    auto gauge_ratio = [&](const char* hits, const char* misses) {
        double h = gauge(metrics, hits);
        return ratio(h, h + gauge(metrics, misses));
    };
    r.set("cursor.fwd_hit_ratio",
          gauge_ratio("cursor.fwd_hits", "cursor.fwd_misses"), "ratio");
    r.set("cursor.index_hit_ratio",
          gauge_ratio("cursor.index_hits", "cursor.index_misses"), "ratio");
    r.set("cost_sim.cache_hit_ratio",
          gauge_ratio("costsim.cache_hits", "costsim.cache_misses"), "ratio");

    if (!o.trace)
        return;
    // A traced daemon on the same cache directory: the warm keys are
    // already stored, so no seeding lands in the trace, and cold
    // requests continue along the size list, so they stay cold.
    DaemonProc t = spawn_daemon(s.daemon.dir, true);
    double traced_wall = 0;
    std::vector<Reply> traced = drive(t.socket, s, o.seed,
                                      blocks(o.seconds / 2), &cold_next, r,
                                      &traced_wall);
    stop_daemon(t);
    std::string json, dropped;
    if (!util::read_file_text(t.dir + "/trace.json", &json) ||
        !util::read_file_text(t.dir + "/dropped", &dropped))
        throw std::runtime_error("the traced daemon wrote no trace");
    report_spans(r, fold_trace(json), traced_wall * 1e3);
    r.set("trace.dropped", std::strtod(dropped.c_str(), nullptr), "count");
    if (dropped != "0")
        r.fail("the daemon's tracer dropped " + dropped + " spans");
    r.set("obs.trace_overhead_frac",
          ratio(median(latencies(traced, Kind::Warm)), warm_p50) - 1,
          "ratio");
}

}  // namespace suite
}  // namespace exo2
