/**
 * @file
 * Scheduling-service benchmark (DESIGN.md §8): a forked exo2d-style
 * daemon, hammered by concurrent clients over its unix-domain socket,
 * measured cold (every tune a full search) and warm (every tune a
 * validated cache replay), then driven through the fault classes the
 * service is built to survive — injected cache corruption/staleness,
 * queue saturation, JIT compiler trouble — and finally kill -9 of the
 * daemon mid-run with a restart, while clients retry through the
 * outage. Results go to BENCH_serve.json.
 *
 * The acceptance bars (ROADMAP): warm-cache tuning >= 50x faster than
 * cold with bit-for-bit identical winners, and zero failed requests
 * across every phase — backpressure REJECTED (retried) and flagged
 * `degraded` answers are the only permitted non-ok outcomes.
 *
 * Usage: bench_serve [output.json]
 *        bench_serve --faults   (reduced budgets, spec from EXO2_FAULTS,
 *                                vacuity-checked; the
 *                                serve_faults.<pass> gates)
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/verify/sandbox.h"

#include "bench/bench_util.h"

namespace {

using namespace exo2;
using serve::Daemon;
using serve::ServeClient;
using serve::ServeConfig;
using serve::ServeRequest;
using serve::ServeResponse;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The representative request mix: every kernel family the tuner
 *  knows, at the tune sizes bench_autotune uses. */
struct Req
{
    const char* kernel;
    const char* sizes;
    int rounds;
};

const Req kRequests[] = {
    {"saxpy", "n=2048", 5},      {"sdot", "n=2048", 5},
    {"sgemv_n", "M=96,N=96", 5}, {"sgemm", "K=48,M=48,N=48", 6},
    {"blur", "H=32,W=256", 5},
};

ServeRequest
make_request(const Req& r, bool full_budget)
{
    ServeRequest req;
    req.op = "tune";
    req.kernel = r.kernel;
    req.sizes = r.sizes;
    if (full_budget) {
        req.beam = 4;
        req.rounds = r.rounds;
        req.restarts = 1;
        req.jit_topk = 2;
    } else {
        req.beam = 2;
        req.rounds = 2;
        req.restarts = 0;
        req.jit_topk = 0;
    }
    return req;
}

/** Fork a daemon into its own process (so SIGKILL is the real thing).
 *  The child inherits the current environment — EXO2_CACHE_DIR and
 *  EXO2_FAULTS are set by the parent before the fork. */
pid_t
spawn_daemon(const ServeConfig& cfg)
{
    pid_t pid = fork();
    if (pid == 0) {
        Daemon d(cfg);
        try {
            d.start();
        } catch (const std::exception& e) {
            std::cerr << "daemon child: " << e.what() << "\n";
            _exit(3);
        }
        for (;;)
            pause();
    }
    return pid;
}

bool
wait_for_socket(const std::string& path, double seconds = 10.0)
{
    for (int i = 0; i < static_cast<int>(seconds * 100); i++) {
        ServeClient probe(path, 1.0);
        if (probe.connect())
            return true;
        usleep(10 * 1000);
    }
    return false;
}

void
kill_daemon(pid_t pid)
{
    if (pid > 0) {
        kill(pid, SIGKILL);
        int st = 0;
        waitpid(pid, &st, 0);
    }
}

/** One measured request (cold/warm passes run these serially so the
 *  timings mean something; the phase runs use threads). */
struct Timed
{
    ServeResponse resp;
    double ms = 0;
};

Timed
timed_call(const std::string& socket, const ServeRequest& req)
{
    Timed t;
    ServeClient client(socket, 120.0);
    double t0 = now_ms();
    t.resp = client.call_with_retry(req, 20);
    t.ms = now_ms() - t0;
    return t;
}

uint64_t
stat_of(const std::string& socket, const char* key)
{
    ServeClient client(socket, 30.0);
    ServeRequest req;
    req.op = "stats";
    ServeResponse resp;
    if (!client.call(req, &resp) || !resp.extra.count(key))
        return 0;
    return std::strtoull(resp.extra.at(key).c_str(), nullptr, 10);
}

double
stat_double(const std::string& socket, const char* key)
{
    ServeClient client(socket, 30.0);
    ServeRequest req;
    req.op = "stats";
    ServeResponse resp;
    if (!client.call(req, &resp) || !resp.extra.count(key))
        return 0;
    return std::strtod(resp.extra.at(key).c_str(), nullptr);
}

/** The daemon's per-phase attribution extras of one response
 *  (DESIGN.md §10), re-emitted as a JSON object. */
std::string
phases_json(const ServeResponse& resp)
{
    static const char* kPhases[] = {"queue",  "lint", "cache",
                                    "search", "cjit", "validate"};
    std::string s = "{";
    bool first = true;
    for (const char* p : kPhases) {
        auto it = resp.extra.find(std::string("phase_") + p + "_ms");
        if (it == resp.extra.end())
            continue;
        s += std::string(first ? "" : ", ") + "\"" + p +
             "\": " + it->second;
        first = false;
    }
    return s + "}";
}

/** Tally of one multi-client phase. "Failed" means a transport-dead
 *  final answer or status=error — the outcomes the service promises
 *  never to produce for well-formed requests. */
struct PhaseResult
{
    int ok = 0;
    int degraded = 0;
    int failed = 0;
    double ms = 0;
    uint64_t faults_fired = 0;
};

/** `threads` clients, each sending every request in the mix through
 *  call_with_retry (REJECTED backpressure is retried, not failed). */
PhaseResult
hammer(const std::string& socket, int threads, bool full_budget,
       int attempts = 20)
{
    PhaseResult pr;
    std::vector<std::thread> ts;
    std::mutex mu;
    double t0 = now_ms();
    for (int t = 0; t < threads; t++) {
        ts.emplace_back([&, t] {
            ServeClient client(socket, 120.0);
            for (size_t i = 0; i < std::size(kRequests); i++) {
                ServeRequest req =
                    make_request(kRequests[i], full_budget);
                req.id = std::to_string(t) + "-" + req.kernel;
                ServeResponse resp =
                    client.call_with_retry(req, attempts);
                std::lock_guard<std::mutex> lk(mu);
                if (resp.ok())
                    pr.ok++;
                else if (resp.degraded())
                    pr.degraded++;
                else
                    pr.failed++;
            }
        });
    }
    for (auto& th : ts)
        th.join();
    pr.ms = now_ms() - t0;
    return pr;
}

std::string
fresh_cache_dir()
{
    char tmpl[] = "/tmp/exo2_bench_serve_XXXXXX";
    const char* d = mkdtemp(tmpl);
    if (!d) {
        std::cerr << "mkdtemp failed\n";
        std::exit(3);
    }
    return d;
}

std::string
fresh_socket()
{
    return "/tmp/exo2_bench_" + std::to_string(getpid()) + ".sock";
}

/** The injected-fault phases of the default run: each class gets a
 *  fresh daemon generation with EXO2_FAULTS set in its environment. */
struct FaultPhase
{
    const char* name;
    const char* spec;
};

const FaultPhase kFaultPhases[] = {
    {"cache_corrupt", "seed=101,cache_corrupt=0.5"},
    {"cache_stale", "seed=102,cache_stale=0.5"},
    {"queue_full", "seed=103,queue_full=0.3"},
    {"jit_trouble",
     "seed=104,compile_fail=0.1,dlopen_fail=0.1,sigsegv=0.05"},
};

/** --faults mode: the externally-supplied EXO2_FAULTS spec drives a
 *  multi-client hammer plus a kill -9/restart, vacuity-checked. Used
 *  by the serve_faults.<pass> gates. */
int
run_fault_mode()
{
    verify::FaultSpec spec = verify::current_fault_spec();
    if (!spec.any()) {
        std::cerr << "bench_serve --faults: EXO2_FAULTS is not set or "
                     "injects nothing; refusing to pass vacuously\n";
        return 2;
    }
    std::cerr << "bench_serve --faults: spec "
              << verify::fault_spec_to_string(spec) << "\n";

    std::string cache_dir = fresh_cache_dir();
    setenv("EXO2_CACHE_DIR", cache_dir.c_str(), 1);
    ServeConfig cfg;
    cfg.socket_path = fresh_socket();
    cfg.workers = 2;
    cfg.queue_capacity = 4;

    pid_t pid = spawn_daemon(cfg);
    if (pid <= 0 || !wait_for_socket(cfg.socket_path)) {
        std::cerr << "bench_serve --faults: daemon did not start\n";
        return 3;
    }

    PhaseResult round1 = hammer(cfg.socket_path, 4, false);
    uint64_t fired = stat_of(cfg.socket_path, "faults_fired");

    // kill -9 mid-flight, restart, retry through the outage.
    std::thread killer([&] {
        usleep(100 * 1000);
        kill_daemon(pid);
        usleep(100 * 1000);
        pid = spawn_daemon(cfg);
    });
    PhaseResult round2 = hammer(cfg.socket_path, 4, false, 30);
    killer.join();
    uint64_t fired2 = stat_of(cfg.socket_path, "faults_fired");
    kill_daemon(pid);
    unlink(cfg.socket_path.c_str());

    std::cerr << "bench_serve --faults: round1 ok=" << round1.ok
              << " degraded=" << round1.degraded
              << " failed=" << round1.failed << " (faults_fired="
              << fired << "); kill-9 round ok=" << round2.ok
              << " degraded=" << round2.degraded
              << " failed=" << round2.failed << " (faults_fired="
              << fired2 << ")\n";
    if (fired == 0) {
        std::cerr << "bench_serve --faults: no fault fired; the gate "
                     "would be vacuous — failing\n";
        return 2;
    }
    return (round1.failed == 0 && round2.failed == 0) ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool faults = argc > 1 && std::string(argv[1]) == "--faults";
    std::string out_path = "BENCH_serve.json";
    if (argc > 1 && !faults)
        out_path = argv[1];

    setenv("EXO2_NATIVE_ISA", "auto", /*overwrite=*/0);

    if (faults)
        return run_fault_mode();

    std::string cache_dir = fresh_cache_dir();
    setenv("EXO2_CACHE_DIR", cache_dir.c_str(), 1);
    unsetenv("EXO2_FAULTS");

    ServeConfig cfg;
    cfg.socket_path = fresh_socket();
    cfg.workers = 4;
    cfg.queue_capacity = 32;

    pid_t pid = spawn_daemon(cfg);
    if (pid <= 0 || !wait_for_socket(cfg.socket_path)) {
        std::cerr << "bench_serve: daemon did not start\n";
        return 3;
    }

    std::ostringstream out;
    out << "{\n  \"description\": \"scheduling-service benchmark: "
           "cold vs warm-cache tuning latency and multi-client "
           "robustness under injected faults and kill -9 (see "
           "bench/README.md)\",\n";

    // -- Cold pass: every request is a full search -----------------------
    std::cerr << "cold pass (full search, empty cache):\n";
    double cold_total = 0, warm_total = 0;
    std::vector<Timed> cold(std::size(kRequests));
    std::vector<Timed> warm(std::size(kRequests));
    out << "  \"requests\": [\n";
    for (size_t i = 0; i < std::size(kRequests); i++) {
        ServeRequest req = make_request(kRequests[i], true);
        req.id = std::string("cold-") + kRequests[i].kernel;
        cold[i] = timed_call(cfg.socket_path, req);
        cold_total += cold[i].ms;
        std::cerr << "  " << kRequests[i].kernel << ": "
                  << cold[i].resp.status << " in " << cold[i].ms
                  << " ms (cost " << cold[i].resp.cost << " vs naive "
                  << cold[i].resp.naive_cost << ")\n";
    }

    // -- Warm pass: identical requests, cache-hit replays ----------------
    std::cerr << "warm pass (same requests, populated cache):\n";
    bool bitwise_ok = true, all_ok = true;
    for (size_t i = 0; i < std::size(kRequests); i++) {
        ServeRequest req = make_request(kRequests[i], true);
        req.id = std::string("warm-") + kRequests[i].kernel;
        warm[i] = timed_call(cfg.socket_path, req);
        warm_total += warm[i].ms;
        bool bfb = warm[i].resp.from_cache &&
                   warm[i].resp.script == cold[i].resp.script;
        bitwise_ok = bitwise_ok && bfb;
        all_ok = all_ok && cold[i].resp.ok() && warm[i].resp.ok() &&
                 warm[i].resp.validated;
        std::cerr << "  " << kRequests[i].kernel << ": "
                  << warm[i].resp.status << " in " << warm[i].ms
                  << " ms, from_cache=" << warm[i].resp.from_cache
                  << ", bit_for_bit=" << bfb << "\n";
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"kernel\": \"%s\", \"sizes\": \"%s\", "
                      "\"cold_ms\": %.1f, \"warm_ms\": %.1f, "
                      "\"cost\": %.0f, \"naive_cost\": %.0f, "
                      "\"bit_for_bit\": %s,\n",
                      kRequests[i].kernel, kRequests[i].sizes,
                      cold[i].ms, warm[i].ms, cold[i].resp.cost,
                      cold[i].resp.naive_cost, bfb ? "true" : "false");
        out << buf << "     \"cold_phases_ms\": "
            << phases_json(cold[i].resp) << ",\n     \"warm_phases_ms\": "
            << phases_json(warm[i].resp) << "}"
            << (i + 1 < std::size(kRequests) ? "," : "") << "\n";
    }
    out << "  ],\n";
    double speedup = cold_total / std::max(warm_total, 1e-9);
    std::cerr.setf(std::ios::fixed);
    std::cerr.precision(1);
    std::cerr << "cold " << cold_total << " ms -> warm " << warm_total
              << " ms: " << speedup << "x\n";

    // -- Fault phases: fresh daemon generation per class -----------------
    out << "  \"fault_phases\": [\n";
    bool phases_clean = true;
    size_t n_phases = std::size(kFaultPhases);
    for (size_t i = 0; i < n_phases; i++) {
        kill_daemon(pid);
        // A fresh cache per phase so stores (the cache_corrupt /
        // cache_stale injection sites) and JIT builds actually happen;
        // against the warm cache every request would be a pure hit and
        // the phase would pass vacuously.
        std::string phase_cache = fresh_cache_dir();
        setenv("EXO2_CACHE_DIR", phase_cache.c_str(), 1);
        setenv("EXO2_FAULTS", kFaultPhases[i].spec, 1);
        pid = spawn_daemon(cfg);
        if (!wait_for_socket(cfg.socket_path)) {
            std::cerr << "bench_serve: restart failed\n";
            return 3;
        }
        PhaseResult pr = hammer(cfg.socket_path, 4, false);
        pr.faults_fired = stat_of(cfg.socket_path, "faults_fired");
        phases_clean =
            phases_clean && pr.failed == 0 && pr.faults_fired > 0;
        std::cerr << "fault phase " << kFaultPhases[i].name << ": ok="
                  << pr.ok << " degraded=" << pr.degraded
                  << " failed=" << pr.failed << " in " << pr.ms
                  << " ms (faults_fired=" << pr.faults_fired << ")\n";
        char buf[256];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"name\": \"%s\", \"spec\": \"%s\", \"ok\": %d, "
            "\"degraded\": %d, \"failed\": %d, \"faults_fired\": "
            "%llu}%s\n",
            kFaultPhases[i].name, kFaultPhases[i].spec, pr.ok,
            pr.degraded, pr.failed,
            static_cast<unsigned long long>(pr.faults_fired),
            i + 1 < n_phases ? "," : "");
        out << buf;
    }
    out << "  ],\n";
    unsetenv("EXO2_FAULTS");

    // -- Kill -9 mid-run, restart, self-heal -----------------------------
    kill_daemon(pid);
    setenv("EXO2_CACHE_DIR", cache_dir.c_str(), 1);  // back to the warm one
    pid = spawn_daemon(cfg);
    if (!wait_for_socket(cfg.socket_path)) {
        std::cerr << "bench_serve: restart failed\n";
        return 3;
    }
    pid_t doomed = pid;
    std::thread killer([&] {
        usleep(150 * 1000);
        kill_daemon(doomed);
        // Stand-in for a write the kill interrupted.
        std::ofstream(cache_dir + "/tune/zz.tune.tmp.999999999.1")
            << "orphan";
        usleep(100 * 1000);
        pid = spawn_daemon(cfg);
    });
    PhaseResult k9 = hammer(cfg.socket_path, 4, false, 30);
    killer.join();
    uint64_t swept = stat_of(cfg.socket_path, "tmp_swept");
    uint64_t cache_hits = stat_of(cfg.socket_path, "tune_cache_hits");
    std::cerr << "kill -9 phase: ok=" << k9.ok << " degraded="
              << k9.degraded << " failed=" << k9.failed << " in "
              << k9.ms << " ms (restart swept " << swept
              << " orphan temps, " << cache_hits
              << " cache hits)\n";
    bool k9_clean = k9.failed == 0 && swept >= 1;

    // Request-latency percentiles of the final daemon generation (the
    // restarted one that absorbed the kill -9 retries), from the
    // lock-free op=stats snapshot.
    uint64_t lat_count = stat_of(cfg.socket_path, "latency_count");
    double lat_p50 = stat_double(cfg.socket_path, "latency_p50_ms");
    double lat_p95 = stat_double(cfg.socket_path, "latency_p95_ms");
    double lat_p99 = stat_double(cfg.socket_path, "latency_p99_ms");

    kill_daemon(pid);
    unlink(cfg.socket_path.c_str());

    char lat[256];
    std::snprintf(lat, sizeof(lat),
                  "  \"latency_ms\": {\"count\": %llu, \"p50\": %.2f, "
                  "\"p95\": %.2f, \"p99\": %.2f},\n",
                  static_cast<unsigned long long>(lat_count), lat_p50,
                  lat_p95, lat_p99);
    out << lat;

    char tail[512];
    std::snprintf(
        tail, sizeof(tail),
        "  \"cold_total_ms\": %.1f,\n  \"warm_total_ms\": %.1f,\n"
        "  \"warm_speedup\": %.1f,\n  \"bit_for_bit_replay\": %s,\n"
        "  \"kill9\": {\"ok\": %d, \"degraded\": %d, \"failed\": %d, "
        "\"tmp_swept\": %llu},\n"
        "  \"pass\": %s\n}\n",
        cold_total, warm_total, speedup, bitwise_ok ? "true" : "false",
        k9.ok, k9.degraded, k9.failed,
        static_cast<unsigned long long>(swept),
        (speedup >= 50 && bitwise_ok && all_ok && phases_clean &&
         k9_clean)
            ? "true"
            : "false");
    out << tail;

    if (!bench::write_file_atomic(out_path, out.str())) {
        std::cerr << "failed to write " << out_path << "\n";
        return 3;
    }
    bool pass = speedup >= 50 && bitwise_ok && all_ok &&
                phases_clean && k9_clean;
    std::cerr << "wrote " << out_path << " (speedup " << speedup
              << "x, pass=" << (pass ? "true" : "false") << ")\n";
    return pass ? 0 : 1;
}
