/**
 * @file
 * Scheduling-daemon tests (DESIGN.md §8): wire protocol round-trips,
 * an in-process Daemon exercised over a real unix-domain socket —
 * ping/stats, cold and cache-hit tunes, script replay, malformed
 * requests, backpressure under a saturated bounded queue, injected
 * queue_full faults, deadline degradation, graceful drain — and the
 * crash-only story: a forked daemon killed with SIGKILL, restarted,
 * and observed self-healing from the persistent caches.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache.h"
#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/obs/metrics.h"
#include "src/serve/client.h"
#include "src/serve/daemon.h"
#include "src/serve/protocol.h"
#include "src/verify/oracle.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace serve {
namespace {

std::string
fresh_dir(const char* tag)
{
    std::string tmpl = ::testing::TempDir() + "exo2_serve_" + tag +
                       "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

/** Unique, short socket path (sun_path is ~107 bytes). */
std::string
fresh_socket(const char* tag)
{
    static std::atomic<int> n{0};
    return "/tmp/exo2t_" + std::to_string(getpid()) + "_" + tag + "_" +
           std::to_string(n++) + ".sock";
}

ServeConfig
test_config(const char* tag)
{
    ServeConfig cfg;
    cfg.socket_path = fresh_socket(tag);
    cfg.workers = 2;
    cfg.queue_capacity = 16;
    return cfg;
}

ServeRequest
tune_request(const char* kernel = "saxpy", const char* sizes = "n=256")
{
    ServeRequest req;
    req.id = "t1";
    req.op = "tune";
    req.kernel = kernel;
    req.sizes = sizes;
    req.beam = 2;
    req.rounds = 3;
    req.restarts = 0;
    req.jit_topk = 0;
    return req;
}

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        for (const char* v :
             {"EXO2_CACHE_DIR", "EXO2_FAULTS", "EXO2_SERVE_SOCKET",
              "EXO2_SERVE_WORKERS", "EXO2_SERVE_QUEUE",
              "EXO2_SERVE_DEADLINE", "EXO2_SERVE_RETRIES"})
            unsetenv(v);
        obs::reset_metrics();
        verify::clear_fault_spec();
        verify::reset_fault_injection_counts();
    }
    void TearDown() override
    {
        unsetenv("EXO2_CACHE_DIR");
        unsetenv("EXO2_FAULTS");
    }
};

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST_F(ServeTest, EscapeRoundTripsScriptsWithNewlinesAndBackslashes)
{
    std::string v = "t_unroll[0]\nt_divide[1;a\\b,c,4]\n\\final\\";
    EXPECT_EQ(unescape_value(escape_value(v)), v);
    EXPECT_EQ(escape_value(v).find('\n'), std::string::npos);

    std::map<std::string, std::string> kv = {
        {"script", v}, {"op", "tune"}, {"empty", ""}};
    EXPECT_EQ(decode_kv(encode_kv(kv)), kv);
}

TEST_F(ServeTest, RequestAndResponseSurviveTheWire)
{
    ServeRequest req;
    req.id = "abc";
    req.op = "tune";
    req.kernel = "sgemm";
    req.machine = "AVX512";
    req.sizes = "K=48,M=48,N=48";
    req.deadline_ms = 1500;
    req.beam = 3;
    req.rounds = 7;
    req.restarts = 0;
    req.jit_topk = 2;
    req.validate = 1;
    req.script = "t_unroll[0]\nt_interleave[1,4]\n";
    ServeRequest back = ServeRequest::from_wire(req.to_wire());
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.machine, req.machine);
    EXPECT_EQ(back.sizes, req.sizes);
    EXPECT_DOUBLE_EQ(back.deadline_ms, req.deadline_ms);
    EXPECT_EQ(back.restarts, 0);
    EXPECT_EQ(back.jit_topk, 2);
    EXPECT_EQ(back.script, req.script);

    ServeResponse resp;
    resp.id = "abc";
    resp.status = "degraded";
    resp.detail = "deadline";
    resp.retry_after_ms = 250;
    resp.script = req.script;
    resp.cost = 864;
    resp.naive_cost = 3072;
    resp.validated = true;
    resp.from_cache = true;
    resp.extra["digest"] = "deadbeef";
    ServeResponse rback = ServeResponse::from_wire(resp.to_wire());
    EXPECT_TRUE(rback.degraded());
    EXPECT_EQ(rback.retry_after_ms, 250);
    EXPECT_EQ(rback.script, req.script);
    EXPECT_TRUE(rback.validated);
    EXPECT_TRUE(rback.from_cache);
    EXPECT_EQ(rback.extra.at("digest"), "deadbeef");
}

TEST_F(ServeTest, UnknownWireKeysArePreservedNotFatal)
{
    // A future daemon adds a field; today's client must not choke.
    ServeResponse r = ServeResponse::from_wire(
        "id=x\nstatus=ok\nfuture_field=hello\n");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.extra.at("future_field"), "hello");
}

TEST_F(ServeTest, FramingRejectsCorruptLengthPrefix)
{
    int sv[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

    ASSERT_TRUE(write_frame(sv[0], "hello frame", 1.0));
    std::string got;
    ASSERT_TRUE(read_frame(sv[1], &got, 1.0));
    EXPECT_EQ(got, "hello frame");

    // A corrupt 4-byte prefix claiming a 2 GB payload must fail fast,
    // not allocate.
    unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(write(sv[0], huge, 4), 4);
    EXPECT_FALSE(read_frame(sv[1], &got, 1.0));
    close(sv[0]);
    close(sv[1]);
}

TEST_F(ServeTest, ConfigFromEnvValidates)
{
    setenv("EXO2_SERVE_WORKERS", "3", 1);
    setenv("EXO2_SERVE_QUEUE", "9", 1);
    setenv("EXO2_SERVE_DEADLINE", "1.5", 1);
    ServeConfig c = ServeConfig::from_env();
    EXPECT_EQ(c.workers, 3);
    EXPECT_EQ(c.queue_capacity, 9);
    EXPECT_DOUBLE_EQ(c.default_deadline_seconds, 1.5);

    setenv("EXO2_SERVE_WORKERS", "0", 1);
    EXPECT_THROW(ServeConfig::from_env(), ConfigError);
    unsetenv("EXO2_SERVE_WORKERS");
    unsetenv("EXO2_SERVE_QUEUE");
    unsetenv("EXO2_SERVE_DEADLINE");
}

// ---------------------------------------------------------------------------
// In-process daemon over a real socket
// ---------------------------------------------------------------------------

TEST_F(ServeTest, PingAndStats)
{
    ServeConfig cfg = test_config("ping");
    Daemon d(cfg);
    d.start();

    ServeClient client(cfg.socket_path);
    ServeRequest req;
    req.id = "p1";
    req.op = "ping";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.id, "p1");
    EXPECT_EQ(resp.detail, "pong");

    req.op = "stats";
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.extra.at("connections"), "1");
    EXPECT_EQ(resp.extra.at("requests"), "2");
    ASSERT_TRUE(resp.extra.count("tune_cache_hits"));
    ASSERT_TRUE(resp.extra.count("faults_fired"));

    d.stop();
    EXPECT_FALSE(d.running());
    // The socket file is reclaimed on clean shutdown.
    EXPECT_NE(access(cfg.socket_path.c_str(), F_OK), 0);
}

TEST_F(ServeTest, TuneThenCacheHitIsBitForBit)
{
    std::string dir = fresh_dir("warm");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);

    ServeConfig cfg = test_config("warm");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeResponse cold;
    ASSERT_TRUE(client.call(tune_request(), &cold));
    ASSERT_TRUE(cold.ok()) << cold.detail;
    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(cold.validated);
    EXPECT_FALSE(cold.script.empty());
    EXPECT_LT(cold.cost, cold.naive_cost);

    ServeResponse warm;
    ASSERT_TRUE(client.call(tune_request(), &warm));
    ASSERT_TRUE(warm.ok()) << warm.detail;
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.validated);
    EXPECT_EQ(warm.script, cold.script);  // bit-for-bit replay
    EXPECT_DOUBLE_EQ(warm.cost, cold.cost);

    // The winner replays through op=schedule and reports a digest.
    ServeRequest rep;
    rep.id = "r1";
    rep.op = "schedule";
    rep.kernel = "saxpy";
    rep.sizes = "n=256";
    rep.script = warm.script;
    rep.validate = 1;
    ServeResponse replayed;
    ASSERT_TRUE(client.call(rep, &replayed));
    ASSERT_TRUE(replayed.ok()) << replayed.detail;
    EXPECT_TRUE(replayed.validated);
    EXPECT_FALSE(replayed.extra["digest"].empty());
    EXPECT_DOUBLE_EQ(replayed.cost, cold.cost);

    d.stop();
}

TEST(RequestFields, SizesAreNamePositiveIntegerPairs)
{
    verify::SizeEnv env = verify::parse_sizes("K=48,M=1,N=300");
    EXPECT_EQ(env, (verify::SizeEnv{{"K", 48}, {"M", 1}, {"N", 300}}));
    EXPECT_TRUE(verify::parse_sizes("").empty());
    for (const char* bad : {"n", "=4", "n=", "n=banana", "n=4x", "n=0",
                            "n=-2", "n=4,m"}) {
        EXPECT_THROW(verify::parse_sizes(bad), ConfigError) << bad;
    }
}

TEST(RequestFields, KernelNamesIncludeTheDemoKernels)
{
    for (const char* name : {"saxpy", "sgemv_n", "sgemm", "blur", "unsharp"})
        EXPECT_EQ(kernels::resolve_kernel(name)->name(), name);
    EXPECT_THROW(kernels::resolve_kernel("no_such_kernel"), SchedulingError);
}

TEST_F(ServeTest, MalformedRequestsAnswerErrorNotDisconnect)
{
    ServeConfig cfg = test_config("err");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeRequest req;
    req.id = "e1";
    req.op = "frobnicate";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.detail.find("frobnicate"), std::string::npos);

    req = tune_request("no_such_kernel");
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");

    req = tune_request("saxpy", "n=banana");
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.detail.find("banana"), std::string::npos);

    // The connection survived all three: ping still answers.
    req = ServeRequest();
    req.id = "e4";
    req.op = "ping";
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());

    d.stop();
    EXPECT_EQ(d.stats().errors, 3u);
}

TEST_F(ServeTest, SaturatedQueueRejectsWithRetryHintNeverErrors)
{
    ServeConfig cfg = test_config("backpressure");
    cfg.workers = 1;
    cfg.queue_capacity = 1;  // 1 running + 1 queued; the rest bounce
    Daemon d(cfg);
    d.start();

    constexpr int kClients = 6;
    std::vector<ServeResponse> resps(kClients);
    std::vector<std::thread> ts;
    for (int i = 0; i < kClients; i++) {
        ts.emplace_back([&, i] {
            ServeClient client(cfg.socket_path);
            ServeRequest req = tune_request();
            req.id = "c" + std::to_string(i);
            // No cache dir: every tune is a real multi-hundred-ms
            // search, holding the single worker busy.
            ASSERT_TRUE(client.call(req, &resps[i]));
        });
    }
    for (auto& t : ts)
        t.join();

    int ok = 0, rejected = 0, other = 0;
    for (const ServeResponse& r : resps) {
        if (r.ok() || r.degraded())
            ok++;
        else if (r.rejected())
            rejected++;
        else
            other++;
    }
    // Exactly one response per request, every one a defined status,
    // backpressure engaged, and nothing failed.
    EXPECT_EQ(ok + rejected, kClients);
    EXPECT_EQ(other, 0);
    EXPECT_GE(rejected, 1);
    EXPECT_GE(ok, 1);  // whoever won admission completed
    for (const ServeResponse& r : resps) {
        if (r.rejected()) {
            EXPECT_GT(r.retry_after_ms, 0);
            EXPECT_NE(r.detail.find("queue full"), std::string::npos);
        }
    }
    d.stop();
    EXPECT_EQ(d.stats().errors, 0u);
}

TEST_F(ServeTest, InjectedQueueFullDrivesTheRealRejectionPath)
{
    ServeConfig cfg = test_config("inject");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    verify::set_fault_spec(
        verify::parse_fault_spec("seed=11,queue_full=1"));
    verify::reset_fault_injection_counts();
    ServeResponse resp;
    ASSERT_TRUE(client.call(tune_request(), &resp));
    EXPECT_TRUE(resp.rejected());
    EXPECT_GT(resp.retry_after_ms, 0);
    EXPECT_NE(resp.detail.find("injected"), std::string::npos);
    EXPECT_GE(verify::fault_injection_counts().queue_full, 1u);

    // Control ops bypass the queue: stats answers even while every
    // admission is being rejected.
    ServeRequest sreq;
    sreq.id = "s";
    sreq.op = "stats";
    ASSERT_TRUE(client.call(sreq, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_GE(std::stoull(resp.extra.at("faults_fired")), 1ull);

    // Fault cleared: the same request now succeeds — rejection is a
    // state, not a scar.
    verify::clear_fault_spec();
    ASSERT_TRUE(client.call(tune_request(), &resp));
    EXPECT_TRUE(resp.ok()) << resp.detail;

    d.stop();
}

TEST_F(ServeTest, DeadlineProducesDegradedAnswerNotError)
{
    ServeConfig cfg = test_config("deadline");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    // 1 ms against a search that needs hundreds: the ladder must
    // answer something usable and flag it.
    ServeRequest req = tune_request();
    req.deadline_ms = 1;
    req.rounds = 8;
    req.restarts = 2;
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.degraded()) << resp.status << ": " << resp.detail;
    EXPECT_NE(resp.detail.find("deadline"), std::string::npos);
    EXPECT_GT(resp.naive_cost, 0);

    // With no deadline the identical request completes ok.
    req.deadline_ms = 0;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok()) << resp.detail;

    d.stop();
    EXPECT_EQ(d.stats().errors, 0u);
}

TEST_F(ServeTest, ShutdownRequestDrainsGracefully)
{
    ServeConfig cfg = test_config("drain");
    Daemon d(cfg);
    d.start();
    ServeClient client(cfg.socket_path);

    ServeRequest req;
    req.id = "bye";
    req.op = "shutdown";
    ServeResponse resp;
    ASSERT_TRUE(client.call(req, &resp));
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ(resp.detail, "draining");

    d.join();  // drain completes on its own; no stop() needed
    EXPECT_FALSE(d.running());
    EXPECT_NE(access(cfg.socket_path.c_str(), F_OK), 0);
}

TEST_F(ServeTest, QueuedWorkFinishesDuringDrain)
{
    ServeConfig cfg = test_config("drainwork");
    cfg.workers = 1;
    Daemon d(cfg);
    d.start();

    // One slow tune in flight, then a drain: the admitted request
    // must still get its answer before the daemon exits.
    ServeResponse resp;
    std::thread t([&] {
        ServeClient client(cfg.socket_path);
        ASSERT_TRUE(client.call(tune_request(), &resp));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    d.request_stop();
    t.join();
    EXPECT_TRUE(resp.ok() || resp.degraded())
        << resp.status << ": " << resp.detail;
    d.join();
}

// ---------------------------------------------------------------------------
// Crash-only: kill -9, restart, self-heal
// ---------------------------------------------------------------------------

/** Run a daemon in a forked child (its own process, so SIGKILL is
 *  real). The child serves until killed. */
pid_t
spawn_daemon_process(const ServeConfig& cfg)
{
    pid_t pid = fork();
    if (pid == 0) {
        Daemon d(cfg);
        try {
            d.start();
        } catch (...) {
            _exit(3);
        }
        for (;;)
            pause();
        _exit(0);  // unreachable
    }
    return pid;
}

bool
wait_for_socket(const std::string& path, double seconds = 5.0)
{
    for (int i = 0; i < static_cast<int>(seconds * 100); i++) {
        ServeClient probe(path, 1.0);
        if (probe.connect())
            return true;
        usleep(10 * 1000);
    }
    return false;
}

TEST_F(ServeTest, LintHoldsTheEngineLockWhileATuneRuns)
{
    // op=lint fills the same unsynchronized analysis caches a tune
    // does. With two workers, one lints while the other tunes; an
    // unlocked lint_proc is a data race TSan reports (the CI
    // concurrency job runs this binary under TSan).
    ServeConfig cfg = test_config("lintrace");
    Daemon d(cfg);
    d.start();

    std::atomic<bool> tuned{false};
    ServeResponse tresp;
    std::thread tuner([&] {
        ServeClient client(cfg.socket_path);
        ServeRequest req = tune_request();
        req.validate = 0;
        EXPECT_TRUE(client.call(req, &tresp));
        tuned.store(true);
    });

    ServeClient linter(cfg.socket_path);
    const char* kKernels[] = {"saxpy", "sdot", "drot", "sgemv_n"};
    int lints = 0;
    while (!tuned.load() || lints < 4) {
        ServeRequest req;
        req.id = "l" + std::to_string(lints);
        req.op = "lint";
        req.kernel = kKernels[lints % 4];
        ServeResponse resp;
        bool answered = linter.call(req, &resp);
        EXPECT_TRUE(answered);
        EXPECT_TRUE(resp.ok()) << resp.detail;
        lints++;
        if (!answered)
            break;
    }
    tuner.join();
    EXPECT_TRUE(tresp.ok()) << tresp.detail;
    d.stop();
}

TEST_F(ServeTest, Kill9RestartSelfHeals)
{
    std::string dir = fresh_dir("kill9");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);
    ServeConfig cfg = test_config("kill9");

    // Generation 1: populate the persistent caches.
    pid_t gen1 = spawn_daemon_process(cfg);
    ASSERT_GT(gen1, 0);
    ASSERT_TRUE(wait_for_socket(cfg.socket_path));

    ServeResponse cold;
    {
        ServeClient client(cfg.socket_path);
        ASSERT_TRUE(client.call(tune_request(), &cold));
        ASSERT_TRUE(cold.ok()) << cold.detail;
        ASSERT_FALSE(cold.script.empty());
    }

    // Kill -9 with a request in flight — the worst instant.
    std::thread inflight([&] {
        ServeClient client(cfg.socket_path);
        ServeRequest req = tune_request("sdot", "n=512");
        req.rounds = 8;
        req.restarts = 2;
        ServeResponse r;
        client.call(req, &r);  // transport failure expected
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    kill(gen1, SIGKILL);
    int st = 0;
    waitpid(gen1, &st, 0);
    ASSERT_TRUE(WIFSIGNALED(st));
    inflight.join();

    // Plant an orphan temp file as a stand-in for a write the kill
    // interrupted (deterministic evidence for the sweep).
    std::ofstream(dir + "/tune/zz.tune.tmp.999999999.1") << "orphan";

    // Generation 2: same socket path (stale file reclaimed), same
    // cache dir (swept + revalidated).
    pid_t gen2 = spawn_daemon_process(cfg);
    ASSERT_GT(gen2, 0);
    ASSERT_TRUE(wait_for_socket(cfg.socket_path));

    ServeClient client(cfg.socket_path);
    ServeResponse warm = client.call_with_retry(tune_request());
    ASSERT_TRUE(warm.ok()) << warm.status << ": " << warm.detail;
    EXPECT_TRUE(warm.from_cache);  // gen-1's winner survived the crash
    EXPECT_EQ(warm.script, cold.script);

    ServeRequest sreq;
    sreq.id = "s";
    sreq.op = "stats";
    ServeResponse stats;
    ASSERT_TRUE(client.call(sreq, &stats));
    EXPECT_GE(std::stoull(stats.extra.at("tmp_swept")), 1ull);
    EXPECT_GE(std::stoull(stats.extra.at("tune_cache_hits")), 1ull);

    kill(gen2, SIGKILL);
    waitpid(gen2, &st, 0);
    unlink(cfg.socket_path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace exo2
