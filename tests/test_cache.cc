/**
 * @file
 * Persistent-cache tests (DESIGN.md §8): the shared util helpers
 * (env parsing, atomic writes), the on-disk tuning and compile
 * caches — round-trips, corruption/truncation/version-skew recovery
 * with quarantine, concurrent multi-thread and multi-process
 * hammering, kill -9 crash recovery — and the cache-backed autotune
 * fast path producing bit-for-bit replayable winners.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache.h"
#include "src/ir/errors.h"
#include "src/kernels/blas.h"
#include "src/machine/machine.h"
#include "src/obs/metrics.h"
#include "src/tune/tune.h"
#include "src/util/env.h"
#include "src/util/file_atomic.h"
#include "src/verify/sandbox.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace {

std::string
fresh_dir(const char* tag)
{
    std::string tmpl = ::testing::TempDir() + "exo2_cache_" + tag +
                       "_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

std::string
read_all(const std::string& path)
{
    std::string out;
    EXPECT_TRUE(util::read_file_text(path, &out)) << path;
    return out;
}

int
count_dir_entries(const std::string& dir, const std::string& contains)
{
    int n = 0;
    std::string cmd = "ls -1 '" + dir + "' 2>/dev/null";
    FILE* p = popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    char line[512];
    while (fgets(line, sizeof(line), p)) {
        if (contains.empty() || std::string(line).find(contains) !=
                                    std::string::npos)
            n++;
    }
    pclose(p);
    return n;
}

class CacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        unsetenv("EXO2_CACHE_DIR");
        unsetenv("EXO2_FAULTS");
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
// util/env: one audited parser for every EXO2_* knob
// ---------------------------------------------------------------------------

TEST_F(CacheTest, EnvIntParsesValidatesAndFallsBack)
{
    unsetenv("EXO2_TEST_KNOB");
    EXPECT_EQ(util::env_int("EXO2_TEST_KNOB", 7, 0, 100), 7);
    setenv("EXO2_TEST_KNOB", "", 1);
    EXPECT_EQ(util::env_int("EXO2_TEST_KNOB", 7, 0, 100), 7);
    setenv("EXO2_TEST_KNOB", "42", 1);
    EXPECT_EQ(util::env_int("EXO2_TEST_KNOB", 7, 0, 100), 42);

    // Trailing junk, non-numbers, and out-of-range values all throw
    // (the old atoi sites silently mapped "2O" -> 2).
    setenv("EXO2_TEST_KNOB", "2O", 1);
    EXPECT_THROW(util::env_int("EXO2_TEST_KNOB", 7, 0, 100),
                 ConfigError);
    setenv("EXO2_TEST_KNOB", "banana", 1);
    EXPECT_THROW(util::env_int("EXO2_TEST_KNOB", 7, 0, 100),
                 ConfigError);
    setenv("EXO2_TEST_KNOB", "101", 1);
    EXPECT_THROW(util::env_int("EXO2_TEST_KNOB", 7, 0, 100),
                 ConfigError);
    // The message names the variable, the value, and the range.
    try {
        util::env_int("EXO2_TEST_KNOB", 7, 0, 100);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError& e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("EXO2_TEST_KNOB"), std::string::npos) << msg;
        EXPECT_NE(msg.find("101"), std::string::npos) << msg;
        EXPECT_NE(msg.find("100"), std::string::npos) << msg;
    }
    unsetenv("EXO2_TEST_KNOB");
}

TEST_F(CacheTest, EnvDoubleAndFlag)
{
    setenv("EXO2_TEST_KNOB", "0.25", 1);
    EXPECT_DOUBLE_EQ(util::env_double("EXO2_TEST_KNOB", 1.0, 0, 10),
                     0.25);
    setenv("EXO2_TEST_KNOB", "1e99", 1);
    EXPECT_THROW(util::env_double("EXO2_TEST_KNOB", 1.0, 0, 10),
                 ConfigError);

    for (const char* v : {"1", "on", "true", "YES"}) {
        setenv("EXO2_TEST_KNOB", v, 1);
        EXPECT_TRUE(util::env_flag("EXO2_TEST_KNOB", false)) << v;
    }
    for (const char* v : {"0", "off", "False", "no"}) {
        setenv("EXO2_TEST_KNOB", v, 1);
        EXPECT_FALSE(util::env_flag("EXO2_TEST_KNOB", true)) << v;
    }
    setenv("EXO2_TEST_KNOB", "maybe", 1);
    EXPECT_THROW(util::env_flag("EXO2_TEST_KNOB", false), ConfigError);
    unsetenv("EXO2_TEST_KNOB");
}

// ---------------------------------------------------------------------------
// util/file_atomic: the one audited atomic-write path
// ---------------------------------------------------------------------------

TEST_F(CacheTest, WriteFileAtomicPublishesAndLeavesNoTemp)
{
    std::string dir = fresh_dir("atomic");
    std::string path = dir + "/out.txt";
    EXPECT_TRUE(util::write_file_atomic(path, "hello", true));
    EXPECT_EQ(read_all(path), "hello");
    // Overwrite is atomic too: readers see old or new, never a tear.
    EXPECT_TRUE(util::write_file_atomic(path, "world", false));
    EXPECT_EQ(read_all(path), "world");
    EXPECT_EQ(count_dir_entries(dir, ".tmp."), 0);
}

TEST_F(CacheTest, SweepReclaimsDeadWritersTempsOnly)
{
    std::string dir = fresh_dir("sweep");
    // A temp from a dead writer (pid 1 is init — never ours; use a
    // huge pid that cannot exist).
    std::ofstream(dir + "/e.tune.tmp.999999999.1") << "orphan";
    // A temp owned by *this* live process must survive.
    std::string mine =
        dir + "/e.tune.tmp." + std::to_string(getpid()) + ".7";
    std::ofstream(mine) << "mine";
    int swept = util::sweep_stale_tmp_files(dir);
    EXPECT_EQ(swept, 1);
    EXPECT_EQ(count_dir_entries(dir, ".tmp."), 1);
    std::string text;
    EXPECT_TRUE(util::read_file_text(mine, &text));
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST_F(CacheTest, Fnv1aIsStableAndHexRenders)
{
    // Known FNV-1a 64 vectors (offset basis / "a").
    EXPECT_EQ(cache::fnv1a64("", 0), 14695981039346656037ull);
    EXPECT_EQ(cache::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(cache::hex64(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
    EXPECT_EQ(cache::hex64(0), "0000000000000000");

    cache::TuneKey k1{1, "AVX2", "avx2", "n=64"};
    cache::TuneKey k2 = k1;
    EXPECT_EQ(k1.hash(), k2.hash());
    k2.sizes = "n=65";
    EXPECT_NE(k1.hash(), k2.hash());
    k2 = k1;
    k2.isa = "scalar";
    EXPECT_NE(k1.hash(), k2.hash());
}

// ---------------------------------------------------------------------------
// TuneCache: round-trip, damage recovery, concurrency
// ---------------------------------------------------------------------------

cache::TuneKey
test_key(const char* sizes = "n=64")
{
    cache::TuneKey k;
    k.proc_digest = 0x1234abcd5678ef01ull;
    k.machine = "AVX2";
    k.isa = "avx2";
    k.sizes = sizes;
    return k;
}

TEST_F(CacheTest, TuneCacheRoundTrip)
{
    std::string dir = fresh_dir("tc");
    cache::TuneCache tc(dir);
    ASSERT_TRUE(tc.enabled());

    EXPECT_FALSE(tc.probe(test_key()).has_value());  // cold miss

    cache::TuneEntry e;
    e.script_text = "t_vectorize[0,1;AVX2,f32]\nt_interleave[0,4]\n";
    e.cost = 864.0;
    e.validated = true;
    ASSERT_TRUE(tc.store(test_key(), e));

    auto hit = tc.probe(test_key());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->script_text, e.script_text);
    EXPECT_DOUBLE_EQ(hit->cost, e.cost);
    EXPECT_TRUE(hit->validated);

    // Different sizes = different identity.
    EXPECT_FALSE(tc.probe(test_key("n=128")).has_value());

    cache::CacheStats s = cache::cache_stats();
    EXPECT_EQ(s.tune_hits, 1u);
    EXPECT_EQ(s.tune_stores, 1u);
    EXPECT_GE(s.tune_misses, 2u);
}

TEST_F(CacheTest, DisabledCacheIsInert)
{
    cache::TuneCache tc{std::string()};
    EXPECT_FALSE(tc.enabled());
    EXPECT_FALSE(tc.probe(test_key()).has_value());
    EXPECT_FALSE(tc.store(test_key(), cache::TuneEntry()));
}

/** Locate the single entry file of a one-entry tune cache. */
std::string
single_entry_path(const std::string& root)
{
    std::string dir = root + "/tune";
    std::string cmd = "ls -1 '" + dir + "' | grep '\\.tune$'";
    FILE* p = popen(cmd.c_str(), "r");
    char line[512] = {0};
    if (p) {
        if (!fgets(line, sizeof(line), p))
            line[0] = 0;
        pclose(p);
    }
    std::string name(line);
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r'))
        name.pop_back();
    return dir + "/" + name;
}

TEST_F(CacheTest, CorruptEntryIsQuarantinedAndMissed)
{
    std::string dir = fresh_dir("corrupt");
    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    e.validated = true;
    ASSERT_TRUE(tc.store(test_key(), e));

    // Flip a byte inside the checksummed payload. (Damage to the
    // header's key fields instead reads as a key mismatch — a plain
    // miss — which is also safe, just not this test.)
    std::string path = single_entry_path(dir);
    std::string text = read_all(path);
    text[text.size() - 2] ^= 0x5a;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    EXPECT_FALSE(tc.probe(test_key()).has_value());  // miss, not error
    EXPECT_EQ(cache::cache_stats().tune_corrupt, 1u);
    // The damaged entry is preserved for post-mortems, off the path.
    EXPECT_EQ(count_dir_entries(dir + "/tune/.bad", ""), 1);
    EXPECT_EQ(count_dir_entries(dir + "/tune", ".tune"), 0);

    // The cache heals: a fresh store serves hits again.
    ASSERT_TRUE(tc.store(test_key(), e));
    EXPECT_TRUE(tc.probe(test_key()).has_value());
}

TEST_F(CacheTest, TruncatedEntryIsQuarantinedAndMissed)
{
    std::string dir = fresh_dir("trunc");
    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\nt_unroll[1]\n";
    ASSERT_TRUE(tc.store(test_key(), e));

    std::string path = single_entry_path(dir);
    std::string text = read_all(path);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << text.substr(0, text.size() - 5);

    EXPECT_FALSE(tc.probe(test_key()).has_value());
    EXPECT_EQ(cache::cache_stats().tune_corrupt, 1u);
}

TEST_F(CacheTest, VersionSkewIsStaleNotCorrupt)
{
    std::string dir = fresh_dir("stale");
    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    ASSERT_TRUE(tc.store(test_key(), e));

    // Rewrite the header claiming an older schedule-library version:
    // exactly what a binary upgrade over an old cache dir sees.
    std::string path = single_entry_path(dir);
    std::string text = read_all(path);
    size_t at = text.find("lib=");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, text.find('\n', at) - at, "lib=0");
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;

    EXPECT_FALSE(tc.probe(test_key()).has_value());
    cache::CacheStats s = cache::cache_stats();
    EXPECT_EQ(s.tune_stale, 1u);
    EXPECT_EQ(s.tune_corrupt, 0u);
    EXPECT_EQ(count_dir_entries(dir + "/tune/.bad", "stale"), 1);
}

TEST_F(CacheTest, UnknownFutureFormatIsStaleByPrefix)
{
    std::string dir = fresh_dir("future");
    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    ASSERT_TRUE(tc.store(test_key(), e));
    std::string path = single_entry_path(dir);
    std::string text = read_all(path);
    // Same family, different version line -> stale; raw garbage ->
    // corrupt.
    std::string old = "exo2-tune-cache v0" +
                      text.substr(text.find('\n'));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << old;
    EXPECT_FALSE(tc.probe(test_key()).has_value());
    EXPECT_EQ(cache::cache_stats().tune_stale, 1u);
}

TEST_F(CacheTest, ConcurrentThreadsHammerOneCache)
{
    std::string dir = fresh_dir("threads");
    constexpr int kThreads = 8;
    constexpr int kIters = 40;
    std::vector<std::thread> ts;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; t++) {
        ts.emplace_back([&, t] {
            cache::TuneCache tc(dir);
            for (int i = 0; i < kIters; i++) {
                cache::TuneKey k =
                    test_key(("n=" + std::to_string(i % 5)).c_str());
                cache::TuneEntry e;
                e.script_text = "t_unroll[" + std::to_string(i % 5) +
                                "]\n";
                e.cost = i;
                if (!tc.store(k, e))
                    failures++;
                auto hit = tc.probe(k);
                // A concurrent writer may have replaced the entry,
                // but a probe must never see a torn/corrupt one.
                if (hit &&
                    hit->script_text.rfind("t_unroll[", 0) != 0)
                    failures++;
            }
        });
    }
    for (auto& th : ts)
        th.join();
    EXPECT_EQ(failures.load(), 0);
    cache::CacheStats s = cache::cache_stats();
    EXPECT_EQ(s.tune_corrupt, 0u);
    EXPECT_EQ(s.tune_store_failures, 0u);
}

TEST_F(CacheTest, ConcurrentProcessesAndKill9SelfHeal)
{
    std::string dir = fresh_dir("procs");

    // Two hammering children, one of which is SIGKILLed mid-write
    // storm — the crash-only claim is that this can only orphan temp
    // files, never poison the cache.
    pid_t pids[2];
    for (int c = 0; c < 2; c++) {
        pids[c] = fork();
        ASSERT_GE(pids[c], 0);
        if (pids[c] == 0) {
            cache::TuneCache tc(dir);
            for (int i = 0;; i = (i + 1) % 1000) {
                cache::TuneKey k = test_key(
                    ("n=" + std::to_string(i % 7)).c_str());
                cache::TuneEntry e;
                e.script_text =
                    "t_unroll[" + std::to_string(i % 7) + "]\n";
                tc.store(k, e);
                tc.probe(k);
            }
            _exit(0);  // unreachable
        }
    }
    usleep(150 * 1000);  // let them fight over the lock for a while
    kill(pids[0], SIGKILL);
    kill(pids[1], SIGKILL);
    for (int c = 0; c < 2; c++) {
        int st = 0;
        waitpid(pids[c], &st, 0);
    }

    // Restart: construction sweeps orphans; every surviving entry
    // either parses clean or quarantines as a miss — no errors.
    obs::reset_metrics();
    cache::TuneCache tc(dir);
    for (int i = 0; i < 7; i++) {
        cache::TuneKey k =
            test_key(("n=" + std::to_string(i)).c_str());
        auto hit = tc.probe(k);
        if (hit)
            EXPECT_EQ(hit->script_text,
                      "t_unroll[" + std::to_string(i) + "]\n");
    }
    EXPECT_EQ(count_dir_entries(dir + "/tune", ".tmp."), 0);
    // And the cache still accepts new work.
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    EXPECT_TRUE(tc.store(test_key("n=99"), e));
    EXPECT_TRUE(tc.probe(test_key("n=99")).has_value());
}

// ---------------------------------------------------------------------------
// CompileCache
// ---------------------------------------------------------------------------

cache::CompileKey
ckey_for(const std::string& src)
{
    cache::CompileKey k;
    k.source_digest = cache::fnv1a64(src);
    k.isa_flags = "-O1 -fPIC -shared";
    k.compiler_id = "cc test 1.0";
    return k;
}

TEST_F(CacheTest, CompileCacheRoundTripAndCorruptionRecovery)
{
    std::string dir = fresh_dir("cc");
    cache::CompileCache cc(dir);
    ASSERT_TRUE(cc.enabled());

    // Any bytes work at this layer; dlopen-ability is the consumer's
    // concern (cjit quarantines load failures separately).
    std::string so = dir + "/fake.so";
    ASSERT_TRUE(util::write_file_atomic(so, "\x7f"
                                            "ELFfake-bytes"));
    cache::CompileKey k = ckey_for("int main;");
    EXPECT_FALSE(cc.probe(k).has_value());
    ASSERT_TRUE(cc.store(k, so));

    auto hit = cc.probe(k);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(read_all(*hit), "\x7f"
                              "ELFfake-bytes");

    // Damage the cached object: the checksum in the .meta sidecar
    // catches it before anyone dlopens.
    std::string text = read_all(*hit);
    text[4] ^= 0x10;
    std::ofstream(*hit, std::ios::binary | std::ios::trunc) << text;
    EXPECT_FALSE(cc.probe(k).has_value());
    EXPECT_EQ(cache::cache_stats().jit_corrupt, 1u);
    EXPECT_GE(count_dir_entries(dir + "/jit/.bad", ""), 1);

    // Store again: healed.
    ASSERT_TRUE(cc.store(k, so));
    EXPECT_TRUE(cc.probe(k).has_value());
}

TEST_F(CacheTest, CompileKeyIsTheSameWithAndWithoutThePch)
{
    // The precompiled header changes compile time, not the object, so
    // a unit built with it and one built without share a cache entry.
    std::vector<std::string> plain = {"cc"};
    for (const std::string& f : verify::cjit_flags(verify::NativeIsa::Avx2))
        plain.push_back(f);
    std::vector<std::string> with_pch = plain;
    with_pch.insert(with_pch.end(),
                    {"-include", "/pch/avx2/exo2_native.h"});
    for (auto* argv : {&plain, &with_pch})
        argv->insert(argv->end(), {"-o", "kernel.so", "kernel.c"});

    cache::CompileKey a = verify::cjit_compile_key(plain, "void f(void);");
    cache::CompileKey b = verify::cjit_compile_key(with_pch, "void f(void);");
    EXPECT_EQ(a.isa_flags, b.isa_flags);
    EXPECT_EQ(a.hash(), b.hash());
    // The flag field is spelled as before the PCH existed, so compile
    // caches written then stay warm.
    EXPECT_EQ(a.isa_flags, "-O1 -fPIC -shared -fno-builtin "
                           "-ffp-contract=off -fno-math-errno -w "
                           "-mavx2 -mfma");
}

// ---------------------------------------------------------------------------
// Fault-spec parser: new cache/service sites, unknown-key rejection
// ---------------------------------------------------------------------------

TEST_F(CacheTest, FaultSpecAcceptsCacheAndQueueSites)
{
    verify::FaultSpec s = verify::parse_fault_spec(
        "seed=7,cache_corrupt=0.5,cache_stale=0.25,queue_full=1");
    EXPECT_EQ(s.seed, 7u);
    EXPECT_DOUBLE_EQ(s.cache_corrupt, 0.5);
    EXPECT_DOUBLE_EQ(s.cache_stale, 0.25);
    EXPECT_DOUBLE_EQ(s.queue_full, 1.0);
    EXPECT_TRUE(s.any());
    // Round-trips through the canonical rendering.
    verify::FaultSpec s2 =
        verify::parse_fault_spec(verify::fault_spec_to_string(s));
    EXPECT_DOUBLE_EQ(s2.cache_corrupt, 0.5);
    EXPECT_DOUBLE_EQ(s2.queue_full, 1.0);
}

TEST_F(CacheTest, FaultSpecRejectsUnknownKeysLoudly)
{
    try {
        verify::parse_fault_spec("seed=1,cache_corupt=0.5");
        FAIL() << "expected VerifyError";
    } catch (const VerifyError& e) {
        std::string msg = e.what();
        // The error names the bad key and lists the accepted ones.
        EXPECT_NE(msg.find("cache_corupt"), std::string::npos) << msg;
        EXPECT_NE(msg.find("cache_corrupt"), std::string::npos) << msg;
    }
}

TEST_F(CacheTest, InjectedCorruptionIsDetectedOnNextProbe)
{
    std::string dir = fresh_dir("inject");
    verify::set_fault_spec(
        verify::parse_fault_spec("seed=3,cache_corrupt=1"));
    verify::reset_fault_injection_counts();

    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    ASSERT_TRUE(tc.store(test_key(), e));  // store fires the injector

    EXPECT_GE(verify::fault_injection_counts().cache_corrupt, 1u);
    // The *published file* was genuinely damaged; probe must detect,
    // quarantine, and miss.
    verify::clear_fault_spec();
    EXPECT_FALSE(tc.probe(test_key()).has_value());
    EXPECT_EQ(cache::cache_stats().tune_corrupt, 1u);
}

TEST_F(CacheTest, InjectedStaleIsDetectedOnNextProbe)
{
    std::string dir = fresh_dir("injstale");
    verify::set_fault_spec(
        verify::parse_fault_spec("seed=3,cache_stale=1"));
    verify::reset_fault_injection_counts();

    cache::TuneCache tc(dir);
    cache::TuneEntry e;
    e.script_text = "t_unroll[0]\n";
    ASSERT_TRUE(tc.store(test_key(), e));

    EXPECT_GE(verify::fault_injection_counts().cache_stale, 1u);
    verify::clear_fault_spec();
    EXPECT_FALSE(tc.probe(test_key()).has_value());
    EXPECT_EQ(cache::cache_stats().tune_stale, 1u);
}

// ---------------------------------------------------------------------------
// Script-parser tolerance (round-trip reuse)
// ---------------------------------------------------------------------------

TEST_F(CacheTest, ScriptFromStringToleratesCommentsAndWhitespace)
{
    std::vector<verify::FuzzStep> steps = verify::script_from_string(
        "# a cached winner, annotated by hand\n"
        "t_unroll[0]\r\n"
        "   t_interleave[0,4]  \n"
        "\n"
        "  # trailing note\n");
    ASSERT_EQ(steps.size(), 2u);
    EXPECT_EQ(steps[0].op, "t_unroll");
    EXPECT_EQ(steps[1].op, "t_interleave");
}

// ---------------------------------------------------------------------------
// End-to-end: cache-backed autotune is fast and bit-for-bit replayable
// ---------------------------------------------------------------------------

TEST_F(CacheTest, AutotuneWarmHitReplaysBitForBit)
{
    std::string dir = fresh_dir("e2e");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);

    const auto& k = kernels::find_kernel("saxpy");
    const Machine& m = machine_avx2();
    tune::TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 2;
    o.max_rounds = 3;
    o.random_restarts = 0;
    o.jit_topk = 0;

    tune::TuneResult cold = tune::autotune(k.proc, m, o);
    EXPECT_FALSE(cold.from_cache);
    EXPECT_TRUE(cold.validated);

    tune::TuneResult warm = tune::autotune(k.proc, m, o);
    EXPECT_TRUE(warm.from_cache);
    EXPECT_TRUE(warm.validated);
    // Bit-for-bit: same script text, same resulting proc digest.
    EXPECT_EQ(verify::script_to_string(warm.script),
              verify::script_to_string(cold.script));
    EXPECT_EQ(proc_digest(warm.best), proc_digest(cold.best));
    EXPECT_EQ(proc_digest(tune::replay_script(k.proc, warm.script)),
              proc_digest(cold.best));

    // use_cache=false bypasses both probe and store.
    cache::CacheStats before = cache::cache_stats();
    tune::TuneOpts o2 = o;
    o2.use_cache = false;
    tune::TuneResult fresh = tune::autotune(k.proc, m, o2);
    EXPECT_FALSE(fresh.from_cache);
    cache::CacheStats after = cache::cache_stats();
    EXPECT_EQ(after.tune_hits, before.tune_hits);

    unsetenv("EXO2_CACHE_DIR");
}

TEST_F(CacheTest, AutotuneQuarantinesCachedScriptThatStoppedReplaying)
{
    std::string dir = fresh_dir("drift");
    setenv("EXO2_CACHE_DIR", dir.c_str(), 1);

    const auto& k = kernels::find_kernel("sdot");
    const Machine& m = machine_avx2();
    tune::TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 2;
    o.max_rounds = 2;
    o.random_restarts = 0;
    o.jit_topk = 0;

    tune::TuneResult cold = tune::autotune(k.proc, m, o);
    ASSERT_TRUE(cold.validated);

    // Sabotage the stored entry with a script that parses but cannot
    // replay (checksum valid: this models semantic drift, the case
    // the checksum cannot catch). store() re-renders with a valid
    // checksum.
    cache::TuneCache tc(dir);
    cache::TuneKey key = tune::tune_cache_key(k.proc, m, o.tune_sizes);
    cache::TuneEntry bad;
    bad.script_text = "t_divide[99,0;zz,zz,0]\n";  // no such loop
    bad.validated = true;
    ASSERT_TRUE(tc.store(key, bad));

    // The poisoned entry must be rejected and quarantined, and the
    // search must still produce a validated winner.
    tune::TuneResult r = tune::autotune(k.proc, m, o);
    EXPECT_FALSE(r.from_cache);
    EXPECT_TRUE(r.validated);
    EXPECT_GE(count_dir_entries(dir + "/tune/.bad", "replay"), 1);

    unsetenv("EXO2_CACHE_DIR");
}

}  // namespace
}  // namespace exo2
