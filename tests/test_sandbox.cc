/**
 * @file
 * Fault-isolation subsystem tests (DESIGN.md §7).
 *
 * Four layers:
 *  1. The hardened subprocess runner: full wait-status decoding (exit
 *     codes, termination signals, wall-clock timeouts) and captured
 *     output.
 *  2. The deterministic fault injector: spec parsing round-trips and
 *     every injected fault class surfacing as a structured
 *     RuntimeFault — compiler failures and hangs, dlopen failures,
 *     crashing (SIGSEGV/SIGFPE) and hanging kernels — with the driver
 *     process alive at the end, plus the ISA degradation chain.
 *  3. The sandboxed execution path itself: outputs marshalled back
 *     through shared memory on clean runs, faults isolated on dirty
 *     ones.
 *  4. The consumers: tri-oracle, fuzzer, and autotuner each complete
 *     under injection with faults recorded, never by dying.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/frontend/parser.h"
#include "src/kernels/blas.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"
#include "src/tune/tune.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace {

using verify::CompiledProc;
using verify::FaultSpec;
using verify::fuzz_repro_string;
using verify::fuzz_schedule;
using verify::FuzzResult;
using verify::NativeIsa;
using verify::run_command;
using verify::SandboxLimits;
using verify::SandboxOutcome;
using verify::SpawnResult;
using verify::tri_oracle_check;

/** y[i] = x[i] + x[i]: one output buffer, easy to check bit-exactly. */
ProcPtr
double_proc()
{
    return parse_proc(R"(
def dbl(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i] + x[i]
)");
}

/** Every test leaves the process with injection off, a re-armed (and
 *  absent) environment spec, and clean counters, whatever it did. */
class SandboxTest : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        unsetenv("EXO2_FAULTS");
        unsetenv("EXO2_CJIT_TIMEOUT");
        unsetenv("EXO2_SANDBOX_WALL");
        unsetenv("EXO2_VERBOSE_DOWNGRADES");
        verify::clear_fault_spec();
        verify::clear_isa_downgrades();
        verify::reset_fault_injection_counts();
    }
};

// ---- 1. Hardened subprocess runner --------------------------------------

TEST_F(SandboxTest, RunCommandDecodesExitCodeAndCapturesOutput)
{
    std::string out_path = ::testing::TempDir() + "exo2_spawn_exit.txt";
    SpawnResult r = run_command(
        {"sh", "-c", "echo boom-on-stderr >&2; exit 7"}, out_path, 10);
    EXPECT_TRUE(r.started);
    EXPECT_TRUE(r.exited);
    EXPECT_EQ(r.exit_code, 7);
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.ok());
    std::ifstream in(out_path);
    std::string captured((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    EXPECT_NE(captured.find("boom-on-stderr"), std::string::npos);
    std::remove(out_path.c_str());
}

TEST_F(SandboxTest, RunCommandDecodesTerminationSignal)
{
    std::string out_path = ::testing::TempDir() + "exo2_spawn_sig.txt";
    SpawnResult r =
        run_command({"sh", "-c", "kill -SEGV $$"}, out_path, 10);
    EXPECT_TRUE(r.started);
    EXPECT_FALSE(r.exited);
    EXPECT_EQ(r.term_signal, SIGSEGV);
    EXPECT_FALSE(r.ok());
    std::remove(out_path.c_str());
}

TEST_F(SandboxTest, RunCommandEnforcesTimeout)
{
    std::string out_path = ::testing::TempDir() + "exo2_spawn_hang.txt";
    SpawnResult r = run_command({"sleep", "30"}, out_path, 0.3);
    EXPECT_TRUE(r.started);
    EXPECT_TRUE(r.timed_out);
    EXPECT_FALSE(r.ok());
    EXPECT_LT(r.seconds, 10.0);  // killed, not waited out
    std::remove(out_path.c_str());
}

TEST_F(SandboxTest, RunCommandReportsUnspawnableBinary)
{
    std::string out_path = ::testing::TempDir() + "exo2_spawn_none.txt";
    SpawnResult r = run_command(
        {"exo2-definitely-not-a-real-binary"}, out_path, 10);
    // POSIX allows either a spawn-level ENOENT or a 127 exit from the
    // intermediate shell-style resolution; both must read as failure.
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(!r.started || (r.exited && r.exit_code == 127))
        << r.error;
    std::remove(out_path.c_str());
}

// ---- 2. Fault-injection spec --------------------------------------------

TEST_F(SandboxTest, FaultSpecParsesAndRoundTrips)
{
    FaultSpec s = verify::parse_fault_spec(
        "seed=42,compile_fail=0.3,sigsegv=0.2,hang=0.1,slow_seconds=5");
    EXPECT_EQ(s.seed, 42u);
    EXPECT_DOUBLE_EQ(s.compile_fail, 0.3);
    EXPECT_DOUBLE_EQ(s.sigsegv, 0.2);
    EXPECT_DOUBLE_EQ(s.hang, 0.1);
    EXPECT_DOUBLE_EQ(s.slow_seconds, 5.0);
    EXPECT_DOUBLE_EQ(s.compile_slow, 0.0);
    EXPECT_TRUE(s.any());

    FaultSpec back =
        verify::parse_fault_spec(verify::fault_spec_to_string(s));
    EXPECT_EQ(back.seed, s.seed);
    EXPECT_DOUBLE_EQ(back.compile_fail, s.compile_fail);
    EXPECT_DOUBLE_EQ(back.sigsegv, s.sigsegv);
    EXPECT_DOUBLE_EQ(back.hang, s.hang);
    EXPECT_DOUBLE_EQ(back.slow_seconds, s.slow_seconds);
}

TEST_F(SandboxTest, FaultSpecRejectsMalformedInput)
{
    EXPECT_THROW(verify::parse_fault_spec("bogus_key=1"),
                 verify::VerifyError);
    EXPECT_THROW(verify::parse_fault_spec("sigsegv=1.5"),
                 verify::VerifyError);
    EXPECT_THROW(verify::parse_fault_spec("sigsegv=-0.1"),
                 verify::VerifyError);
    EXPECT_THROW(verify::parse_fault_spec("sigsegv"),
                 verify::VerifyError);
}

TEST_F(SandboxTest, EnvironmentSpecIsPickedUp)
{
    setenv("EXO2_FAULTS", "seed=9,compile_fail=0.5", 1);
    verify::clear_fault_spec();  // re-arm the lazily read env spec
    FaultSpec s = verify::current_fault_spec();
    EXPECT_EQ(s.seed, 9u);
    EXPECT_DOUBLE_EQ(s.compile_fail, 0.5);
}

// ---- 3. Each injected fault class, end to end ----------------------------

TEST_F(SandboxTest, InjectedCompileFailureThrowsStructuredFault)
{
    FaultSpec s;
    s.compile_fail = 1.0;
    verify::set_fault_spec(s);
    try {
        CompiledProc cp(double_proc());
        FAIL() << "expected FaultError";
    } catch (const verify::FaultError& e) {
        EXPECT_EQ(e.fault().kind, FaultKind::CompileError);
        EXPECT_EQ(e.fault().phase, FaultPhase::Compile);
        // The compiler's captured stderr is in the message.
        EXPECT_NE(std::string(e.what()).find("injected compiler failure"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_GE(verify::fault_injection_counts().compile_fail, 1u);
}

TEST_F(SandboxTest, InjectedSlowCompileHitsTimeout)
{
    setenv("EXO2_CJIT_TIMEOUT", "0.3", 1);
    FaultSpec s;
    s.compile_slow = 1.0;
    s.slow_seconds = 30.0;  // far past the 0.3 s timeout
    verify::set_fault_spec(s);
    try {
        CompiledProc cp(double_proc());
        FAIL() << "expected FaultError";
    } catch (const verify::FaultError& e) {
        EXPECT_EQ(e.fault().kind, FaultKind::CompileTimeout);
        EXPECT_EQ(e.fault().phase, FaultPhase::Compile);
        EXPECT_LT(e.fault().elapsed_seconds, 10.0);  // killed early
    }
    EXPECT_GE(verify::fault_injection_counts().compile_slow, 1u);
}

TEST_F(SandboxTest, InjectedDlopenFailureThrowsLoadFault)
{
    FaultSpec s;
    s.dlopen_fail = 1.0;
    verify::set_fault_spec(s);
    try {
        CompiledProc cp(double_proc());
        FAIL() << "expected FaultError";
    } catch (const verify::FaultError& e) {
        EXPECT_EQ(e.fault().kind, FaultKind::LoadError);
        EXPECT_EQ(e.fault().phase, FaultPhase::Load);
    }
    EXPECT_GE(verify::fault_injection_counts().dlopen_fail, 1u);
}

TEST_F(SandboxTest, SandboxIsolatesSigsegvThenCleanRunMarshalsBack)
{
    ProcPtr p = double_proc();

    // Build with a planted null-pointer write at the entry point.
    FaultSpec s;
    s.sigsegv = 1.0;
    verify::set_fault_spec(s);
    CompiledProc crashing(p);
    verify::clear_fault_spec();

    Buffer x(ScalarType::F32, {4}), y(ScalarType::F32, {4});
    for (int i = 0; i < 4; i++)
        x.set(i, 1.0 + i);
    std::vector<RunArg> args = {RunArg::make_size(4),
                                RunArg::make_buffer(&x),
                                RunArg::make_buffer(&y)};

    SandboxOutcome so = crashing.run_sandboxed(args);
    EXPECT_FALSE(so.ok);
    EXPECT_EQ(so.fault.kind, FaultKind::Crash);
    EXPECT_EQ(so.fault.phase, FaultPhase::Execute);
    EXPECT_EQ(so.fault.signal_number, SIGSEGV);
    // The crash in the child left the caller's buffers untouched.
    EXPECT_EQ(y.at(0), 0.0);

    // Same proc rebuilt without injection: the sandboxed run succeeds
    // and outputs written by the child come back through shared memory.
    CompiledProc clean(p);
    SandboxOutcome ok = clean.run_sandboxed(args);
    ASSERT_TRUE(ok.ok) << ok.fault.to_string();
    for (int i = 0; i < 4; i++)
        EXPECT_EQ(y.at(i), 2.0 * (1.0 + i));
    EXPECT_GE(verify::fault_injection_counts().sigsegv, 1u);
}

TEST_F(SandboxTest, SandboxIsolatesSigfpe)
{
    FaultSpec s;
    s.sigfpe = 1.0;
    verify::set_fault_spec(s);
    CompiledProc crashing(double_proc());
    verify::clear_fault_spec();

    Buffer x(ScalarType::F32, {4}), y(ScalarType::F32, {4});
    std::vector<RunArg> args = {RunArg::make_size(4),
                                RunArg::make_buffer(&x),
                                RunArg::make_buffer(&y)};
    SandboxOutcome so = crashing.run_sandboxed(args);
    EXPECT_FALSE(so.ok);
    EXPECT_EQ(so.fault.kind, FaultKind::Crash);
    EXPECT_EQ(so.fault.signal_number, SIGFPE);
}

TEST_F(SandboxTest, SandboxKillsHangingKernel)
{
    FaultSpec s;
    s.hang = 1.0;
    verify::set_fault_spec(s);
    CompiledProc spinning(double_proc());
    verify::clear_fault_spec();

    Buffer x(ScalarType::F32, {4}), y(ScalarType::F32, {4});
    std::vector<RunArg> args = {RunArg::make_size(4),
                                RunArg::make_buffer(&x),
                                RunArg::make_buffer(&y)};
    SandboxLimits limits;
    limits.wall_seconds = 0.5;
    SandboxOutcome so = spinning.run_sandboxed(args, limits);
    EXPECT_FALSE(so.ok);
    EXPECT_EQ(so.fault.kind, FaultKind::Timeout);
    EXPECT_EQ(so.fault.phase, FaultPhase::Execute);
    EXPECT_LT(so.fault.elapsed_seconds, 30.0);  // watchdog, not luck
    EXPECT_GE(verify::fault_injection_counts().hang, 1u);
}

TEST_F(SandboxTest, TimePerCallSandboxedSurvivesCrashes)
{
    FaultSpec s;
    s.sigsegv = 1.0;
    verify::set_fault_spec(s);
    CompiledProc crashing(double_proc());
    verify::clear_fault_spec();

    Buffer x(ScalarType::F32, {4}), y(ScalarType::F32, {4});
    std::vector<RunArg> args = {RunArg::make_size(4),
                                RunArg::make_buffer(&x),
                                RunArg::make_buffer(&y)};
    verify::TimedOutcome to =
        crashing.time_per_call_sandboxed(args, 0.01, 64);
    EXPECT_FALSE(to.ok);
    EXPECT_EQ(to.fault.kind, FaultKind::Crash);

    // And the clean path measures a positive per-call time.
    CompiledProc clean(double_proc());
    verify::TimedOutcome good =
        clean.time_per_call_sandboxed(args, 0.01, 64);
    ASSERT_TRUE(good.ok) << good.fault.to_string();
    EXPECT_GT(good.seconds_per_call, 0.0);
}

TEST_F(SandboxTest, InjectedIsaFailureDegradesToScalar)
{
    if (!verify::cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx2(),
        2);

    // Sanity: without injection this proc really does go native.
    {
        CompiledProc native(opt, NativeIsa::Avx2);
        ASSERT_TRUE(native.is_native());
    }

    FaultSpec s;
    s.isa_fail = 1.0;
    verify::set_fault_spec(s);
    verify::clear_isa_downgrades();
    CompiledProc cp(opt, NativeIsa::Avx2);  // degrades, must not throw
    verify::clear_fault_spec();

    EXPECT_FALSE(cp.is_native());
    EXPECT_EQ(cp.isa(), NativeIsa::Scalar);
    auto log = verify::isa_downgrades();
    ASSERT_GE(log.size(), 1u);
    EXPECT_EQ(log.back().requested, NativeIsa::Avx2);
    EXPECT_EQ(log.back().used, NativeIsa::Scalar);
    EXPECT_FALSE(log.back().reason.empty());
    EXPECT_GE(verify::fault_injection_counts().isa_fail, 1u);

    // The degraded scalar build still computes the right answer.
    auto rep = tri_oracle_check(k.proc, opt, {{"n", 19}}, 77);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

TEST_F(SandboxTest, VerboseDowngradesPrintOnlyWhenEnabled)
{
    if (!verify::cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx2(),
        2);
    FaultSpec s;
    s.isa_fail = 1.0;
    // "0" used to print too: the variable was only tested for presence.
    for (const char* v : {"0", "1"}) {
        setenv("EXO2_VERBOSE_DOWNGRADES", v, 1);
        verify::set_fault_spec(s);
        ::testing::internal::CaptureStderr();
        { CompiledProc cp(opt, NativeIsa::Avx2); }
        std::string err = ::testing::internal::GetCapturedStderr();
        verify::clear_fault_spec();
        bool printed = err.find("ISA downgrade") != std::string::npos;
        EXPECT_EQ(printed, std::string(v) == "1")
            << "EXO2_VERBOSE_DOWNGRADES=" << v << ": " << err;
    }
}

TEST_F(SandboxTest, UnsupportedEnvIsaDegradesInsteadOfThrowing)
{
    // An explicit EXO2_NATIVE_ISA the CPU lacks used to throw; it now
    // resolves to the best supported ISA with a recorded downgrade.
    if (verify::cjit_cpu_supports(NativeIsa::Avx512))
        GTEST_SKIP() << "CPU supports AVX-512; nothing to degrade";
    setenv("EXO2_NATIVE_ISA", "avx512", 1);
    verify::clear_isa_downgrades();
    NativeIsa got = NativeIsa::Scalar;
    EXPECT_NO_THROW(got = verify::cjit_env_isa());
    unsetenv("EXO2_NATIVE_ISA");
    EXPECT_NE(got, NativeIsa::Avx512);
    auto log = verify::isa_downgrades();
    ASSERT_GE(log.size(), 1u);
    EXPECT_EQ(log.back().requested, NativeIsa::Avx512);
}

// ---- 4. Consumers complete under injection ------------------------------

TEST_F(SandboxTest, TriOracleReportsFaultInsteadOfDying)
{
    FaultSpec s;
    s.sigsegv = 1.0;
    verify::set_fault_spec(s);
    ProcPtr p = double_proc();
    auto rep = tri_oracle_check(p, p, {{"n", 8}}, 7);
    EXPECT_FALSE(rep.ok);
    EXPECT_TRUE(rep.is_fault()) << rep.detail;
    EXPECT_EQ(rep.fault.kind, FaultKind::Crash);
    EXPECT_NE(rep.detail.find("fault"), std::string::npos)
        << rep.detail;
}

TEST_F(SandboxTest, FuzzerRecordsFaultsAsReprosAndKeepsGoing)
{
    FaultSpec s;
    s.seed = 77;
    s.sigsegv = 0.6;
    s.compile_fail = 0.3;
    verify::set_fault_spec(s);

    const auto& k = kernels::find_kernel("saxpy");
    int faults = 0;
    for (int i = 0; i < 6; i++) {
        uint64_t seed = 1000 * static_cast<uint64_t>(i) + 7;
        FuzzResult r =
            fuzz_schedule(k.proc, {{"n", 24}}, seed, /*max_steps=*/4);
        // Injection can fault a run but never corrupt its answer.
        ASSERT_TRUE(r.status == FuzzResult::Status::Ok ||
                    r.status == FuzzResult::Status::Fault)
            << fuzz_repro_string("saxpy", seed, r);
        if (r.status == FuzzResult::Status::Fault) {
            faults++;
            EXPECT_TRUE(r.fault.is_fault());
            // The repro is the full applied chain, ready to replay.
            EXPECT_EQ(r.minimized.size(), r.applied.size());
            std::string repro = fuzz_repro_string("saxpy", seed, r);
            EXPECT_NE(repro.find("fuzz fault"), std::string::npos)
                << repro;
        }
    }
    EXPECT_GE(faults, 1) << "spec injected nothing across 6 runs";
}

TEST_F(SandboxTest, AutotuneCompletesUnderInjection)
{
    FaultSpec s;
    s.seed = 5;
    s.sigsegv = 0.25;
    s.compile_fail = 0.1;
    verify::set_fault_spec(s);
    verify::reset_fault_injection_counts();

    tune::TuneOpts o;
    o.tune_sizes = {{"n", 512}};
    o.beam_width = 3;
    o.max_rounds = 3;
    o.jit_topk = 4;
    tune::TuneResult r = tune::autotune(
        kernels::find_kernel("saxpy").proc, machine_avx2(), o);

    // The search completed and produced a winner despite crashing and
    // uncompilable candidates along the way.
    ASSERT_TRUE(r.best != nullptr);
    EXPECT_TRUE(r.validated)
        << "no candidate survived validation (validate_rejects="
        << r.stats.validate_rejects << ")";
    bool replay_ok = proc_digest(tune::replay_script(
                         kernels::find_kernel("saxpy").proc,
                         r.script)) == proc_digest(r.best);
    EXPECT_TRUE(replay_ok);
    EXPECT_GE(verify::fault_injection_counts().total(), 1u)
        << "spec injected nothing; the test would be vacuous";
}

}  // namespace
}  // namespace exo2
