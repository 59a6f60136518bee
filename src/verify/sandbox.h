#ifndef EXO2_VERIFY_SANDBOX_H_
#define EXO2_VERIFY_SANDBOX_H_

/**
 * @file
 * Fault-isolated execution of untrusted generated code (DESIGN.md §7).
 *
 * Three pieces:
 *
 * 1. `run_command` — a hardened subprocess runner (posix_spawn, stderr
 *    capture to a file, per-invocation wall-clock timeout, full wait
 *    status decoding) used for every external C compiler invocation.
 *
 * 2. `sandbox_call` — crash-isolated kernel execution: the JIT'd entry
 *    point runs in a forked child under rlimits (CPU seconds, address
 *    space) and a parent-side wall-clock watchdog. Argument buffers
 *    are marshalled through a `MAP_SHARED` arena (marshal.h) so
 *    outputs written by the child survive a clean run; a SIGSEGV /
 *    SIGFPE / SIGILL / SIGBUS, a hang, or an rlimit kill comes back as
 *    a structured `RuntimeFault` instead of taking down the driver.
 *
 * 3. The deterministic fault injector — a seeded, replayable spec
 *    (`EXO2_FAULTS` or `set_fault_spec`) that makes compiles fail or
 *    hang, dlopen fail, native-ISA compiles fail (exercising the
 *    degradation chain), and generated kernels crash or spin, so tests
 *    can prove each consumer degrades instead of dying.
 *
 * Environment knobs: `EXO2_FAULTS` (spec string, see parse_fault_spec)
 * and `EXO2_SANDBOX_WALL` (watchdog seconds for
 * SandboxLimits::defaults). The tuner's JIT re-rank and the
 * tri-oracle always run candidates through `sandbox_call`.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/errors.h"
#include "src/ir/proc.h"

namespace exo2 {
namespace verify {

// ---------------------------------------------------------------------------
// Hardened subprocess runner
// ---------------------------------------------------------------------------

/** Decoded outcome of one subprocess invocation. */
struct SpawnResult
{
    bool started = false;    ///< posix_spawn itself succeeded
    bool timed_out = false;  ///< killed by the wall-clock timeout
    bool exited = false;     ///< WIFEXITED
    int exit_code = 0;       ///< WEXITSTATUS when exited
    int term_signal = 0;     ///< WTERMSIG when killed by a signal
    double seconds = 0.0;    ///< wall clock from spawn to reap
    std::string error;       ///< spawn-level failure (errno text)

    bool ok() const { return started && !timed_out && exited && exit_code == 0; }
};

/**
 * Run `argv` (argv[0] resolved via PATH) with stdout+stderr redirected
 * to `output_path`, waiting at most `timeout_seconds` (<= 0 = no
 * timeout) before SIGKILLing it. Never throws; every failure mode is
 * in the result. The raw wait status is decoded with
 * WIFEXITED/WIFSIGNALED — a compiler killed by the OOM killer reports
 * `term_signal == SIGKILL`, not a bogus exit code.
 */
SpawnResult run_command(const std::vector<std::string>& argv,
                        const std::string& output_path,
                        double timeout_seconds);

/** Whether a failed invocation looks transient (resource exhaustion:
 *  ENOMEM spawn failures, OOM kills, tmpfs-full compiler output) and
 *  is worth a bounded retry with backoff. */
bool spawn_failure_transient(const SpawnResult& r,
                             const std::string& captured_output);

// ---------------------------------------------------------------------------
// Crash-isolated kernel execution
// ---------------------------------------------------------------------------

/** Resource limits for one sandboxed kernel run. */
struct SandboxLimits
{
    /** Parent-side wall-clock watchdog; the child is SIGKILLed past
     *  this. <= 0 disables (not recommended for untrusted code). */
    double wall_seconds = 10.0;
    /** RLIMIT_CPU in the child; 0 disables. */
    uint64_t cpu_seconds = 30;
    /** RLIMIT_AS in the child; 0 disables. ASan and TSan builds never
     *  apply it: their shadow reservations already exceed any limit. */
    uint64_t address_space_bytes = 4ull << 30;

    /** Defaults with `EXO2_SANDBOX_WALL` applied (if set). */
    static SandboxLimits defaults();
};

/** Outcome of one sandboxed run: either a clean run with the child's
 *  measured kernel seconds, or a structured fault. */
struct SandboxOutcome
{
    bool ok = false;
    /** Wall-clock seconds spent inside the entry-point calls, measured
     *  by the child (excludes fork/marshalling overhead). */
    double seconds = 0.0;
    RuntimeFault fault;
};

/**
 * Marshal `args`, fork, apply rlimits in the child, call `entry`
 * `iters` times with buffers in shared memory, and reap under the
 * watchdog. On a clean exit, guard zones are checked and outputs
 * marshalled back into the caller's Buffers (guard damage throws
 * VerifyError, as the in-process path does). Faults never throw: a
 * crash/hang/rlimit kill is returned as `outcome.fault` and the
 * caller's buffers are left untouched.
 */
SandboxOutcome sandbox_call(void (*entry)(void**), const ProcPtr& proc,
                            const std::vector<RunArg>& args, int iters,
                            const SandboxLimits& limits);

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/**
 * Injection probabilities per fault class, drawn from one seeded RNG in
 * pipeline order — so a (spec, workload) pair replays the same faults
 * on every run. All probabilities default to 0 (off).
 */
struct FaultSpec
{
    uint64_t seed = 1;
    double compile_fail = 0;  ///< compiler exits 1 with stderr output
    double compile_slow = 0;  ///< compiler blocks for `slow_seconds`
    double dlopen_fail = 0;   ///< built object fails to load
    double isa_fail = 0;      ///< native-ISA compile attempt fails
    double sigsegv = 0;       ///< kernel entry dereferences NULL
    double sigfpe = 0;        ///< kernel entry divides by zero
    double sigill = 0;        ///< kernel entry executes a trap
    double hang = 0;          ///< kernel entry spins forever
    /** Structural cache-fault injection (DESIGN.md §8): a fired
     *  cache_corrupt bit-flips or truncates the just-written on-disk
     *  cache entry; a fired cache_stale rewrites its header with an
     *  outdated library version. Either way the *real* detection,
     *  quarantine, and miss-recovery paths run against real damaged
     *  files. */
    double cache_corrupt = 0;
    double cache_stale = 0;
    /** Service-fault injection: a fired queue_full makes the daemon's
     *  bounded queue report saturation for one admission, driving the
     *  real REJECTED/backpressure response path. */
    double queue_full = 0;
    /** How long an injected slow compile blocks (subject to the
     *  compile timeout, which is the point). */
    double slow_seconds = 30.0;

    bool any() const
    {
        return compile_fail > 0 || compile_slow > 0 || dlopen_fail > 0 ||
               isa_fail > 0 || sigsegv > 0 || sigfpe > 0 || sigill > 0 ||
               hang > 0 || cache_corrupt > 0 || cache_stale > 0 ||
               queue_full > 0;
    }
};

/**
 * Parse a spec string: comma-separated `key=value` pairs where key is
 * one of seed, slow_seconds, or a fault-class name (compile_fail,
 * compile_slow, dlopen_fail, isa_fail, sigsegv, sigfpe, sigill, hang,
 * cache_corrupt, cache_stale, queue_full) and value is a probability
 * in [0, 1] (seed: an integer). Example:
 * `"seed=42,compile_fail=0.3,sigsegv=0.2,hang=0.1"`. Unknown keys are
 * rejected with a VerifyError naming the key and listing the accepted
 * ones — a typo'd fault class must never silently inject nothing —
 * as are out-of-range values.
 */
FaultSpec parse_fault_spec(const std::string& text);

/** Render a spec back to its string form (round-trips parse). */
std::string fault_spec_to_string(const FaultSpec& spec);

/** Install `spec` (and reseed the injection RNG). Overrides any
 *  `EXO2_FAULTS` environment spec until clear_fault_spec(). */
void set_fault_spec(const FaultSpec& spec);

/** Remove any installed spec and re-arm the (lazily read)
 *  `EXO2_FAULTS` environment spec. */
void clear_fault_spec();

/** The active spec (all-zero when injection is off). */
FaultSpec current_fault_spec();

/** Injection sites, in pipeline order. */
enum class FaultSite {
    CompileFail,
    CompileSlow,
    DlopenFail,
    IsaFail,
    Sigsegv,
    Sigfpe,
    Sigill,
    Hang,
    CacheCorrupt,
    CacheStale,
    QueueFull,
};

/** Draw the injection RNG for `site`; true = inject now. Increments
 *  the per-site fired counter when it fires. */
bool fault_should_inject(FaultSite site);

/** How many times each site fired since the last reset — lets tests
 *  and gates prove injection actually happened (no vacuous passes). */
struct FaultInjectionCounts
{
    uint64_t compile_fail = 0;
    uint64_t compile_slow = 0;
    uint64_t dlopen_fail = 0;
    uint64_t isa_fail = 0;
    uint64_t sigsegv = 0;
    uint64_t sigfpe = 0;
    uint64_t sigill = 0;
    uint64_t hang = 0;
    uint64_t cache_corrupt = 0;
    uint64_t cache_stale = 0;
    uint64_t queue_full = 0;

    uint64_t total() const
    {
        return compile_fail + compile_slow + dlopen_fail + isa_fail +
               sigsegv + sigfpe + sigill + hang + cache_corrupt +
               cache_stale + queue_full;
    }
};

FaultInjectionCounts fault_injection_counts();
void reset_fault_injection_counts();

}  // namespace verify
}  // namespace exo2

#endif  // EXO2_VERIFY_SANDBOX_H_
