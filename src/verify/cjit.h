#ifndef EXO2_VERIFY_CJIT_H_
#define EXO2_VERIFY_CJIT_H_

/**
 * @file
 * In-process execution of generated C: the second oracle of the
 * tri-oracle (DESIGN.md §4), hardened for fault isolation (§7).
 *
 * A CompiledProc writes `codegen_c_unit(p)` to a temporary directory,
 * compiles it to a shared object with the system C compiler
 * (`$CC`, default `cc`), loads it with dlopen, and calls the uniform
 * `exo2_run(void**)` entry point. Buffers are marshalled from the
 * interpreter's double-backed `Buffer` into native element arrays with
 * canary-filled guard zones on both sides (marshal.h), so
 * out-of-bounds writes by miscompiled code are detected instead of
 * corrupting the test process.
 *
 * The compile step never uses `std::system`: the compiler runs under
 * `run_command` (sandbox.h) with captured stderr, a per-invocation
 * timeout (`EXO2_CJIT_TIMEOUT` seconds, default 60), full wait-status
 * decoding, and bounded retry with backoff for transient resource
 * failures. A failed compile throws FaultError carrying the compiler's
 * stderr and the generated source. Native units compile with
 * `-include` of an intrinsics header the build precompiled for the
 * compiler (`cjit_pch_header`), which skips re-parsing immintrin.h.
 *
 * Native SIMD (DESIGN.md §5): the ISA the generated C may target is
 * chosen per CompiledProc. The default comes from `EXO2_NATIVE_ISA`
 * ("scalar"/unset, "avx2", "avx512", or "auto" for cpuid detection).
 * Requests the CPU or the compiler cannot satisfy no longer throw:
 * they *degrade* down the chain (avx512 -> avx2 -> scalar), and each
 * downgrade is recorded in a queryable log (`isa_downgrades()`), so a
 * fleet of tuning workers keeps making progress on heterogeneous or
 * misconfigured hosts while the downgrades stay observable.
 *
 * Untrusted execution: `run_sandboxed` / `time_per_call_sandboxed`
 * run the loaded kernel in a forked child behind rlimits and a
 * watchdog (sandbox.h) and report crashes/hangs as structured
 * RuntimeFaults. The in-process `run` / `time_per_call` fast path
 * stays available for trusted reruns (e.g. final benchmarking of an
 * already-validated winner).
 */

#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/interp/interp.h"
#include "src/ir/errors.h"
#include "src/ir/proc.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace verify {

// VerifyError and the fault taxonomy (RuntimeFault, FaultError) live
// in src/ir/errors.h; keep the historical verify:: spellings working.
using ::exo2::FaultError;
using ::exo2::FaultKind;
using ::exo2::FaultPhase;
using ::exo2::RuntimeFault;
using ::exo2::VerifyError;

/** Instruction-set ceiling for generated native code. */
enum class NativeIsa { Scalar, Avx2, Avx512 };

/** Human-readable ISA name ("scalar" / "avx2" / "avx512"). */
const char* native_isa_name(NativeIsa isa);

/** Resolve `EXO2_NATIVE_ISA` against the running CPU: unset/"scalar"
 *  gives Scalar, "auto" the best supported ISA. An explicit
 *  "avx2"/"avx512" the CPU lacks degrades to the best supported ISA
 *  with a recorded downgrade (it used to throw). Unrecognized values
 *  still throw VerifyError. */
NativeIsa cjit_env_isa();

/** Whether the running CPU can execute code for `isa`. */
bool cjit_cpu_supports(NativeIsa isa);

/** The C compiler cjit runs: `$CC`, else `cc`. */
std::string cjit_cc();

/** The flags cjit compiles a unit with, in order: the base list
 *  (EXO2_CJIT_FLAGS in the root CMakeLists.txt), then the -m flags of
 *  `isa` ("-mavx2 -mfma", or "-mavx512f -mavx2 -mfma"; none for
 *  Scalar). */
std::vector<std::string> cjit_flags(NativeIsa isa);

/** The precompiled intrinsics header for the `isa` flag set, as the
 *  path to pass after `-include`; "" for Scalar, when the build made
 *  none, or when its stamp differs from cache::compiler_identity(cc)
 *  (DESIGN.md §7). Never builds one. */
std::string cjit_pch_header(NativeIsa isa, const std::string& cc);

/** The compile-cache key of the compiler invocation `argv` (compiler,
 *  flags, then `-o <so> <c>`) for the generated source `src`. An
 *  `-include` pair is left out: the precompiled header changes how
 *  long the compile takes, not the object. */
cache::CompileKey cjit_compile_key(const std::vector<std::string>& argv,
                                   const std::string& src);

/** One recorded fallback down the ISA degradation chain. */
struct IsaDowngrade
{
    std::string proc_name;
    NativeIsa requested = NativeIsa::Scalar;
    NativeIsa used = NativeIsa::Scalar;
    std::string reason;  ///< "cpuid: ..." or compiler stderr excerpt
};

/** Every downgrade recorded since process start (or the last clear),
 *  oldest first. */
std::vector<IsaDowngrade> isa_downgrades();
void clear_isa_downgrades();

/** An owned temporary directory, recursively removed on destruction
 *  (so JIT scratch files are reclaimed on success *and* on every
 *  failure path, including constructor throws). */
class TempDir
{
  public:
    TempDir() = default;
    explicit TempDir(std::string path) : path_(std::move(path)) {}
    ~TempDir() { remove(); }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    TempDir& operator=(TempDir&& other) noexcept
    {
        remove();
        path_ = std::move(other.path_);
        other.path_.clear();
        return *this;
    }

    const std::string& path() const { return path_; }

  private:
    void remove();

    std::string path_;
};

/** Result of a sandboxed calibrated timing run. */
struct TimedOutcome
{
    bool ok = false;
    double seconds_per_call = 0.0;
    RuntimeFault fault;
};

/** A procedure compiled to native code and loaded in-process. */
class CompiledProc
{
  public:
    /** Generates, compiles, and loads `p` with the environment-selected
     *  ISA (`cjit_env_isa()`). Throws FaultError (a VerifyError) when
     *  the compiler rejects the generated C even as scalar, hangs past
     *  the timeout, or the built object fails to load; the compiler's
     *  captured stderr and the source are in the message. */
    explicit CompiledProc(const ProcPtr& p);

    /** Same, with an explicit ISA ceiling. Unsupported or
     *  uncompilable native requests degrade (see isa_downgrades())
     *  instead of throwing. */
    CompiledProc(const ProcPtr& p, NativeIsa isa);

    ~CompiledProc();

    CompiledProc(const CompiledProc&) = delete;
    CompiledProc& operator=(const CompiledProc&) = delete;

    /** Execute in-process with the same argument convention as
     *  `interp_run`. Buffer contents are copied in before and back out
     *  after the call. Throws VerifyError if a guard zone was
     *  overwritten. Trusted fast path: a crashing kernel takes the
     *  process down — use run_sandboxed for untrusted candidates. */
    void run(const std::vector<RunArg>& args) const;

    /** Execute in a forked child behind rlimits and a wall-clock
     *  watchdog (sandbox.h). Outputs are marshalled back through
     *  shared memory on a clean run; crashes, hangs, and rlimit kills
     *  come back as `outcome.fault`. */
    SandboxOutcome run_sandboxed(
        const std::vector<RunArg>& args,
        const SandboxLimits& limits = SandboxLimits::defaults()) const;

    /** Benchmark hook: marshal once, call the entry point `iters`
     *  times, and return the wall-clock seconds spent in the calls
     *  (guard zones are still checked and outputs marshalled back). */
    double time_run(const std::vector<RunArg>& args, int iters) const;

    /** Calibrated measurement: time one call (which also warms the
     *  caches), derive an iteration count filling roughly
     *  `target_seconds`, clamp it to [4, max_iters], and return the
     *  measured wall-clock seconds per call. The shared helper behind
     *  every GFLOP/s benchmark; trusted in-process path. */
    double time_per_call(const std::vector<RunArg>& args,
                         double target_seconds = 0.15,
                         int max_iters = 200000) const;

    /** Sandboxed counterpart of time_per_call: the calibration call
     *  and the measured run each execute in a forked child. A fault in
     *  either comes back in the outcome instead of dying — this is
     *  what the autotuner's JIT re-rank uses on untrusted candidates.
     *  Timing excludes fork/marshalling overhead (child-side clock). */
    TimedOutcome time_per_call_sandboxed(
        const std::vector<RunArg>& args, double target_seconds = 0.15,
        int max_iters = 200000,
        const SandboxLimits& limits = SandboxLimits::defaults()) const;

    /** The generated translation unit (for diagnostics). */
    const std::string& source() const { return src_; }

    /** Whether the loaded code was generated with native SIMD
     *  intrinsics (false = portable scalar C). */
    bool is_native() const { return native_; }

    /** The ISA the unit was actually compiled for (after any
     *  degradation). */
    NativeIsa isa() const { return isa_; }

    /** Whether the loaded object came from the persistent compile
     *  cache (DESIGN.md §8) instead of a fresh compiler run. Always
     *  false when EXO2_CACHE_DIR is unset. */
    bool loaded_from_cache() const { return from_cache_; }

    /** Whether the unit's compile command carried `-include` of the
     *  precompiled intrinsics header (see cjit_pch_header). */
    bool used_pch() const { return pch_; }

  private:
    ProcPtr proc_;
    std::string src_;
    TempDir dir_;
    bool native_ = false;
    NativeIsa isa_ = NativeIsa::Scalar;
    bool from_cache_ = false;
    bool pch_ = false;
    void* handle_ = nullptr;
    void (*entry_)(void**) = nullptr;
};

}  // namespace verify
}  // namespace exo2

#endif  // EXO2_VERIFY_CJIT_H_
