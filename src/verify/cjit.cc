#include "src/verify/cjit.h"

#include <dirent.h>
#include <dlfcn.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "src/cache/cache.h"
#include "src/codegen/c_codegen.h"
#include "src/ir/errors.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/env.h"
#include "src/util/file_atomic.h"
#include "src/verify/marshal.h"

namespace exo2 {
namespace verify {

namespace {

std::string
read_file(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Marshal `args`, call `entry` `iters` times, unmarshal, and return
 *  the wall-clock seconds spent inside the calls. */
double
run_marshalled(void (*entry)(void**), const ProcPtr& proc,
               const std::vector<RunArg>& args, int iters)
{
    ArgArena arena(proc, args);
    std::vector<unsigned char> storage(arena.bytes() + 64);
    // 64-byte-align the arena base inside the heap block.
    auto addr = reinterpret_cast<uintptr_t>(storage.data());
    unsigned char* base = storage.data() + ((64 - addr % 64) % 64);
    arena.marshal_in(base);

    auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < iters; it++)
        entry(arena.argv());
    auto t1 = std::chrono::steady_clock::now();

    arena.marshal_out();
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

const char*
native_isa_name(NativeIsa isa)
{
    switch (isa) {
      case NativeIsa::Scalar: return "scalar";
      case NativeIsa::Avx2: return "avx2";
      case NativeIsa::Avx512: return "avx512";
    }
    return "?";
}

bool
cjit_cpu_supports(NativeIsa isa)
{
    if (isa == NativeIsa::Scalar)
        return true;
#if defined(__x86_64__) || defined(__i386__)
    if (isa == NativeIsa::Avx2)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

// ---------------------------------------------------------------------------
// ISA degradation chain
// ---------------------------------------------------------------------------

namespace {

std::mutex g_downgrade_mu;
std::vector<IsaDowngrade> g_downgrades;
// Every downgrade ever recorded (clear_isa_downgrades() keeps the
// count); registered at startup so op=metrics lists it at 0.
[[maybe_unused]] obs::Counter& g_registered =
    obs::counter("cjit.isa_downgrades");

void
record_downgrade(const std::string& proc_name, NativeIsa requested,
                 NativeIsa used, const std::string& reason)
{
    IsaDowngrade d;
    d.proc_name = proc_name;
    d.requested = requested;
    d.used = used;
    d.reason = reason;
    {
        std::lock_guard<std::mutex> lk(g_downgrade_mu);
        g_downgrades.push_back(d);
    }
    EXO2_COUNT("cjit.isa_downgrades");
    if (util::env_flag("EXO2_VERBOSE_DOWNGRADES", false)) {
        std::fprintf(stderr,
                     "exo2: ISA downgrade for '%s': %s -> %s (%s)\n",
                     proc_name.c_str(), native_isa_name(requested),
                     native_isa_name(used), reason.c_str());
    }
}

/** Next step down the chain: avx512 -> avx2 -> scalar. */
NativeIsa
isa_step_down(NativeIsa isa)
{
    return isa == NativeIsa::Avx512 ? NativeIsa::Avx2
                                    : NativeIsa::Scalar;
}

/** Highest ISA at or below `isa` the CPU supports, recording one
 *  downgrade entry when a fallback happens. */
NativeIsa
degrade_to_supported(const std::string& proc_name, NativeIsa isa)
{
    NativeIsa req = isa;
    while (isa != NativeIsa::Scalar && !cjit_cpu_supports(isa))
        isa = isa_step_down(isa);
    if (isa != req) {
        record_downgrade(proc_name, req, isa,
                         std::string("cpuid: CPU does not support ") +
                             native_isa_name(req));
    }
    return isa;
}

}  // namespace

std::vector<IsaDowngrade>
isa_downgrades()
{
    std::lock_guard<std::mutex> lk(g_downgrade_mu);
    return g_downgrades;
}

void
clear_isa_downgrades()
{
    std::lock_guard<std::mutex> lk(g_downgrade_mu);
    g_downgrades.clear();
}

NativeIsa
cjit_env_isa()
{
    const char* e = std::getenv("EXO2_NATIVE_ISA");
    std::string v = e ? e : "";
    for (char& c : v)
        c = static_cast<char>(tolower(static_cast<unsigned char>(c)));
    if (v.empty() || v == "scalar" || v == "off" || v == "0")
        return NativeIsa::Scalar;
    if (v == "auto" || v == "native") {
        if (cjit_cpu_supports(NativeIsa::Avx512))
            return NativeIsa::Avx512;
        if (cjit_cpu_supports(NativeIsa::Avx2))
            return NativeIsa::Avx2;
        return NativeIsa::Scalar;
    }
    if (v == "avx2" || v == "avx512") {
        NativeIsa isa =
            v == "avx2" ? NativeIsa::Avx2 : NativeIsa::Avx512;
        // An explicit request the CPU lacks degrades (recorded) rather
        // than aborting the whole run: a mis-set EXO2_NATIVE_ISA on
        // one worker of a fleet should cost performance, not service.
        return degrade_to_supported("EXO2_NATIVE_ISA", isa);
    }
    throw VerifyError("unrecognized EXO2_NATIVE_ISA value '" + v +
                      "' (expected scalar, avx2, avx512, or auto)");
}

// ---------------------------------------------------------------------------
// Compiler command
// ---------------------------------------------------------------------------

// Both come from the root CMakeLists.txt, the one place the flag list
// is written down (the precompiled headers are built with it too).
#if !defined(EXO2_CJIT_FLAGS) || !defined(EXO2_PCH_DIR)
#error "EXO2_CJIT_FLAGS and EXO2_PCH_DIR come from the root CMakeLists.txt"
#endif

std::string
cjit_cc()
{
    return util::env_string("CC", "cc");
}

std::vector<std::string>
cjit_flags(NativeIsa isa)
{
    std::vector<std::string> flags;
    std::istringstream base(EXO2_CJIT_FLAGS);
    for (std::string f; base >> f;)
        flags.push_back(f);
    if (isa == NativeIsa::Avx512)
        flags.push_back("-mavx512f");
    if (isa != NativeIsa::Scalar) {
        flags.push_back("-mavx2");
        flags.push_back("-mfma");
    }
    return flags;
}

std::string
cjit_pch_header(NativeIsa isa, const std::string& cc)
{
    if (isa == NativeIsa::Scalar)
        return "";
    std::string dir = std::string(EXO2_PCH_DIR) + "/" + native_isa_name(isa);
    std::string header = dir + "/exo2_native.h";
    std::string stamp;
    if (access((header + ".gch").c_str(), R_OK) != 0 ||
        !util::read_file_text(dir + "/exo2_native.stamp", &stamp) ||
        stamp != cache::compiler_identity(cc))
        return "";
    return header;
}

cache::CompileKey
cjit_compile_key(const std::vector<std::string>& argv, const std::string& src)
{
    cache::CompileKey key;
    key.source_digest = cache::fnv1a64(src);
    for (size_t i = 1; i + 3 < argv.size(); i++) {
        if (argv[i] == "-include") {
            i++;
            continue;
        }
        if (!key.isa_flags.empty())
            key.isa_flags += ' ';
        key.isa_flags += argv[i];
    }
    key.compiler_id = cache::compiler_identity(argv.at(0));
    return key;
}

namespace {

/** Recursively delete `path` (the compiler may leave files — or even
 *  driver temp subdirectories — beyond the ones we created). */
void
remove_tree(const std::string& path)
{
    if (DIR* d = opendir(path.c_str())) {
        while (struct dirent* ent = readdir(d)) {
            std::string name = ent->d_name;
            if (name == "." || name == "..")
                continue;
            std::string child = path + "/" + name;
            if (unlink(child.c_str()) != 0 && errno == EISDIR)
                remove_tree(child);
        }
        closedir(d);
    }
    rmdir(path.c_str());
}

double
cjit_timeout_seconds()
{
    return util::env_double("EXO2_CJIT_TIMEOUT", 60.0, 0.01, 86400.0);
}

/** Outcome of one (possibly retried) compiler run. */
struct CompileOutcome
{
    bool ok = false;
    RuntimeFault fault;   ///< when !ok
    int attempts = 0;
};

/**
 * Invoke the C compiler via run_command with a timeout, decoding the
 * wait status properly and retrying transient resource failures with
 * backoff (3 attempts: 0ms, 100ms, 400ms). Fault injection: the
 * CompileFail / CompileSlow sites replace the compiler with a failing
 * or sleeping stand-in, so the exact decode/timeout/recovery paths a
 * real broken toolchain would take are the ones exercised.
 */
CompileOutcome
compile_unit(const std::vector<std::string>& cc_argv,
             const std::string& err_path)
{
    CompileOutcome out;
    double timeout = cjit_timeout_seconds();

    std::vector<std::string> argv = cc_argv;
    if (fault_should_inject(FaultSite::CompileFail)) {
        argv = {"sh", "-c",
                "echo 'exo2: injected compiler failure' >&2; exit 1"};
    } else if (fault_should_inject(FaultSite::CompileSlow)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "sleep %g",
                      current_fault_spec().slow_seconds);
        argv = {"sh", "-c", buf};
    }

    for (int attempt = 1; attempt <= 3; attempt++) {
        out.attempts = attempt;
        SpawnResult r = run_command(argv, err_path, timeout);
        if (r.ok())
            return CompileOutcome{true, {}, attempt};

        std::string stderr_text = read_file(err_path);
        if (r.timed_out) {
            out.fault.kind = FaultKind::CompileTimeout;
            out.fault.phase = FaultPhase::Compile;
            out.fault.elapsed_seconds = r.seconds;
            out.fault.detail = "compiler exceeded the " +
                               std::to_string(timeout) +
                               "s timeout (EXO2_CJIT_TIMEOUT)" +
                               (stderr_text.empty()
                                    ? ""
                                    : "\n--- compiler output ---\n" +
                                          stderr_text);
            return out;  // a hung compiler is not retried
        }
        out.fault.kind = FaultKind::CompileError;
        out.fault.phase = FaultPhase::Compile;
        out.fault.exit_code = r.exited ? r.exit_code : 0;
        out.fault.signal_number = r.term_signal;
        out.fault.elapsed_seconds = r.seconds;
        if (!r.started) {
            out.fault.detail = "failed to spawn compiler: " + r.error;
        } else if (r.term_signal) {
            out.fault.detail =
                "compiler killed by signal " +
                std::to_string(r.term_signal) +
                (stderr_text.empty()
                     ? ""
                     : "\n--- compiler output ---\n" + stderr_text);
        } else {
            out.fault.detail =
                "compiler exited with code " +
                std::to_string(r.exit_code) +
                "\n--- compiler output ---\n" + stderr_text;
        }
        if (attempt < 3 && spawn_failure_transient(r, stderr_text)) {
            usleep(static_cast<useconds_t>(100000u << (2 * (attempt - 1))));
            continue;
        }
        return out;
    }
    return out;
}

/** Plant an injected execution fault in the generated unit: the real
 *  entry point is renamed and a wrapper that traps / divides by zero /
 *  spins is emitted in its place — a genuine miscompiled-kernel
 *  stand-in, built and loaded through the normal pipeline. */
std::string
plant_execution_fault(const std::string& unit, const char* body,
                      const char* label)
{
    std::string out;
    out += "/* exo2 fault injection: ";
    out += label;
    out += " planted at the entry point */\n";
    out += "#define exo2_run exo2_real_run\n";
    out += unit;
    out += "\n#undef exo2_run\n";
    out += "void exo2_run(void** exo2_argv) {\n";
    out += body;
    out += "    exo2_real_run(exo2_argv);\n}\n";
    return out;
}

}  // namespace

void
TempDir::remove()
{
    if (path_.empty())
        return;
    remove_tree(path_);
    path_.clear();
}

CompiledProc::CompiledProc(const ProcPtr& p)
    : CompiledProc(p, cjit_env_isa()) {}

CompiledProc::CompiledProc(const ProcPtr& p, NativeIsa isa) : proc_(p)
{
    EXO2_SPAN("cjit.build", {{"proc", p->name()}});
    // Requests the CPU cannot execute degrade down the chain (the old
    // behavior threw): compiling for a missing ISA would SIGILL on the
    // first run, so fall back and record it.
    isa = degrade_to_supported(p->name(), isa);
    int required = codegen_max_vector_bytes(p);

    char tmpl[] = "/tmp/exo2_jit_XXXXXX";
    char* dir = mkdtemp(tmpl);
    if (!dir)
        throw VerifyError("mkdtemp failed");
    // From here on the TempDir member owns cleanup: its destructor
    // runs on every exit path, including exceptions thrown below
    // (~CompiledProc never runs when the constructor throws, but
    // fully-constructed members are still destroyed).
    dir_ = TempDir(dir);

    std::string c_path = dir_.path() + "/kernel.c";
    std::string so_path = dir_.path() + "/kernel.so";
    std::string err_path = dir_.path() + "/cc.err";

    std::string cc = cjit_cc();

    // Compile, degrading down the ISA chain on failure: a native
    // (intrinsics) unit whose compile fails — unsupported -m flags,
    // an injected ISA fault, a toolchain missing immintrin.h — is
    // retried as portable scalar C before giving up.
    //
    // Persistent compile cache (DESIGN.md §8): when EXO2_CACHE_DIR is
    // set, a previously built object for the same (generated source,
    // compiler flags, compiler identity) is dlopened directly instead
    // of re-running the compiler. A cached object that fails to load
    // is quarantined and the unit rebuilt from source.
    cache::CompileCache ccache;
    bool cache_probe_ok = true;  // cleared after a cached load failure
    RuntimeFault last_fault;
    for (;;) {
        int avail = isa == NativeIsa::Avx512 ? 64
                    : isa == NativeIsa::Avx2 ? 32
                                             : 0;
        native_ = required > 0 && avail >= required;
        isa_ = native_ ? isa : NativeIsa::Scalar;

        CodegenOpts opts;
        opts.native_vector_bytes = avail;
        opts.required_vector_bytes = required;  // avoid a second walk
        {
            EXO2_SPAN("cjit.codegen",
                      {{"isa", native_isa_name(isa_)}});
            src_ = codegen_c_unit(p, opts);
        }

        // Execution-fault injection is a codegen mode: the planted
        // trap/spin rides through the real compile+load pipeline.
        if (fault_should_inject(FaultSite::Sigsegv)) {
            src_ = plant_execution_fault(
                src_,
                "    volatile int* exo2_null = 0;\n"
                "    *exo2_null = 1;\n",
                "SIGSEGV");
        } else if (fault_should_inject(FaultSite::Sigfpe)) {
            // Both operands volatile: with a constant numerator GCC
            // folds 1/x into a branchless compare (UB assumption) and
            // no idiv — and so no trap — is ever emitted.
            src_ = plant_execution_fault(
                src_,
                "    volatile int exo2_one = 1;\n"
                "    volatile int exo2_zero = 0;\n"
                "    volatile int exo2_q = exo2_one / exo2_zero;\n"
                "    (void)exo2_q;\n",
                "SIGFPE");
        } else if (fault_should_inject(FaultSite::Sigill)) {
            src_ = plant_execution_fault(src_,
                                         "    __builtin_trap();\n",
                                         "SIGILL");
        } else if (fault_should_inject(FaultSite::Hang)) {
            src_ = plant_execution_fault(
                src_,
                "    volatile int exo2_spin = 1;\n"
                "    while (exo2_spin) {}\n",
                "infinite loop");
        }

        {
            std::ofstream out(c_path);
            out << src_;
        }

        // The -m flags follow the widest register the unit uses, which
        // may be narrower than the ISA ceiling.
        NativeIsa flag_set = !native_        ? NativeIsa::Scalar
                             : required >= 64 ? NativeIsa::Avx512
                                              : NativeIsa::Avx2;
        std::vector<std::string> argv = {cc};
        for (std::string& f : cjit_flags(flag_set))
            argv.push_back(std::move(f));
        std::string pch = cjit_pch_header(flag_set, cc);
        pch_ = !pch.empty();
        if (pch_) {
            argv.push_back("-include");
            argv.push_back(pch);
        }
        argv.push_back("-o");
        argv.push_back(so_path);
        argv.push_back(c_path);

        // Everything that shapes the object is in the cache key: the
        // exact generated source (after any fault planting), the full
        // compiler flag set, and the compiler's identity.
        cache::CompileKey ckey;
        if (ccache.enabled())
            ckey = cjit_compile_key(argv, src_);

        from_cache_ = false;
        std::string load_path = so_path;
        if (ccache.enabled() && cache_probe_ok) {
            EXO2_SPAN("cjit.cache_probe");
            if (auto hit = ccache.probe(ckey)) {
                load_path = *hit;
                from_cache_ = true;
            }
        }

        if (!from_cache_) {
            bool injected_isa_fail =
                native_ && fault_should_inject(FaultSite::IsaFail);
            CompileOutcome co;
            if (injected_isa_fail) {
                co.ok = false;
                co.fault.kind = FaultKind::CompileError;
                co.fault.phase = FaultPhase::Compile;
                co.fault.exit_code = 1;
                co.fault.detail = "injected native-ISA compile failure";
            } else {
                EXO2_SPAN("cjit.compile",
                          {{"isa", native_isa_name(isa_)},
                           {"pch", pch_ ? 1 : 0}});
                co = compile_unit(argv, err_path);
            }
            if (!co.ok) {
                last_fault = co.fault;
                if (native_) {
                    // Degrade and retry as scalar rather than failing
                    // the request outright.
                    std::string reason = co.fault.detail;
                    if (reason.size() > 400)
                        reason.resize(400);
                    record_downgrade(
                        p->name(), isa, NativeIsa::Scalar,
                        std::string(fault_kind_name(co.fault.kind)) +
                            ": " + reason);
                    isa = NativeIsa::Scalar;
                    continue;
                }
                last_fault.detail +=
                    "\n--- generated source ---\n" + src_;
                throw FaultError(last_fault);
            }
            if (ccache.enabled()) {
                EXO2_SPAN("cjit.cache_store");
                ccache.store(ckey, so_path);
            }
        }

        if (fault_should_inject(FaultSite::DlopenFail)) {
            // Load the C source instead of the built object: a genuine
            // dlopen failure with a real dlerror, through the real
            // path.
            load_path = c_path;
        }
        {
            EXO2_SPAN("cjit.dlopen");
            handle_ = dlopen(load_path.c_str(), RTLD_NOW | RTLD_LOCAL);
        }
        const char* err = nullptr;
        if (handle_) {
            entry_ = reinterpret_cast<void (*)(void**)>(
                dlsym(handle_, "exo2_run"));
            if (!entry_) {
                err = "entry point exo2_run not found";
                dlclose(handle_);
                handle_ = nullptr;
            }
        } else {
            err = dlerror();  // clears the error state
        }
        if (entry_)
            break;
        if (from_cache_) {
            // Recompile-on-corruption fallback: a cached object that
            // passed its checksum but will not load (damage beyond the
            // covered bytes, an incompatible object format, or an
            // injected dlopen fault) is quarantined and the unit is
            // rebuilt from source on the next pass.
            ccache.invalidate(ckey, "load");
            cache_probe_ok = false;
            from_cache_ = false;
            continue;
        }
        RuntimeFault f;
        f.kind = FaultKind::LoadError;
        f.phase = FaultPhase::Load;
        f.detail = std::string("dlopen failed: ") +
                   (err ? err : "unknown") + " (" + load_path + ")";
        throw FaultError(f);
    }
}

CompiledProc::~CompiledProc()
{
    if (handle_)
        dlclose(handle_);
}

void
CompiledProc::run(const std::vector<RunArg>& args) const
{
    run_marshalled(entry_, proc_, args, 1);
}

SandboxOutcome
CompiledProc::run_sandboxed(const std::vector<RunArg>& args,
                            const SandboxLimits& limits) const
{
    return sandbox_call(entry_, proc_, args, 1, limits);
}

double
CompiledProc::time_run(const std::vector<RunArg>& args, int iters) const
{
    return run_marshalled(entry_, proc_, args, iters);
}

double
CompiledProc::time_per_call(const std::vector<RunArg>& args,
                            double target_seconds, int max_iters) const
{
    double once = time_run(args, 1);  // also warms the caches
    int iters =
        static_cast<int>(target_seconds / std::max(once, 1e-7));
    iters = std::max(4, std::min(iters, max_iters));
    return time_run(args, iters) / iters;
}

TimedOutcome
CompiledProc::time_per_call_sandboxed(const std::vector<RunArg>& args,
                                      double target_seconds,
                                      int max_iters,
                                      const SandboxLimits& limits) const
{
    TimedOutcome out;
    SandboxOutcome once = sandbox_call(entry_, proc_, args, 1, limits);
    if (!once.ok) {
        out.fault = once.fault;
        return out;
    }
    int iters = static_cast<int>(target_seconds /
                                 std::max(once.seconds, 1e-7));
    iters = std::max(4, std::min(iters, max_iters));
    SandboxOutcome timed =
        sandbox_call(entry_, proc_, args, iters, limits);
    if (!timed.ok) {
        out.fault = timed.fault;
        return out;
    }
    out.ok = true;
    out.seconds_per_call = timed.seconds / iters;
    return out;
}

}  // namespace verify
}  // namespace exo2
