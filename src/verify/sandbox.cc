#include "src/verify/sandbox.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/env.h"
#include "src/util/rng.h"
#include "src/verify/marshal.h"

extern char** environ;

namespace exo2 {
namespace verify {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wait for `pid` with a wall-clock deadline; SIGKILL past it. The
 *  sleep between polls ramps 0.2ms -> 2ms so short runs return fast
 *  and long runs don't burn CPU. */
bool
wait_deadline(pid_t pid, double timeout_seconds, int* status)
{
    Clock::time_point t0 = Clock::now();
    useconds_t nap = 200;
    for (;;) {
        pid_t r = waitpid(pid, status, WNOHANG);
        if (r == pid)
            return false;  // reaped in time
        if (r < 0 && errno != EINTR) {
            // Reap failed outright; treat as exited-unknown.
            *status = 0;
            return false;
        }
        if (timeout_seconds > 0 && since(t0) > timeout_seconds) {
            kill(pid, SIGKILL);
            while (waitpid(pid, status, 0) < 0 && errno == EINTR) {
            }
            return true;
        }
        usleep(nap);
        if (nap < 2000)
            nap *= 2;
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// run_command
// ---------------------------------------------------------------------------

SpawnResult
run_command(const std::vector<std::string>& argv,
            const std::string& output_path, double timeout_seconds)
{
    SpawnResult res;
    if (argv.empty()) {
        res.error = "empty argv";
        return res;
    }

    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string& a : argv)
        cargv.push_back(const_cast<char*>(a.c_str()));
    cargv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    if (!output_path.empty()) {
        posix_spawn_file_actions_addopen(
            &fa, 1, output_path.c_str(),
            O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
    }

    Clock::time_point t0 = Clock::now();
    pid_t pid = -1;
    int rc = posix_spawnp(&pid, cargv[0], &fa, nullptr, cargv.data(),
                          environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        res.error = std::string(cargv[0]) + ": " + std::strerror(rc);
        return res;
    }
    res.started = true;

    int status = 0;
    res.timed_out = wait_deadline(pid, timeout_seconds, &status);
    res.seconds = since(t0);
    if (WIFEXITED(status)) {
        res.exited = true;
        res.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        res.term_signal = WTERMSIG(status);
    }
    return res;
}

bool
spawn_failure_transient(const SpawnResult& r,
                        const std::string& captured_output)
{
    if (!r.started) {
        return r.error.find("Cannot allocate memory") !=
                   std::string::npos ||
               r.error.find("Resource temporarily unavailable") !=
                   std::string::npos;
    }
    if (r.timed_out)
        return false;  // a hung compiler is not transient
    // The OOM killer delivers SIGKILL; a compiler crash (SIGSEGV) is a
    // real bug worth surfacing, not retrying.
    if (r.term_signal == SIGKILL)
        return true;
    if (r.exited && r.exit_code != 0) {
        for (const char* marker :
             {"No space left on device", "cannot allocate memory",
              "out of memory", "Cannot allocate memory",
              "virtual memory exhausted"}) {
            if (captured_output.find(marker) != std::string::npos)
                return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// sandbox_call
// ---------------------------------------------------------------------------

SandboxLimits
SandboxLimits::defaults()
{
    SandboxLimits l;
    l.wall_seconds = util::env_double("EXO2_SANDBOX_WALL",
                                      l.wall_seconds, 0.01, 86400.0);
    return l;
}

namespace {

/** Child -> parent results, at the head of the shared mapping. */
struct SharedControl
{
    std::atomic<int> done;  ///< 1 once the child finished its calls
    double seconds;         ///< child-measured kernel wall clock
};

struct SharedMap
{
    void* base = nullptr;
    size_t len = 0;
    ~SharedMap()
    {
        if (base)
            munmap(base, len);
    }
};

}  // namespace

SandboxOutcome
sandbox_call(void (*entry)(void**), const ProcPtr& proc,
             const std::vector<RunArg>& args, int iters,
             const SandboxLimits& limits)
{
    EXO2_SPAN("sandbox.run",
              {{"proc", proc->name()}, {"iters", iters}});
    SandboxOutcome out;
    ArgArena arena(proc, args);

    constexpr size_t kCtl = 64;  // SharedControl, padded to a line
    static_assert(sizeof(SharedControl) <= kCtl, "control block grew");
    SharedMap map;
    map.len = kCtl + arena.bytes();
    map.base = mmap(nullptr, map.len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (map.base == MAP_FAILED) {
        map.base = nullptr;
        out.fault.kind = FaultKind::SandboxError;
        out.fault.phase = FaultPhase::Execute;
        out.fault.detail =
            std::string("mmap(MAP_SHARED) failed: ") +
            std::strerror(errno);
        return out;
    }
    auto* ctl = new (map.base) SharedControl();
    ctl->done.store(0);
    ctl->seconds = 0.0;
    arena.marshal_in(static_cast<unsigned char*>(map.base) + kCtl);

    Clock::time_point t0 = Clock::now();
    pid_t pid = fork();
    if (pid < 0) {
        out.fault.kind = FaultKind::SandboxError;
        out.fault.phase = FaultPhase::Execute;
        out.fault.detail =
            std::string("fork failed: ") + std::strerror(errno);
        return out;
    }
    if (pid == 0) {
        // Child. Only async-signal-safe-ish work from here: apply the
        // rlimits, run the kernel, publish the timing, _exit. Never
        // unwind C++ state shared with the parent. A crash must kill
        // the child with its own signal for the parent to classify it,
        // even if the host process (a sanitizer runtime, a crash
        // reporter) installed handlers the child inherited.
        for (int sig : {SIGSEGV, SIGFPE, SIGILL, SIGBUS})
            signal(sig, SIG_DFL);
        if (limits.cpu_seconds > 0) {
            struct rlimit rl;
            rl.rlim_cur = static_cast<rlim_t>(limits.cpu_seconds);
            rl.rlim_max = static_cast<rlim_t>(limits.cpu_seconds) + 1;
            setrlimit(RLIMIT_CPU, &rl);
        }
        if (limits.address_space_bytes > 0) {
            struct rlimit rl;
            rl.rlim_cur =
                static_cast<rlim_t>(limits.address_space_bytes);
            rl.rlim_max =
                static_cast<rlim_t>(limits.address_space_bytes);
            setrlimit(RLIMIT_AS, &rl);
        }
        Clock::time_point c0 = Clock::now();
        for (int it = 0; it < iters; it++)
            entry(arena.argv());
        ctl->seconds = since(c0);
        ctl->done.store(1);
        _exit(0);
    }

    int status = 0;
    bool timed_out = wait_deadline(pid, limits.wall_seconds, &status);
    double elapsed = since(t0);

    if (timed_out) {
        out.fault.kind = FaultKind::Timeout;
        out.fault.phase = FaultPhase::Execute;
        out.fault.elapsed_seconds = elapsed;
        out.fault.detail =
            "kernel exceeded the " +
            std::to_string(limits.wall_seconds) +
            "s wall-clock watchdog in '" + proc->name() + "'";
        return out;
    }
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        bool rlimit_kill = sig == SIGXCPU || sig == SIGKILL;
        out.fault.kind = rlimit_kill ? FaultKind::ResourceLimit
                                     : FaultKind::Crash;
        out.fault.phase = FaultPhase::Execute;
        out.fault.signal_number = sig;
        out.fault.elapsed_seconds = elapsed;
        out.fault.detail = std::string("kernel '") + proc->name() +
                           "' killed by " + strsignal(sig);
        return out;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        ctl->done.load() != 1) {
        out.fault.kind = FaultKind::Crash;
        out.fault.phase = FaultPhase::Execute;
        out.fault.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        out.fault.elapsed_seconds = elapsed;
        out.fault.detail = "kernel '" + proc->name() +
                           "' exited abnormally (code " +
                           std::to_string(out.fault.exit_code) + ")";
        return out;
    }

    // Clean run: validate guards and copy outputs back (guard damage
    // throws VerifyError, same contract as the in-process path).
    arena.marshal_out();
    out.ok = true;
    out.seconds = ctl->seconds;
    return out;
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

namespace {

struct Injector
{
    FaultSpec spec;
    bool active = false;
    XorShiftRng rng{1};
    FaultInjectionCounts counts;
};

std::mutex g_injector_mu;
Injector g_injector;
bool g_env_checked = false;
// Every injection ever fired (reset_fault_injection_counts() keeps the
// count); registered at startup so op=metrics lists it at 0.
[[maybe_unused]] obs::Counter& g_registered = obs::counter("faults.fired");

/** Load EXO2_FAULTS once, lazily, unless set_fault_spec overrode it. */
void
ensure_env_loaded_locked()
{
    if (g_env_checked)
        return;
    g_env_checked = true;
    const char* e = std::getenv("EXO2_FAULTS");
    if (!e || !*e)
        return;
    FaultSpec spec = parse_fault_spec(e);
    g_injector.spec = spec;
    g_injector.active = spec.any();
    g_injector.rng = XorShiftRng(spec.seed);
}

double*
spec_field(FaultSpec& s, const std::string& key)
{
    if (key == "compile_fail") return &s.compile_fail;
    if (key == "compile_slow") return &s.compile_slow;
    if (key == "dlopen_fail") return &s.dlopen_fail;
    if (key == "isa_fail") return &s.isa_fail;
    if (key == "sigsegv") return &s.sigsegv;
    if (key == "sigfpe") return &s.sigfpe;
    if (key == "sigill") return &s.sigill;
    if (key == "hang") return &s.hang;
    if (key == "cache_corrupt") return &s.cache_corrupt;
    if (key == "cache_stale") return &s.cache_stale;
    if (key == "queue_full") return &s.queue_full;
    return nullptr;
}

}  // namespace

FaultSpec
parse_fault_spec(const std::string& text)
{
    FaultSpec spec;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        std::string item = comma == std::string::npos
                               ? text.substr(pos)
                               : text.substr(pos, comma - pos);
        pos = comma == std::string::npos ? text.size() : comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        if (eq == std::string::npos) {
            throw VerifyError("fault spec: '" + item +
                              "' is not key=value (in '" + text + "')");
        }
        std::string key = item.substr(0, eq);
        std::string val = item.substr(eq + 1);
        char* end = nullptr;
        if (key == "seed") {
            spec.seed = std::strtoull(val.c_str(), &end, 10);
            if (!end || *end)
                throw VerifyError("fault spec: bad seed '" + val + "'");
            continue;
        }
        double d = std::strtod(val.c_str(), &end);
        if (!end || *end)
            throw VerifyError("fault spec: bad value '" + val +
                              "' for '" + key + "'");
        if (key == "slow_seconds") {
            if (d <= 0)
                throw VerifyError("fault spec: slow_seconds must be > 0");
            spec.slow_seconds = d;
            continue;
        }
        double* field = spec_field(spec, key);
        if (!field) {
            throw VerifyError(
                "fault spec: unknown key '" + key +
                "' (expected seed, slow_seconds, compile_fail, "
                "compile_slow, dlopen_fail, isa_fail, sigsegv, sigfpe, "
                "sigill, hang, cache_corrupt, cache_stale, or "
                "queue_full)");
        }
        if (d < 0 || d > 1)
            throw VerifyError("fault spec: probability for '" + key +
                              "' out of [0,1]: " + val);
        *field = d;
    }
    return spec;
}

std::string
fault_spec_to_string(const FaultSpec& spec)
{
    std::string s = "seed=" + std::to_string(spec.seed);
    FaultSpec mut = spec;
    for (const char* key :
         {"compile_fail", "compile_slow", "dlopen_fail", "isa_fail",
          "sigsegv", "sigfpe", "sigill", "hang", "cache_corrupt",
          "cache_stale", "queue_full"}) {
        double v = *spec_field(mut, key);
        if (v > 0) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), ",%s=%g", key, v);
            s += buf;
        }
    }
    if (spec.slow_seconds != FaultSpec().slow_seconds) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), ",slow_seconds=%g",
                      spec.slow_seconds);
        s += buf;
    }
    return s;
}

void
set_fault_spec(const FaultSpec& spec)
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    g_env_checked = true;  // explicit spec overrides the environment
    g_injector.spec = spec;
    g_injector.active = spec.any();
    g_injector.rng = XorShiftRng(spec.seed);
}

void
clear_fault_spec()
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    g_injector.spec = FaultSpec();
    g_injector.active = false;
    g_env_checked = false;  // re-arm EXO2_FAULTS for the next draw
}

FaultSpec
current_fault_spec()
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    ensure_env_loaded_locked();
    return g_injector.active ? g_injector.spec : FaultSpec{};
}

bool
fault_should_inject(FaultSite site)
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    ensure_env_loaded_locked();
    if (!g_injector.active)
        return false;
    const FaultSpec& s = g_injector.spec;
    double p = 0;
    uint64_t* counter = nullptr;
    switch (site) {
      case FaultSite::CompileFail:
        p = s.compile_fail;
        counter = &g_injector.counts.compile_fail;
        break;
      case FaultSite::CompileSlow:
        p = s.compile_slow;
        counter = &g_injector.counts.compile_slow;
        break;
      case FaultSite::DlopenFail:
        p = s.dlopen_fail;
        counter = &g_injector.counts.dlopen_fail;
        break;
      case FaultSite::IsaFail:
        p = s.isa_fail;
        counter = &g_injector.counts.isa_fail;
        break;
      case FaultSite::Sigsegv:
        p = s.sigsegv;
        counter = &g_injector.counts.sigsegv;
        break;
      case FaultSite::Sigfpe:
        p = s.sigfpe;
        counter = &g_injector.counts.sigfpe;
        break;
      case FaultSite::Sigill:
        p = s.sigill;
        counter = &g_injector.counts.sigill;
        break;
      case FaultSite::Hang:
        p = s.hang;
        counter = &g_injector.counts.hang;
        break;
      case FaultSite::CacheCorrupt:
        p = s.cache_corrupt;
        counter = &g_injector.counts.cache_corrupt;
        break;
      case FaultSite::CacheStale:
        p = s.cache_stale;
        counter = &g_injector.counts.cache_stale;
        break;
      case FaultSite::QueueFull:
        p = s.queue_full;
        counter = &g_injector.counts.queue_full;
        break;
    }
    if (p <= 0)
        return false;
    if (g_injector.rng.unit() >= p)
        return false;
    (*counter)++;
    EXO2_COUNT("faults.fired");
    return true;
}

FaultInjectionCounts
fault_injection_counts()
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    return g_injector.counts;
}

void
reset_fault_injection_counts()
{
    std::lock_guard<std::mutex> lk(g_injector_mu);
    g_injector.counts = FaultInjectionCounts();
}

}  // namespace verify
}  // namespace exo2
