#include "src/cache/cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <map>
#include <mutex>

#include "src/cache/cache_internal.h"
#include "src/obs/metrics.h"
#include "src/util/env.h"
#include "src/util/file_atomic.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace cache {

uint64_t
fnv1a64(const void* data, size_t len, uint64_t seed)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    uint64_t h = seed;
    for (size_t i = 0; i < len; i++) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1a64(const std::string& s)
{
    return fnv1a64(s.data(), s.size());
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
cache_dir_from_env()
{
    return util::env_string("EXO2_CACHE_DIR", "");
}

uint64_t
TuneKey::hash() const
{
    uint64_t h = fnv1a64(&proc_digest, sizeof(proc_digest));
    h = fnv1a64(machine.data(), machine.size(), h);
    h = fnv1a64("|", 1, h);
    h = fnv1a64(isa.data(), isa.size(), h);
    h = fnv1a64("|", 1, h);
    h = fnv1a64(sizes.data(), sizes.size(), h);
    return h;
}

uint64_t
CompileKey::hash() const
{
    uint64_t h = fnv1a64(&source_digest, sizeof(source_digest));
    h = fnv1a64(isa_flags.data(), isa_flags.size(), h);
    h = fnv1a64("|", 1, h);
    h = fnv1a64(compiler_id.data(), compiler_id.size(), h);
    return h;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

CacheStats
cache_stats()
{
    auto v = [](const char* name) { return obs::counter(name).value(); };
    return {v("cache.tune_hits"),   v("cache.tune_misses"),
            v("cache.tune_stores"), v("cache.tune_store_failures"),
            v("cache.tune_corrupt"), v("cache.tune_stale"),
            v("cache.jit_hits"),    v("cache.jit_misses"),
            v("cache.jit_stores"),  v("cache.jit_store_failures"),
            v("cache.jit_corrupt"), v("cache.jit_stale"),
            v("cache.tmp_swept")};
}

// Registers the counters at startup: op=metrics lists them at 0.
[[maybe_unused]] static const CacheStats g_registered = cache_stats();

// ---------------------------------------------------------------------------
// Compiler identity
// ---------------------------------------------------------------------------

std::string
compiler_identity(const std::string& cc)
{
    static std::mutex mu;
    static std::map<std::string, std::string> memo;
    std::lock_guard<std::mutex> lk(mu);
    auto it = memo.find(cc);
    if (it != memo.end())
        return it->second;

    std::string id = cc;
    char tmpl[] = "/tmp/exo2_ccid_XXXXXX";
    int fd = mkstemp(tmpl);
    if (fd >= 0) {
        close(fd);
        verify::SpawnResult r =
            verify::run_command({cc, "--version"}, tmpl, 10.0);
        if (r.ok()) {
            std::string text;
            if (util::read_file_text(tmpl, &text)) {
                size_t nl = text.find('\n');
                id = cc + " " +
                     (nl == std::string::npos ? text
                                              : text.substr(0, nl));
            }
        }
        unlink(tmpl);
    }
    memo[cc] = id;
    return id;
}

// ---------------------------------------------------------------------------
// Internal plumbing
// ---------------------------------------------------------------------------

namespace internal {

bool
ensure_dirs(const std::string& path)
{
    if (path.empty())
        return false;
    std::string cur;
    size_t pos = 0;
    while (pos <= path.size()) {
        size_t slash = path.find('/', pos);
        if (slash == std::string::npos)
            slash = path.size();
        cur = path.substr(0, slash);
        pos = slash + 1;
        if (cur.empty())
            continue;  // leading '/'
        if (mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    struct stat st;
    return stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

FlockGuard::FlockGuard(const std::string& dir)
{
    std::string lock_path = dir + "/lock";
    fd_ = open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && flock(fd_, LOCK_EX) != 0) {
        close(fd_);
        fd_ = -1;
    }
}

FlockGuard::~FlockGuard()
{
    if (fd_ >= 0) {
        flock(fd_, LOCK_UN);
        close(fd_);
    }
}

void
quarantine(const std::string& dir, const std::string& name,
           const char* reason)
{
    static std::atomic<uint64_t> seq{0};
    std::string bad_dir = dir + "/.bad";
    ensure_dirs(bad_dir);
    std::string src = dir + "/" + name;
    std::string dst = bad_dir + "/" + name + "." + reason + "." +
                      std::to_string(::getpid()) + "." +
                      std::to_string(seq.fetch_add(1));
    if (rename(src.c_str(), dst.c_str()) != 0)
        unlink(src.c_str());  // never serve a damaged entry twice
}

void
corrupt_file_in_place(const std::string& path)
{
    std::string bytes;
    if (!util::read_file_text(path, &bytes) || bytes.empty())
        return;
    bytes[bytes.size() / 2] ^= 0x5a;       // bit damage
    bytes.resize(bytes.size() - bytes.size() / 4);  // torn tail
    // Deliberately NOT atomic: this models in-place media damage.
    FILE* f = std::fopen(path.c_str(), "wb");
    if (f) {
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }
}

}  // namespace internal
}  // namespace cache
}  // namespace exo2
