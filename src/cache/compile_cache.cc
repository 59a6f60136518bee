#include <cstdio>
#include <cstdlib>

#include "src/cache/cache.h"
#include "src/cache/cache_internal.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/file_atomic.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace cache {

namespace {

using internal::FlockGuard;

constexpr const char* kMagic = "exo2-jit-cache v1";

std::string
so_name(const CompileKey& key)
{
    return hex64(key.hash()) + ".so";
}

std::string
meta_name(const CompileKey& key)
{
    return hex64(key.hash()) + ".meta";
}

std::string
render_meta(const CompileKey& key, const std::string& so_bytes)
{
    std::string s;
    s += kMagic;
    s += "\n";
    s += "digest=" + hex64(key.source_digest) + "\n";
    s += "flags=" + key.isa_flags + "\n";
    s += "compiler=" + key.compiler_id + "\n";
    s += "so_bytes=" + std::to_string(so_bytes.size()) + "\n";
    s += "checksum=" + hex64(fnv1a64(so_bytes)) + "\n";
    return s;
}

enum class MetaOutcome { Ok, Corrupt, Stale, KeyMismatch };

MetaOutcome
parse_meta(const std::string& text, const CompileKey& key,
           long* so_bytes, uint64_t* checksum)
{
    *so_bytes = -1;
    bool have_checksum = false;
    std::string digest, flags, compiler;

    size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return MetaOutcome::Corrupt;  // meta lines end in newline
        std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;
        if (first) {
            first = false;
            if (line == kMagic)
                continue;
            return line.rfind("exo2-jit-cache", 0) == 0
                       ? MetaOutcome::Stale
                       : MetaOutcome::Corrupt;
        }
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            return MetaOutcome::Corrupt;
        std::string k = line.substr(0, eq);
        std::string v = line.substr(eq + 1);
        if (k == "digest")
            digest = v;
        else if (k == "flags")
            flags = v;
        else if (k == "compiler")
            compiler = v;
        else if (k == "so_bytes")
            *so_bytes = std::atol(v.c_str());
        else if (k == "checksum") {
            *checksum = std::strtoull(v.c_str(), nullptr, 16);
            have_checksum = true;
        }
    }
    if (first || *so_bytes < 0 || !have_checksum)
        return MetaOutcome::Corrupt;
    if (digest != hex64(key.source_digest) || flags != key.isa_flags ||
        compiler != key.compiler_id)
        return MetaOutcome::KeyMismatch;
    return MetaOutcome::Ok;
}

}  // namespace

CompileCache::CompileCache(std::string dir)
{
    if (dir.empty())
        return;
    dir_ = dir + "/jit";
    if (!internal::ensure_dirs(dir_)) {
        dir_.clear();
        return;
    }
    int swept = util::sweep_stale_tmp_files(dir_);
    if (swept > 0)
        obs::counter("cache.tmp_swept").inc(static_cast<uint64_t>(swept));
}

CompileCache::CompileCache() : CompileCache(cache_dir_from_env()) {}

std::optional<std::string>
CompileCache::probe(const CompileKey& key) const
{
    if (!enabled())
        return std::nullopt;
    EXO2_SPAN("cache.jit_probe");
    std::string mname = meta_name(key);
    std::string sname = so_name(key);
    std::string meta;
    if (!util::read_file_text(dir_ + "/" + mname, &meta)) {
        EXO2_COUNT("cache.jit_misses");
        return std::nullopt;
    }

    long so_bytes = -1;
    uint64_t checksum = 0;
    MetaOutcome mo = parse_meta(meta, key, &so_bytes, &checksum);
    if (mo == MetaOutcome::Corrupt || mo == MetaOutcome::Stale) {
        internal::quarantine(dir_, mname,
                             mo == MetaOutcome::Stale ? "stale"
                                                      : "corrupt");
        internal::quarantine(dir_, sname,
                             mo == MetaOutcome::Stale ? "stale"
                                                      : "corrupt");
        if (mo == MetaOutcome::Stale)
            EXO2_COUNT("cache.jit_stale");
        else
            EXO2_COUNT("cache.jit_corrupt");
        EXO2_COUNT("cache.jit_misses");
        return std::nullopt;
    }
    if (mo == MetaOutcome::KeyMismatch) {
        EXO2_COUNT("cache.jit_misses");
        return std::nullopt;
    }

    // Validate the object against the sidecar before anyone dlopens
    // it: a torn or bit-damaged .so must never reach the loader.
    std::string so;
    if (!util::read_file_text(dir_ + "/" + sname, &so) ||
        static_cast<long>(so.size()) != so_bytes ||
        fnv1a64(so) != checksum) {
        internal::quarantine(dir_, sname, "checksum");
        internal::quarantine(dir_, mname, "checksum");
        EXO2_COUNT("cache.jit_corrupt");
        EXO2_COUNT("cache.jit_misses");
        return std::nullopt;
    }
    EXO2_COUNT("cache.jit_hits");
    return dir_ + "/" + sname;
}

bool
CompileCache::store(const CompileKey& key,
                    const std::string& so_path) const
{
    if (!enabled())
        return false;
    EXO2_SPAN("cache.jit_store");
    std::string so;
    if (!util::read_file_text(so_path, &so) || so.empty()) {
        EXO2_COUNT("cache.jit_store_failures");
        return false;
    }

    bool ok;
    {
        FlockGuard lock(dir_);
        // Object first, sidecar second: a crash between the two leaves
        // a .so with no .meta — probe() reports a miss, the next
        // successful store overwrites both. No ordering leaves a
        // validated sidecar pointing at missing/old bytes.
        ok = util::write_file_atomic(dir_ + "/" + so_name(key), so,
                                     /*durable=*/true) &&
             util::write_file_atomic(dir_ + "/" + meta_name(key),
                                     render_meta(key, so),
                                     /*durable=*/true);

        if (ok && verify::fault_should_inject(
                      verify::FaultSite::CacheCorrupt)) {
            internal::corrupt_file_in_place(dir_ + "/" + so_name(key));
        } else if (ok && verify::fault_should_inject(
                             verify::FaultSite::CacheStale)) {
            std::string stale_meta = render_meta(key, so);
            stale_meta.replace(stale_meta.find(" v1"), 3, " v0");
            util::write_file_atomic(dir_ + "/" + meta_name(key),
                                    stale_meta, /*durable=*/true);
        }
    }
    if (ok)
        EXO2_COUNT("cache.jit_stores");
    else
        EXO2_COUNT("cache.jit_store_failures");
    return ok;
}

void
CompileCache::invalidate(const CompileKey& key,
                         const char* reason) const
{
    if (!enabled())
        return;
    FlockGuard lock(dir_);
    internal::quarantine(dir_, so_name(key), reason);
    internal::quarantine(dir_, meta_name(key), reason);
}

}  // namespace cache
}  // namespace exo2
