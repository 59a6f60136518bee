#ifndef EXO2_CACHE_CACHE_H_
#define EXO2_CACHE_CACHE_H_

/**
 * @file
 * Crash-safe persistent caches for the scheduling service
 * (DESIGN.md §8): production traffic re-issues the same
 * (kernel, machine, sizes) requests millions of times, so tuning
 * winners and compiled kernels survive the process that produced them.
 *
 * Two caches share one on-disk discipline:
 *
 *  - **TuneCache** maps (proc digest, machine, ISA, sizes) to the
 *    replayable schedule-script text of a validated tuning winner
 *    (`verify::script_to_string` round-trips). An entry is a small
 *    text file with a versioned header and an FNV-1a checksum over
 *    the payload.
 *
 *  - **CompileCache** maps (generated-C digest, ISA flags, compiler
 *    identity) to a dlopen-able shared object plus a `.meta` sidecar
 *    carrying the object's checksum, validated on every load.
 *
 * Shared rules, all enforced here and nowhere else:
 *
 *  - Writes are atomic (util::write_file_atomic: unique temp + fsync +
 *    rename) under an advisory `flock` on a per-cache lock file, so
 *    concurrent writers — threads or separate processes — never
 *    interleave and readers never observe torn entries.
 *  - Reads never take the lock: rename gives each published entry an
 *    immutable inode.
 *  - A corrupt, truncated, or checksum-failing entry is *quarantined*
 *    (moved into the cache's `.bad/` subdirectory for post-mortems)
 *    and reported as a miss — never as an error. Same for *stale*
 *    entries written under an older format, schedule-library, or
 *    cost-model version.
 *  - Construction sweeps `*.tmp.*` orphans from writers that died
 *    mid-write (crash-only recovery: kill -9, restart, self-heal).
 *  - Every degradation is counted (`cache_stats()`), so tests and
 *    gates can prove recovery happened instead of passing vacuously.
 *
 * Fault injection (DESIGN.md §8): the `cache_corrupt` / `cache_stale`
 * sites of EXO2_FAULTS damage *real* just-written entry files —
 * bit-flip/truncate, or rewrite the header with an outdated version —
 * so the detection and quarantine paths are exercised against genuine
 * on-disk damage.
 *
 * Caching is opt-in: both caches are disabled unless a directory is
 * given explicitly or `EXO2_CACHE_DIR` is set (tests and one-shot
 * runs stay hermetic by default).
 */

#include <cstdint>
#include <optional>
#include <string>

namespace exo2 {
namespace cache {

/** FNV-1a 64-bit over arbitrary bytes: the cache checksum/key hash.
 *  Stable across platforms and builds (unlike std::hash). */
uint64_t fnv1a64(const void* data, size_t len,
                 uint64_t seed = 14695981039346656037ull);
uint64_t fnv1a64(const std::string& s);

/** Lower-case hex rendering of a 64-bit value (16 chars). */
std::string hex64(uint64_t v);

/** The cache root from EXO2_CACHE_DIR; empty = caching disabled. */
std::string cache_dir_from_env();

/** Process-wide degradation/effectiveness counts for both caches: a
 *  snapshot of the `cache.*` registry counters (obs/metrics.h). */
struct CacheStats
{
    // Tuning cache.
    uint64_t tune_hits = 0;
    uint64_t tune_misses = 0;        ///< probe found nothing usable
    uint64_t tune_stores = 0;
    uint64_t tune_store_failures = 0;
    uint64_t tune_corrupt = 0;       ///< quarantined: damaged entry
    uint64_t tune_stale = 0;         ///< quarantined: version skew
    // Compile cache.
    uint64_t jit_hits = 0;
    uint64_t jit_misses = 0;
    uint64_t jit_stores = 0;
    uint64_t jit_store_failures = 0;
    uint64_t jit_corrupt = 0;
    uint64_t jit_stale = 0;
    // Crash-only recovery.
    uint64_t tmp_swept = 0;          ///< orphaned temp files reclaimed
};

CacheStats cache_stats();

// ---------------------------------------------------------------------------
// Tuning cache
// ---------------------------------------------------------------------------

/** Identity of one tuning result. `sizes` is the canonical rendering
 *  of the tune-size environment ("K=48,M=48,N=48" — SizeEnv is an
 *  ordered map, so the rendering is unique). */
struct TuneKey
{
    uint64_t proc_digest = 0;  ///< proc_digest() of the naive proc
    std::string machine;       ///< Machine::name(), e.g. "AVX2"
    std::string isa;           ///< native_isa_name(), e.g. "avx2"
    std::string sizes;         ///< canonical size string

    /** Stable 64-bit identity (the entry's file name). */
    uint64_t hash() const;
};

/** One cached tuning result. */
struct TuneEntry
{
    std::string script_text;  ///< verify::script_to_string output
    double cost = 0.0;        ///< simulated cycles of the winner
    bool validated = false;   ///< tri-oracle-validated when stored
};

class TuneCache
{
  public:
    /** `dir` empty = disabled (every probe misses, stores are no-ops).
     *  Otherwise the cache lives in `<dir>/tune/`, created on first
     *  use, with orphaned temp files swept immediately. */
    explicit TuneCache(std::string dir);

    /** Env-configured convenience: TuneCache(cache_dir_from_env()). */
    TuneCache();

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /** Look up `key`. Corrupt/truncated/stale entries are quarantined
     *  and reported as std::nullopt (a miss); never throws. */
    std::optional<TuneEntry> probe(const TuneKey& key) const;

    /** Publish `entry` under `key` (atomic, flock-serialized).
     *  Best-effort: returns false on I/O failure, never throws. */
    bool store(const TuneKey& key, const TuneEntry& entry) const;

    /** Remove the entry for `key` (e.g. its script stopped replaying
     *  on the current library); quarantines rather than deletes. */
    void invalidate(const TuneKey& key, const char* reason) const;

  private:
    std::string dir_;  ///< `<root>/tune`, or empty when disabled
};

// ---------------------------------------------------------------------------
// Compile cache
// ---------------------------------------------------------------------------

/** Identity of one compiled unit. */
struct CompileKey
{
    uint64_t source_digest = 0;  ///< fnv1a64 of the generated C
    std::string isa_flags;       ///< e.g. "-mavx2 -mfma"
    std::string compiler_id;     ///< compiler_identity() output

    uint64_t hash() const;
};

class CompileCache
{
  public:
    explicit CompileCache(std::string dir);
    CompileCache();

    bool enabled() const { return !dir_.empty(); }
    const std::string& dir() const { return dir_; }

    /** Path of a validated cached shared object for `key`, or
     *  std::nullopt. The returned file is immutable (rename-published)
     *  and safe to dlopen directly. A checksum or version mismatch
     *  quarantines the pair and misses; never throws. */
    std::optional<std::string> probe(const CompileKey& key) const;

    /** Publish the built object at `so_path` under `key` (bytes are
     *  copied; atomic + flock-serialized). Best-effort. */
    bool store(const CompileKey& key, const std::string& so_path) const;

    /** Quarantine a cached object that failed to dlopen after passing
     *  its checksum (e.g. damaged beyond what the checksum covers, or
     *  an incompatible object format). */
    void invalidate(const CompileKey& key, const char* reason) const;

  private:
    std::string dir_;  ///< `<root>/jit`, or empty when disabled
};

/**
 * Identity of the external C compiler `cc` (a path or PATH name):
 * "<cc> <first line of cc --version>". Memoized per process. Falls
 * back to the bare name when --version fails — two different broken
 * compilers then share entries, but both also fail to compile, so no
 * wrong code can be served.
 */
std::string compiler_identity(const std::string& cc);

}  // namespace cache
}  // namespace exo2

#endif  // EXO2_CACHE_CACHE_H_
