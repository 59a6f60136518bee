#include <cstdio>
#include <cstdlib>

#include "src/cache/cache.h"
#include "src/cache/cache_internal.h"
#include "src/machine/cost_sim.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tune/actions.h"
#include "src/util/file_atomic.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace cache {

namespace {

using internal::FlockGuard;

constexpr const char* kMagic = "exo2-tune-cache v1";

std::string
entry_name(const TuneKey& key)
{
    return hex64(key.hash()) + ".tune";
}

/** Render one entry. The header is line-oriented key=value; the
 *  payload (the schedule script) follows the `---` separator and is
 *  covered by an explicit byte count (truncation check) and an FNV-1a
 *  checksum (damage check). */
std::string
render_entry(const TuneKey& key, const TuneEntry& e, int lib_version,
             int cost_version)
{
    char num[64];
    std::string s;
    s += kMagic;
    s += "\n";
    s += "lib=" + std::to_string(lib_version) + "\n";
    s += "cost_model=" + std::to_string(cost_version) + "\n";
    s += "digest=" + hex64(key.proc_digest) + "\n";
    s += "machine=" + key.machine + "\n";
    s += "isa=" + key.isa + "\n";
    s += "sizes=" + key.sizes + "\n";
    std::snprintf(num, sizeof(num), "cost=%.17g", e.cost);
    s += num;
    s += "\n";
    s += std::string("validated=") + (e.validated ? "1" : "0") + "\n";
    s += "payload_bytes=" + std::to_string(e.script_text.size()) + "\n";
    s += "checksum=" + hex64(fnv1a64(e.script_text)) + "\n";
    s += "---\n";
    s += e.script_text;
    return s;
}

/** One parsed header line; false when `line` is not `key=value`. */
bool
split_kv(const std::string& line, std::string* k, std::string* v)
{
    size_t eq = line.find('=');
    if (eq == std::string::npos)
        return false;
    *k = line.substr(0, eq);
    *v = line.substr(eq + 1);
    return true;
}

enum class ParseOutcome { Ok, Corrupt, Stale, KeyMismatch };

/** Parse and validate one entry file against `key`. */
ParseOutcome
parse_entry(const std::string& text, const TuneKey& key, TuneEntry* out)
{
    size_t pos = 0;
    auto next_line = [&](std::string* line) {
        if (pos >= text.size())
            return false;
        size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            return false;  // headers must be newline-terminated
        *line = text.substr(pos, nl - pos);
        pos = nl + 1;
        return true;
    };

    std::string line;
    if (!next_line(&line))
        return ParseOutcome::Corrupt;
    if (line != kMagic) {
        // A recognizable older format is stale; garbage is corrupt.
        return line.rfind("exo2-tune-cache", 0) == 0
                   ? ParseOutcome::Stale
                   : ParseOutcome::Corrupt;
    }

    long lib = -1, cost_model = -1, payload_bytes = -1;
    uint64_t checksum = 0;
    bool have_checksum = false;
    std::string digest, machine, isa, sizes;
    TuneEntry e;
    for (;;) {
        if (!next_line(&line))
            return ParseOutcome::Corrupt;  // no `---` terminator
        if (line == "---")
            break;
        std::string k, v;
        if (!split_kv(line, &k, &v))
            return ParseOutcome::Corrupt;
        if (k == "lib")
            lib = std::atol(v.c_str());
        else if (k == "cost_model")
            cost_model = std::atol(v.c_str());
        else if (k == "digest")
            digest = v;
        else if (k == "machine")
            machine = v;
        else if (k == "isa")
            isa = v;
        else if (k == "sizes")
            sizes = v;
        else if (k == "cost")
            e.cost = std::atof(v.c_str());
        else if (k == "validated")
            e.validated = v == "1";
        else if (k == "payload_bytes")
            payload_bytes = std::atol(v.c_str());
        else if (k == "checksum") {
            checksum = std::strtoull(v.c_str(), nullptr, 16);
            have_checksum = true;
        }
        // Unknown header keys are ignored: forward-compatible reads.
    }
    if (payload_bytes < 0 || !have_checksum)
        return ParseOutcome::Corrupt;
    if (lib != tune::kScheduleLibraryVersion ||
        cost_model != kCostModelVersion)
        return ParseOutcome::Stale;

    std::string payload = text.substr(pos);
    if (static_cast<long>(payload.size()) != payload_bytes)
        return ParseOutcome::Corrupt;  // truncated (or padded)
    if (fnv1a64(payload) != checksum)
        return ParseOutcome::Corrupt;  // bit damage

    // Same file name but different identity: a hash collision, not
    // damage — report a plain miss so the caller re-tunes.
    if (digest != hex64(key.proc_digest) || machine != key.machine ||
        isa != key.isa || sizes != key.sizes)
        return ParseOutcome::KeyMismatch;

    e.script_text = std::move(payload);
    *out = std::move(e);
    return ParseOutcome::Ok;
}

}  // namespace

TuneCache::TuneCache(std::string dir)
{
    if (dir.empty())
        return;
    dir_ = dir + "/tune";
    if (!internal::ensure_dirs(dir_)) {
        dir_.clear();  // unusable root: behave as disabled
        return;
    }
    // Crash-only recovery: reclaim temp files from writers that died
    // mid-write (their entries were never published, so nothing else
    // refers to them).
    int swept = util::sweep_stale_tmp_files(dir_);
    if (swept > 0)
        obs::counter("cache.tmp_swept").inc(static_cast<uint64_t>(swept));
}

TuneCache::TuneCache() : TuneCache(cache_dir_from_env()) {}

std::optional<TuneEntry>
TuneCache::probe(const TuneKey& key) const
{
    if (!enabled())
        return std::nullopt;
    EXO2_SPAN("cache.tune_probe");
    std::string name = entry_name(key);
    std::string text;
    if (!util::read_file_text(dir_ + "/" + name, &text)) {
        EXO2_COUNT("cache.tune_misses");
        return std::nullopt;
    }
    TuneEntry e;
    switch (parse_entry(text, key, &e)) {
      case ParseOutcome::Ok:
        EXO2_COUNT("cache.tune_hits");
        return e;
      case ParseOutcome::Corrupt:
        internal::quarantine(dir_, name, "corrupt");
        EXO2_COUNT("cache.tune_corrupt");
        EXO2_COUNT("cache.tune_misses");
        return std::nullopt;
      case ParseOutcome::Stale:
        internal::quarantine(dir_, name, "stale");
        EXO2_COUNT("cache.tune_stale");
        EXO2_COUNT("cache.tune_misses");
        return std::nullopt;
      case ParseOutcome::KeyMismatch:
        EXO2_COUNT("cache.tune_misses");
        return std::nullopt;
    }
    return std::nullopt;
}

bool
TuneCache::store(const TuneKey& key, const TuneEntry& entry) const
{
    if (!enabled())
        return false;
    EXO2_SPAN("cache.tune_store");
    std::string name = entry_name(key);
    std::string path = dir_ + "/" + name;

    bool ok;
    {
        FlockGuard lock(dir_);
        ok = util::write_file_atomic(
            path,
            render_entry(key, entry, tune::kScheduleLibraryVersion,
                         kCostModelVersion),
            /*durable=*/true);

        // Structural fault injection (DESIGN.md §8): damage the entry
        // we just published — for real, on disk — so the detection and
        // quarantine paths in probe() face genuine corruption.
        if (ok && verify::fault_should_inject(
                      verify::FaultSite::CacheCorrupt)) {
            internal::corrupt_file_in_place(path);
        } else if (ok && verify::fault_should_inject(
                             verify::FaultSite::CacheStale)) {
            util::write_file_atomic(
                path,
                render_entry(key, entry,
                             tune::kScheduleLibraryVersion - 1,
                             kCostModelVersion),
                /*durable=*/true);
        }
    }
    if (ok)
        EXO2_COUNT("cache.tune_stores");
    else
        EXO2_COUNT("cache.tune_store_failures");
    return ok;
}

void
TuneCache::invalidate(const TuneKey& key, const char* reason) const
{
    if (!enabled())
        return;
    FlockGuard lock(dir_);
    internal::quarantine(dir_, entry_name(key), reason);
}

}  // namespace cache
}  // namespace exo2
