#ifndef EXO2_CACHE_CACHE_INTERNAL_H_
#define EXO2_CACHE_CACHE_INTERNAL_H_

/**
 * @file
 * Shared plumbing of the persistent caches (not part of the public
 * API): directory creation, the advisory-flock write guard, entry
 * quarantine. See cache.h for the on-disk discipline these implement.
 */

#include <cstdint>
#include <string>

#include "src/cache/cache.h"

namespace exo2 {
namespace cache {
namespace internal {

/** mkdir -p. Returns false when a component cannot be created. */
bool ensure_dirs(const std::string& path);

/**
 * Advisory exclusive lock on `<dir>/lock`, held for the guard's
 * lifetime. flock locks are per open-file-description, so two writers
 * contend whether they are threads of one process or separate
 * processes. Failure to acquire (e.g. unwritable dir) leaves
 * `held() == false`; callers proceed unlocked — the atomic-rename
 * publish is still safe, the lock only serializes multi-file
 * sequences and reduces wasted duplicate work.
 */
class FlockGuard
{
  public:
    explicit FlockGuard(const std::string& dir);
    ~FlockGuard();

    FlockGuard(const FlockGuard&) = delete;
    FlockGuard& operator=(const FlockGuard&) = delete;

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

/**
 * Move `<dir>/<name>` into `<dir>/.bad/` under a unique name that
 * embeds `reason` ("checksum", "truncated", "version", ...), for
 * post-mortem inspection. Never throws; a failed rename falls back to
 * unlink so a damaged entry can never be served twice.
 */
void quarantine(const std::string& dir, const std::string& name,
                const char* reason);

/** Damage a just-written cache file in place, for the cache_corrupt
 *  injection site: flip a byte in the middle and truncate the tail so
 *  both the checksum and the length check have something to catch. */
void corrupt_file_in_place(const std::string& path);

}  // namespace internal
}  // namespace cache
}  // namespace exo2

#endif  // EXO2_CACHE_CACHE_INTERNAL_H_
