/**
 * @file
 * Keeps the engine's scratch files inside the suite's work directory.
 * The JIT (src/verify/cjit.cc) and the compiler-identity probe
 * (src/cache/cache.cc) create theirs from hard-coded /tmp templates,
 * and the suite writes only inside the directory it runs in. These
 * definitions take precedence over libc's for the statically linked
 * engine: a template under /tmp/ is moved into the scratch directory.
 * mkstemp callers reuse their template buffer, so its redirected path
 * must fit in it: keep the scratch directory's path short.
 */

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>

#include "benchsuite/suite.h"

namespace {

std::string g_scratch_dir;

/** Redirected template: `dir/<suffix>` keeping the caller's trailing
 *  "XXXXXX" (and, for mkdtemp, its file name). */
std::string
redirect(const char* tmpl, bool keep_name)
{
    if (g_scratch_dir.empty() || std::strncmp(tmpl, "/tmp/", 5) != 0)
        return tmpl;
    return g_scratch_dir + "/" + (keep_name ? tmpl + 5 : "XXXXXX");
}

/** Fill the trailing six X's of `path` and try `make` until it stops
 *  failing with EEXIST. */
template <typename Make>
bool
make_unique(std::string& path, Make make)
{
    size_t n = path.size();
    if (n < 6 || path.compare(n - 6, 6, "XXXXXX") != 0) {
        errno = EINVAL;
        return false;
    }
    static const char kChars[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    thread_local unsigned long long s =
        static_cast<unsigned long long>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (static_cast<unsigned long long>(getpid()) << 32);
    for (int attempt = 0; attempt < 1000; attempt++) {
        for (size_t i = n - 6; i < n; i++) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            path[i] = kChars[s % (sizeof(kChars) - 1)];
        }
        if (make(path.c_str()))
            return true;
        if (errno != EEXIST)
            return false;
    }
    return false;
}

}  // namespace

namespace exo2 {
namespace suite {

void
set_scratch_dir(const std::string& dir)
{
    g_scratch_dir = dir;
}

}  // namespace suite
}  // namespace exo2

extern "C" char*
mkdtemp(char* tmpl) noexcept
{
    thread_local std::string path;
    path = redirect(tmpl, true);
    if (!make_unique(path, [](const char* p) { return mkdir(p, 0700) == 0; }))
        return nullptr;
    // Callers use the returned path; a template too short for the
    // redirected one is left as it was.
    if (path.size() > std::strlen(tmpl))
        return path.data();
    std::strcpy(tmpl, path.c_str());
    return tmpl;
}

extern "C" int
mkstemp(char* tmpl)
{
    std::string path = redirect(tmpl, false);
    if (path.size() > std::strlen(tmpl))
        path = tmpl;  // no room to redirect: leave it where it was
    int fd = -1;
    if (!make_unique(path, [&fd](const char* p) {
            fd = open(p, O_RDWR | O_CREAT | O_EXCL, 0600);
            return fd >= 0;
        }))
        return -1;
    std::strcpy(tmpl, path.c_str());
    return fd;
}
