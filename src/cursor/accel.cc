#include "src/cursor/accel.h"

#include <vector>

#include "src/obs/metrics.h"

namespace exo2 {

namespace {

bool g_fwd_enabled = true;
bool g_index_enabled = true;
uint64_t g_epoch = 1;

std::vector<void (*)()>&
clearers()
{
    static auto* v = new std::vector<void (*)()>();
    return *v;
}

}  // namespace

namespace accel_internal {

void
register_clearer(void (*fn)())
{
    clearers().push_back(fn);
}

}  // namespace accel_internal

bool
forwarding_compression_enabled()
{
    return g_fwd_enabled;
}

void
set_forwarding_compression_enabled(bool on)
{
    if (g_fwd_enabled != on)
        clear_cursor_accel_caches();
    g_fwd_enabled = on;
}

bool
pattern_index_enabled()
{
    return g_index_enabled;
}

void
set_pattern_index_enabled(bool on)
{
    if (g_index_enabled != on)
        clear_cursor_accel_caches();
    g_index_enabled = on;
}

void
clear_cursor_accel_caches()
{
    g_epoch++;
    for (auto* fn : clearers())
        fn();
}

uint64_t
cursor_accel_epoch()
{
    return g_epoch;
}

CursorAccelStats
cursor_accel_stats()
{
    auto v = [](const char* name) { return obs::counter(name).value(); };
    return {v("cursor.fwd_hits"), v("cursor.fwd_misses"),
            v("cursor.index_hits"), v("cursor.index_misses"),
            v("cursor.index_pruned")};
}

// Registers the counters at startup: op=metrics lists them at 0.
[[maybe_unused]] static const CursorAccelStats g_registered =
    cursor_accel_stats();

}  // namespace exo2
