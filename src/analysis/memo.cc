#include "src/analysis/memo.h"

#include <vector>

#include "src/obs/metrics.h"

namespace exo2 {

namespace {

bool g_enabled = true;

std::vector<void (*)()>&
clearers()
{
    static std::vector<void (*)()> v;
    return v;
}

}  // namespace

namespace memo_internal {

void
register_clearer(void (*fn)())
{
    clearers().push_back(fn);
}

}  // namespace memo_internal

bool
analysis_memo_enabled()
{
    return g_enabled;
}

void
set_analysis_memo_enabled(bool on)
{
    if (g_enabled && !on)
        clear_analysis_memo();
    g_enabled = on;
}

void
clear_analysis_memo()
{
    for (auto fn : clearers())
        fn();
}

AnalysisMemoStats
analysis_memo_stats()
{
    auto v = [](const char* name) { return obs::counter(name).value(); };
    return {v("analysis.affine_hits"),  v("analysis.affine_misses"),
            v("analysis.linear_hits"),  v("analysis.linear_misses"),
            v("analysis.effects_hits"), v("analysis.effects_misses")};
}

// Registers the counters at startup: op=metrics lists them at 0.
[[maybe_unused]] static const AnalysisMemoStats g_registered =
    analysis_memo_stats();

}  // namespace exo2
