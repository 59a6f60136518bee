#include "src/obs/phase.h"

#include <cstring>

#include "src/obs/trace.h"

namespace exo2 {
namespace obs {

namespace {

/** Span name -> the phase its duration is charged to (DESIGN.md §10). */
constexpr struct
{
    const char* span;
    Phase phase;
} kSpanPhases[] = {
    {"tune.round", Phase::Search},       {"tune.restart", Phase::Search},
    {"tune.replay", Phase::Search},      {"tune.lint_gate", Phase::Lint},
    {"lint.proc", Phase::Lint},          {"tune.cache_probe", Phase::Cache},
    {"tune.cache_replay", Phase::Cache}, {"tune.cache_store", Phase::Cache},
    {"tune.jit_measure", Phase::Cjit},   {"tune.validate", Phase::Validate},
};

struct ThreadPhases
{
    PhaseBreakdown breakdown;
    bool collecting = false;
    bool charging = false;  ///< a mapped span is open on this thread
};

thread_local ThreadPhases t_phases;

}  // namespace

const char*
phase_name(Phase p)
{
    switch (p) {
      case Phase::Queue: return "queue";
      case Phase::Lint: return "lint";
      case Phase::Cache: return "cache";
      case Phase::Search: return "search";
      case Phase::Cjit: return "cjit";
      case Phase::Validate: return "validate";
      default: return "other";
    }
}

void
phase_begin_collection()
{
    ThreadPhases& t = t_phases;
    if (!t.collecting)
        trace_internal::g_hooks.fetch_add(trace_internal::kCollector,
                                          std::memory_order_relaxed);
    t.breakdown = PhaseBreakdown();
    t.collecting = true;
}

bool
phase_collecting()
{
    return t_phases.collecting;
}

void
phase_add(Phase p, double seconds)
{
    if (t_phases.collecting)
        t_phases.breakdown.seconds[static_cast<int>(p)] += seconds;
}

PhaseBreakdown
phase_end_collection()
{
    ThreadPhases& t = t_phases;
    if (t.collecting)
        trace_internal::g_hooks.fetch_sub(trace_internal::kCollector,
                                          std::memory_order_relaxed);
    t.collecting = false;
    PhaseBreakdown out = t.breakdown;
    t.breakdown = PhaseBreakdown();
    return out;
}

namespace phase_internal {

int
open_span(const char* name)
{
    ThreadPhases& t = t_phases;
    if (!t.collecting || t.charging)
        return -1;
    for (const auto& e : kSpanPhases) {
        if (e.span[0] == name[0] && std::strcmp(e.span, name) == 0) {
            t.charging = true;
            return static_cast<int>(e.phase);
        }
    }
    return -1;
}

void
close_span(int phase, double seconds)
{
    t_phases.charging = false;
    phase_add(static_cast<Phase>(phase), seconds);
}

}  // namespace phase_internal

}  // namespace obs
}  // namespace exo2
