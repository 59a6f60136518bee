#ifndef EXO2_OBS_PHASE_H_
#define EXO2_OBS_PHASE_H_

/**
 * @file
 * Per-request phase attribution (DESIGN.md §10): the coarse time
 * buckets the daemon reports per response (`phase_*_ms` extras) and
 * the tools print as a breakdown.
 *
 * A collection is thread-local: the daemon worker (or a CLI driver)
 * brackets one request with phase_begin_collection() /
 * phase_end_collection(). Inside it, a span (trace.h) whose name the
 * table in phase.cc maps charges its duration to that phase, traced or
 * not; one nested in another mapped span charges nothing, so phases
 * are disjoint by construction. phase_add() charges time no span
 * covers (the daemon's queue wait). Whatever a collection does not
 * attribute is the gap between total() and the caller's wall clock.
 */

namespace exo2 {
namespace obs {

enum class Phase
{
    Queue = 0,  ///< admission -> dequeue (daemon only)
    Lint,       ///< static lint gate / admission lint
    Cache,      ///< persistent-cache probe, replay, store
    Search,     ///< beam rounds, restarts, cost simulation
    Cjit,       ///< JIT build + sandboxed measurement
    Validate,   ///< tri-oracle checks
    Other,      ///< attributed but uncategorized
};

constexpr int kNumPhases = 7;

/** Lowercase stable name ("queue", "lint", ...). */
const char* phase_name(Phase p);

struct PhaseBreakdown
{
    double seconds[kNumPhases] = {};

    double of(Phase p) const { return seconds[static_cast<int>(p)]; }
    double total() const
    {
        double t = 0;
        for (double s : seconds)
            t += s;
        return t;
    }
};

/** Start accumulating on this thread (zeroes any previous state). */
void phase_begin_collection();

/** Whether this thread is inside a collection. */
bool phase_collecting();

/** Charge `seconds` to `p` (no-op outside a collection). */
void phase_add(Phase p, double seconds);

/** Stop and return what was accumulated. */
PhaseBreakdown phase_end_collection();

namespace phase_internal {

/** Span hooks (trace.cc): the phase a span opening now charges (-1
 *  outside a collection, unmapped, or nested in a charging span), and
 *  the charge when it closes. */
int open_span(const char* name);
void close_span(int phase, double seconds);

}  // namespace phase_internal

}  // namespace obs
}  // namespace exo2

#endif  // EXO2_OBS_PHASE_H_
