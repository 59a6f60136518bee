#ifndef EXO2_ANALYSIS_MEMO_H_
#define EXO2_ANALYSIS_MEMO_H_

/**
 * @file
 * Control plane for the analysis memoization caches.
 *
 * The hot analyses — affine normalization (`to_affine`), linear
 * implication checks (`LinearSystem`), and effect collection
 * (`collect_accesses*`) — keep process-global memo caches keyed on the
 * structural identity of immutable IR nodes (see DESIGN.md, "Structural
 * identity and analysis memoization"). Because the IR is immutable and
 * `Expr` nodes are hash-consed, a cache entry can never be invalidated
 * by a schedule edit: edits build new nodes, they never mutate old
 * ones. The only cache management needed is eviction for memory, and a
 * global kill switch used by the cross-check tests to compare memoized
 * results against from-scratch recomputation.
 *
 * Threading: the analysis layer (and all its caches) is single-threaded
 * by design — scheduling applies one primitive at a time. The caches
 * are therefore deliberately unsynchronized. The Expr interner does
 * take a lock (ir/expr.cc) because IR *construction* is also reachable
 * from bench/test harness setup paths; the analyses themselves must
 * not be called concurrently until these caches grow synchronization.
 * The same rule covers `LinearSystem::Scope` (analysis/linear.h): a
 * const query extends the system it is asked of and restores it before
 * returning, so a system, like a cache, belongs to one thread at a
 * time. The tuner's scoring pool runs only the cost simulator and never
 * touches a system.
 */

#include <cstdint>

namespace exo2 {

/** Are the analysis memo caches consulted? Defaults to true. */
bool analysis_memo_enabled();

/**
 * Enable or disable all analysis memo caches. Disabling also clears
 * them, so a later re-enable starts cold (this is what makes
 * memoized-vs-uncached cross-checking meaningful).
 */
void set_analysis_memo_enabled(bool on);

/** Drop every memo cache entry (affine, linear, effects). */
void clear_analysis_memo();

/** Aggregate hit/miss counts, for tests and benchmark reporting: a
 *  snapshot of the `analysis.*` registry counters (obs/metrics.h). */
struct AnalysisMemoStats
{
    uint64_t affine_hits = 0;
    uint64_t affine_misses = 0;
    uint64_t linear_hits = 0;
    uint64_t linear_misses = 0;
    uint64_t effects_hits = 0;
    uint64_t effects_misses = 0;
};

AnalysisMemoStats analysis_memo_stats();

namespace memo_internal {

/** Register a cache-clearing hook; called by clear_analysis_memo(). */
void register_clearer(void (*fn)());

/** One registration helper per cache translation unit. */
struct ClearerRegistration
{
    explicit ClearerRegistration(void (*fn)()) { register_clearer(fn); }
};

}  // namespace memo_internal

}  // namespace exo2

#endif  // EXO2_ANALYSIS_MEMO_H_
