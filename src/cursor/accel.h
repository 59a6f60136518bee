#ifndef EXO2_CURSOR_ACCEL_H_
#define EXO2_CURSOR_ACCEL_H_

/**
 * @file
 * Control plane for the cursor-layer acceleration caches
 * (DESIGN.md §3, "Forwarding compression and pattern indexes").
 *
 * Two independent structures make long schedules scale ~linearly:
 *
 *  - **Forwarding path compression** (cursor/cursor.cc): resolved
 *    cursor locations are memoized per (proc version, cursor origin,
 *    origin location) with union-find-style path compression, so
 *    forwarding a cursor across a schedule of n primitives is
 *    amortized O(1) instead of an O(n) provenance replay.
 *  - **Pattern subtree indexes** (cursor/pattern.cc): every immutable
 *    `Stmt` subtree carries a memoized summary of the (statement kind,
 *    name) keys occurring in it; `pattern_find_all` prunes whole
 *    subtrees whose summary cannot contain the query key. Summaries
 *    are keyed on `Stmt*` identity, so spine-sharing edits reuse all
 *    untouched subtrees' entries — the index is incremental for free.
 *
 * Both caches key on immutable identities (proc uids are never reused,
 * statement nodes are never mutated), so entries can never go stale;
 * management is size-capped eviction only. The kill switches exist for
 * the ablation benchmarks and the randomized equivalence tests, which
 * cross-check the accelerated paths against naive replay / full-tree
 * search. Like the analysis memo caches, these are single-threaded by
 * design (scheduling applies one primitive at a time).
 */

#include <cstdint>
#include <memory>

namespace exo2 {

/** Is forwarding path compression consulted? Defaults to true. */
bool forwarding_compression_enabled();

/**
 * Enable or disable forwarding path compression. Disabling also clears
 * the forwarding memo, so a later re-enable starts cold; while off,
 * `forward_cursor` replays the provenance chain naively.
 */
void set_forwarding_compression_enabled(bool on);

/** Is the pattern subtree index consulted? Defaults to true. */
bool pattern_index_enabled();

/**
 * Enable or disable the pattern subtree index. While off,
 * `pattern_find_all` walks the full tree without pruning.
 */
void set_pattern_index_enabled(bool on);

/** Drop every cursor-acceleration cache entry. */
void clear_cursor_accel_caches();

/**
 * Validation epoch of the inline `SubtreeMemoSlot` caches on `Stmt`
 * (ir/stmt.h): a slot is valid only while its stored epoch matches.
 * `clear_cursor_accel_caches` bumps this, invalidating every inline
 * entry at once (there is no global registry of filled slots to walk).
 * Starts at 1 so default-constructed slots (epoch 0) never validate.
 */
uint64_t cursor_accel_epoch();

/** Hit/miss counts, for tests and benchmark reporting: a snapshot of
 *  the `cursor.*` registry counters (obs/metrics.h). */
struct CursorAccelStats
{
    /** Forwarding memo hits (walk stopped at a cached ancestor). */
    uint64_t fwd_hits = 0;
    /** Forwarding steps that had to apply a provenance edit. */
    uint64_t fwd_misses = 0;
    /** Subtree-summary reuses across proc versions. */
    uint64_t index_hits = 0;
    /** Subtree summaries built from scratch. */
    uint64_t index_misses = 0;
    /** Subtrees skipped by index pruning during pattern search. */
    uint64_t index_pruned = 0;
};

CursorAccelStats cursor_accel_stats();

/**
 * Epoch-validated probe-or-build protocol of the inline
 * `SubtreeMemoSlot` caches: returns the cached summary when the slot's
 * epoch is current, otherwise builds (via `build`, returning a
 * `shared_ptr<const Summary>`), stores, and stamps. Shared by the
 * pattern subtree index (cursor/pattern.cc) and the binder-name
 * summaries (primitives/common.cc) so the validation protocol cannot
 * diverge between them. The returned pointer is owned by the slot and
 * stays valid while the statement lives and no clear intervenes.
 */
template <typename Summary, typename Slot, typename BuildFn>
const Summary*
probe_subtree_memo(const Slot& slot, BuildFn&& build)
{
    uint64_t epoch = cursor_accel_epoch();
    if (slot.epoch == epoch)
        return static_cast<const Summary*>(slot.data.get());
    std::shared_ptr<const Summary> sum = build();
    const Summary* out = sum.get();
    slot.data = std::move(sum);
    slot.epoch = epoch;
    return out;
}

namespace accel_internal {

/** Register a cache-clearing hook; called by clear_cursor_accel_caches
 *  and by the kill switches when toggled. */
void register_clearer(void (*fn)());

/** One registration helper per cache translation unit. */
struct ClearerRegistration
{
    explicit ClearerRegistration(void (*fn)()) { register_clearer(fn); }
};

}  // namespace accel_internal

}  // namespace exo2

#endif  // EXO2_CURSOR_ACCEL_H_
