#ifndef EXO2_TUNE_ACTIONS_H_
#define EXO2_TUNE_ACTIONS_H_

/**
 * @file
 * Action enumeration for the schedule autotuner (DESIGN.md §6).
 *
 * An *action* is one legal scheduling move at one cursor site of a
 * proc, emitted as a self-describing, replayable `FuzzStep`. Sites are
 * addressed by ordinals into deterministic pre-order walks (loops,
 * allocs), so a step is meaningful relative to the proc it was
 * enumerated on and replays bit-for-bit.
 *
 * The tuner vocabulary (integer operands first, name operands second):
 *
 *   t_divide[loop,factor,tail; io,ii]  divide_loop (tail 0=cut 1=guard
 *                                      2=perfect)
 *   t_reorder[loop]                    reorder_loops (swap with inner)
 *   t_unroll[loop]                     unroll_loop (const trip only)
 *   t_vectorize[loop,tail; machine,prec]
 *                                      sched::vectorize (tail 0=cut,
 *                                      1=cut+masked-guard)
 *   t_interleave[loop,factor]          sched::interleave_loop (ILP)
 *   t_cse[loop]                        sched::cse_reads
 *   t_licm[loop]                       sched::hoist_from_loop
 *   t_uaj[loop,factor]                 sched::unroll_and_jam
 *   t_lift_alloc[alloc,n]              lift_alloc (stage buffers out)
 *
 * Enumeration is *validated*: candidate sites come from cheap
 * structural scans, and every candidate is then applied once — for
 * composite combinators the only sound legality predicate is the
 * apply itself — so every returned action is known-good and carries
 * its resulting proc. Primitives signalling inapplicability must do so
 * via SchedulingError/InvalidCursorError; anything else (InternalError,
 * untyped exceptions) escapes, and the legality test suite treats it
 * as an engine bug.
 */

#include <vector>

#include "src/machine/machine.h"
#include "src/verify/fuzz.h"

namespace exo2 {
namespace tune {

/**
 * Version of the tuner's action vocabulary and of the scheduling
 * primitives it drives. Bump on ANY change that can alter what script
 * a given (kernel, machine, sizes) tune produces or how a recorded
 * script replays: new/removed actions, changed operand encodings,
 * changed enumeration order, changed primitive semantics. The
 * persistent tuning cache (src/cache/) keys its entries on this —
 * a bump invalidates every cached script, which is exactly the safe
 * behavior (DESIGN.md §8).
 */
constexpr int kScheduleLibraryVersion = 1;

/** The machine-derived part of the action space; the other operands
 *  and site caps are fixed (actions.cc). */
struct TuneSpace
{
    /** Loop-split factors (`t_divide`): vector-register multiples and
     *  cache-tile sides from `tile_hints`. */
    std::vector<int64_t> divide_factors;
};

/** The default space for `machine` at `precision` under `cfg`. */
TuneSpace default_space(const Machine& machine, ScalarType precision,
                        const struct CostConfig& cfg);

/** One validated action: the replayable step and its known result. */
struct TuneAction
{
    verify::FuzzStep step;
    ProcPtr result;
};

/**
 * Enumerate every legal action on `p`. Deterministic: site walks are
 * pre-order, op families in fixed order, factors in `space` order.
 * No-op actions (result structurally identical to `p`) are dropped.
 */
std::vector<TuneAction> enumerate_actions(const ProcPtr& p,
                                          const Machine& machine,
                                          ScalarType precision,
                                          const TuneSpace& space);

}  // namespace tune
}  // namespace exo2

#endif  // EXO2_TUNE_ACTIONS_H_
