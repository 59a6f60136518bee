#include "src/tune/actions.h"

#include <algorithm>

#include "src/analysis/affine.h"
#include "src/cursor/cursor.h"
#include "src/ir/errors.h"
#include "src/machine/cost_sim.h"
#include "src/obs/trace.h"
#include "src/primitives/primitives.h"
#include "src/tune/tune.h"

namespace exo2 {
namespace tune {

namespace {

/** `t_interleave` and `t_uaj` factors. */
constexpr int kInterleaveFactors[] = {2, 4};
constexpr int kJamFactors[] = {2, 4};
/** `t_unroll` only fires on constant trip counts <= this. */
constexpr int64_t kUnrollMaxTrip = 8;
/** `t_interleave` only fires on loops with at most this many direct
 *  body statements, and `t_uaj` on nests of at most this many
 *  statements (see enumerate_actions). */
constexpr size_t kMaxInterleaveBody = 16;
constexpr size_t kMaxUajStmts = 8;

/** Structural facts about one loop subtree, for cheap prefilters. */
struct LoopShape
{
    bool has_inner_for = false;
    bool has_call = false;
    bool has_write = false;  ///< Assign / Reduce anywhere beneath
    size_t stmt_count = 0;   ///< statements in the whole subtree
};

void
scan_shape(const std::vector<StmtPtr>& block, LoopShape* sh)
{
    for (const StmtPtr& s : block) {
        sh->stmt_count++;
        switch (s->kind()) {
          case StmtKind::For:
            sh->has_inner_for = true;
            break;
          case StmtKind::Call:
            sh->has_call = true;
            break;
          case StmtKind::Assign:
          case StmtKind::Reduce:
            sh->has_write = true;
            break;
          default:
            break;
        }
        scan_shape(s->body(), sh);
        scan_shape(s->orelse(), sh);
    }
}

LoopShape
shape_of(const StmtPtr& loop)
{
    LoopShape sh;
    scan_shape(loop->body(), &sh);
    return sh;
}

/** Constant trip count of a loop, or -1 when not constant. */
int64_t
const_trip(const StmtPtr& loop)
{
    Affine lo = to_affine(loop->lo());
    Affine hi = to_affine(loop->hi());
    if (!lo.is_const() || !hi.is_const())
        return -1;
    return hi.constant - lo.constant;
}

}  // namespace

TuneSpace
default_space(const Machine& machine, ScalarType precision,
              const CostConfig& cfg)
{
    TileHints hints = tile_hints(machine, precision, cfg);
    TuneSpace sp;
    sp.divide_factors = hints.split_factors;
    for (int64_t t : hints.cache_tiles) {
        if (std::find(sp.divide_factors.begin(), sp.divide_factors.end(),
                      t) == sp.divide_factors.end())
            sp.divide_factors.push_back(t);
    }
    return sp;
}

ProcPtr
replay_script(const ProcPtr& p, const std::vector<FuzzStep>& script)
{
    ProcPtr cur = p;
    for (const FuzzStep& st : script)
        cur = verify::apply_fuzz_step(cur, st);
    return cur;
}

std::vector<TuneAction>
enumerate_actions(const ProcPtr& p, const Machine& machine,
                  ScalarType precision, const TuneSpace& space)
{
    EXO2_SPAN("tune.enumerate", {{"proc", p->name()}});
    verify::Sites w = verify::walk_sites(p);
    uint64_t base_digest = proc_digest(p);
    std::vector<TuneAction> out;

    // Try one candidate: apply, drop inapplicable (SchedulingError /
    // InvalidCursorError) and no-op results. Anything else escapes —
    // a primitive reporting inapplicability with the wrong exception
    // type is an engine bug the legality tests must see.
    auto consider = [&](FuzzStep st) {
        ProcPtr res;
        try {
            res = verify::apply_fuzz_step(p, w, st);
        } catch (const SchedulingError&) {
            return;
        } catch (const InvalidCursorError&) {
            return;
        }
        if (!res || proc_digest(res) == base_digest)
            return;
        out.push_back({std::move(st), std::move(res)});
    };

    for (size_t li = 0; li < w.loops.size(); li++) {
        int64_t l = static_cast<int64_t>(li);
        StmtPtr loop = w.loops[li].stmt();
        LoopShape sh = shape_of(loop);
        int64_t trip = const_trip(loop);

        // Vectorize innermost compute loops (the combinator internally
        // re-bases, divides by the vector width, stages, fissions, and
        // replaces with machine instructions).
        if (!sh.has_inner_for && !sh.has_call && sh.has_write) {
            consider({"t_vectorize",
                      {l, 0},
                      {machine.name(), type_name(precision)}});
            if (machine.supports_predication()) {
                consider({"t_vectorize",
                          {l, 1},
                          {machine.name(), type_name(precision)}});
            }
        }

        // Tile: divide by register multiples and cache-tile sides.
        for (int64_t f : space.divide_factors) {
            if (f < 2 || (trip >= 0 && trip <= f))
                continue;
            std::string io = fresh_in(p, loop->iter() + "o");
            std::string ii = fresh_in(p, loop->iter() + "i");
            consider({"t_divide", {l, f, 0}, {io, ii}});
        }

        if (loop->body().size() == 1 &&
            loop->body()[0]->kind() == StmtKind::For) {
            consider({"t_reorder", {l}, {}});
        }

        if (trip >= 2 && trip <= kUnrollMaxTrip) {
            consider({"t_unroll", {l}, {}});
        }

        // Interleave vectorized (instruction-calling) loops for ILP.
        // The body-size cap stops the search from stacking interleaves
        // into unbounded unrolling (the cost model prices the saved
        // loop overhead but not the instruction-cache footprint).
        if (sh.has_call && !sh.has_inner_for &&
            loop->body().size() <= kMaxInterleaveBody) {
            for (int f : kInterleaveFactors) {
                if (trip >= 0 && trip <= f)
                    continue;
                consider({"t_interleave", {l, f}, {}});
            }
        }

        if (!sh.has_call)
            consider({"t_cse", {l}, {}});

        consider({"t_licm", {l}, {}});

        // Unroll-and-jam batches outer iterations into the inner loop
        // for input reuse. The subtree cap stops jam-stacking (jamming
        // an already-jammed nest multiplies body size; the cost model
        // sees the saved loads but not the register pressure).
        if (sh.has_inner_for && sh.stmt_count <= kMaxUajStmts) {
            for (int f : kJamFactors) {
                if (trip >= 0 && trip <= f)
                    continue;
                consider({"t_uaj", {l, f}, {}});
            }
        }
    }

    for (size_t ai = 0; ai < w.allocs.size(); ai++) {
        consider({"t_lift_alloc", {static_cast<int64_t>(ai), 1}, {}});
        consider({"t_lift_alloc", {static_cast<int64_t>(ai), 2}, {}});
    }

    return out;
}

}  // namespace tune
}  // namespace exo2
