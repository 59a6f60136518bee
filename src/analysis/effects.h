#ifndef EXO2_ANALYSIS_EFFECTS_H_
#define EXO2_ANALYSIS_EFFECTS_H_

/**
 * @file
 * Read/write/reduce effect sets and dependence checks.
 *
 * Accesses are collected with their guarding conditions and enclosing
 * binders; disjointness is decided by the linear checker. Calls are
 * handled by inlining the callee's effects through its argument
 * bindings (including window translation), so hardware instructions
 * participate in dependence analysis via their semantics bodies.
 */

#include <string>
#include <vector>

#include "src/analysis/context.h"

namespace exo2 {

/** How a statement touches a buffer (or config field / scalar). */
enum class AccessKind : uint8_t {
    Read,
    Write,
    Reduce,
};

/** One access to `buf` at `idx`, guarded and parameterized by binders. */
struct Access
{
    std::string buf;
    AccessKind kind = AccessKind::Read;
    /** Index expressions; empty for scalar variables. */
    std::vector<ExprPtr> idx;
    /** If set, indices are unknown: treat as touching everything. */
    bool whole_buffer = false;
    /** `buf` is declared inside the collected subtree (by an Alloc met
     *  earlier in an enclosing list there, or in a callee's body), so
     *  it is not the buffer of that name outside it. The cross-iteration
     *  checks skip such accesses; every other consumer compares by
     *  name, which can only add conflicts (DESIGN.md §12). */
    bool local = false;
    /** Loop binders introduced below the collection root. */
    std::vector<LoopBinder> binders;
    /** Guards (if-conditions) on the access. */
    std::vector<ExprPtr> guards;
};

/** "read" / "write" / "reduce". */
const char* access_kind_name(AccessKind k);

/** Render an access as `kind buf[idx, ...]` (e.g. `write y[i + 1]`;
 *  `[...]` for opaque whole-buffer accesses, bare name for scalars). */
std::string describe_access(const Access& a);

/**
 * One loop-carried conflict found by `loop_conflicts`: the pair of
 * accesses that may touch the same cell of `buf` in two distinct
 * iterations of the loop. `a`/`b` keep their original (un-renamed)
 * index expressions, so `describe_access(a)` names the conflicting
 * pair in the user's own binder names.
 */
struct LoopConflict
{
    std::string buf;
    Access a;
    Access b;
    /** Human-readable explanation (names buffer, kinds, indices). */
    std::string detail;
};

/**
 * Certifying cross-iteration dependence analysis: collect every
 * conflicting access pair of `loop` into `out` (empty => iterations
 * are independent). `reductions_ok` permits commuting Reduce/Reduce
 * pairs (loop_iterations_commute semantics); pass false for the strict
 * parallelism check (loop_parallelizable semantics). Sound in the
 * "no conflicts" direction: an empty result is a proof, a non-empty
 * one may contain false positives.
 */
bool loop_conflicts(const Context& ctx, const StmtPtr& loop,
                    bool reductions_ok, std::vector<LoopConflict>* out);

/** Collect all accesses in a statement (recursively, through calls). */
std::vector<Access> collect_accesses(const StmtPtr& s);

/** Collect all accesses in a block. */
std::vector<Access> collect_accesses_block(const std::vector<StmtPtr>& b);

/**
 * Can the two accesses refer to the same memory cell in a way that
 * matters for ordering? Read/Read never conflicts; Reduce/Reduce on the
 * same buffer commutes (associative `+=`). Binders of `b` are renamed
 * apart before the overlap test.
 */
bool accesses_conflict(const Context& ctx, const Access& a, const Access& b);

/**
 * Do `s1` and `s2` commute (can be reordered / run in either order)?
 * Conservative; `why` (optional) receives a diagnostic on failure.
 */
bool stmts_commute(const Context& ctx, const StmtPtr& s1, const StmtPtr& s2,
                   std::string* why = nullptr);

/**
 * Do different iterations of `loop` commute (no loop-carried
 * dependences, modulo commuting reductions)? Used by reorder_loops,
 * fission across a loop, and divide_with_recompute.
 */
bool loop_iterations_commute(const Context& ctx, const StmtPtr& loop,
                             std::string* why = nullptr);

/**
 * Strict parallelism check for `parallelize_loop`: no cross-iteration
 * write/write or read/write overlap at all (reductions count as
 * writes).
 */
bool loop_parallelizable(const Context& ctx, const StmtPtr& loop,
                         std::string* why = nullptr);

/**
 * Is a statement (or loop body) idempotent — executing it twice with
 * the same binder values equals executing it once? True for pure
 * assignments whose RHS does not read what the statement writes;
 * reductions are not idempotent. Used by remove_loop, add_loop,
 * divide_with_recompute.
 */
bool stmt_idempotent(const StmtPtr& s);
bool block_idempotent(const std::vector<StmtPtr>& b);

/** Does any access in `s` read buffer/var `name`? (through calls) */
bool stmt_reads(const StmtPtr& s, const std::string& name);

/** Does any access in `s` write or reduce buffer/var `name`? */
bool stmt_writes(const StmtPtr& s, const std::string& name);

}  // namespace exo2

#endif  // EXO2_ANALYSIS_EFFECTS_H_
