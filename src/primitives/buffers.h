#ifndef EXO2_PRIMITIVES_BUFFERS_H_
#define EXO2_PRIMITIVES_BUFFERS_H_

/**
 * @file
 * Buffer transformation primitives (Appendix A.5): allocation motion,
 * dimension surgery, staging, and expression binding.
 */

#include <string>
#include <vector>

#include "src/primitives/common.h"

namespace exo2 {

/** Hoist an Alloc out of `n_lifts` enclosing loops/ifs. */
ProcPtr lift_alloc(const ProcPtr& p, const Cursor& alloc, int n_lifts = 1);

/** Sink an Alloc into the immediately following For/If. */
ProcPtr sink_alloc(const ProcPtr& p, const Cursor& alloc);

/** Delete a dead buffer (no remaining accesses). */
ProcPtr delete_buffer(const ProcPtr& p, const Cursor& alloc);

/** Replace buffer `b` by same-shaped earlier buffer `a` (Appendix A.5). */
ProcPtr reuse_buffer(const ProcPtr& p, const Cursor& a_alloc,
                     const Cursor& b_alloc);

/** Resize dimension `dim` to `sz`, shifting accesses by `-off`. */
ProcPtr resize_dim(const ProcPtr& p, const Cursor& alloc, int dim,
                   const ExprPtr& sz, const ExprPtr& off);

/** Prepend a new dimension of size `sz`, indexed by `idx` at accesses. */
ProcPtr expand_dim(const ProcPtr& p, const Cursor& alloc, const ExprPtr& sz,
                   const ExprPtr& idx);

/** Permute buffer dimensions by `perm` (perm[i] = old dim at new pos i). */
ProcPtr rearrange_dim(const ProcPtr& p, const Cursor& alloc,
                      const std::vector<int>& perm);

/** Split dimension `dim` by constant `c` into (dim/c, c). */
ProcPtr divide_dim(const ProcPtr& p, const Cursor& alloc, int dim,
                   int64_t c);

/** Fuse dimensions `dim` and `dim+1` (the latter constant-sized). */
ProcPtr mult_dim(const ProcPtr& p, const Cursor& alloc, int dim);

/** Explode a constant dimension accessed at constant indices into
 *  separate scalar buffers `name_0 .. name_{c-1}`. */
ProcPtr unroll_buffer(const ProcPtr& p, const Cursor& alloc, int dim);

/**
 * Stage the expression at `e` into a new scalar: inserts
 * `name: T; name = e` before the enclosing statement and replaces the
 * occurrence (all structurally equal occurrences when `cse`).
 */
ProcPtr bind_expr(const ProcPtr& p, const Cursor& e,
                  const std::string& new_name, bool cse = false);

/** Result of stage_mem: the proc plus cursors to the new code. */
struct StageMemResult
{
    ProcPtr p;
    Cursor alloc;
    Cursor load;   ///< invalid when staging write-only buffers
    Cursor store;  ///< invalid when the block never writes the buffer
    Cursor block;  ///< the rewritten block
};

/**
 * Stage the `window` of buffer `buf` into a new buffer `new_name`
 * around `block` (Appendix A.5): copy-in loops, access rewriting, and
 * copy-out loops when the block writes the buffer. Point dims of the
 * window are fixed coordinates; interval dims become tmp dimensions.
 */
StageMemResult stage_mem(const ProcPtr& p, const Cursor& block,
                         const std::string& buf,
                         const std::vector<WindowDim>& window,
                         const std::string& new_name);

}  // namespace exo2

#endif  // EXO2_PRIMITIVES_BUFFERS_H_
