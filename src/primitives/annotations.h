#ifndef EXO2_PRIMITIVES_ANNOTATIONS_H_
#define EXO2_PRIMITIVES_ANNOTATIONS_H_

/**
 * @file
 * Backend-checked annotations (Appendix A.7) and configuration-state
 * primitives (Appendix A.8). Annotation consistency (memory access
 * legality, precision agreement) is re-validated by the code generator
 * and the machine simulator; the primitives here perform the local
 * checks that can be done at scheduling time.
 */

#include <string>

#include "src/primitives/common.h"

namespace exo2 {

/** Change the memory space of an allocation. */
ProcPtr set_memory(const ProcPtr& p, const Cursor& alloc,
                   const MemoryPtr& mem);

/** Change the element precision of an allocation. */
ProcPtr set_precision(const ProcPtr& p, const Cursor& alloc, ScalarType t);

/** Mark a loop parallel; requires no cross-iteration RAW/WAW. */
ProcPtr parallelize_loop(const ProcPtr& p, const Cursor& loop);

/**
 * Introduce a configuration-state binding: the expression at `e` is
 * written into `cfg.field` before the enclosing statement, and the
 * occurrence is replaced by a read of the field (Appendix A.8).
 */
ProcPtr bind_config(const ProcPtr& p, const Cursor& e,
                    const std::string& cfg, const std::string& field);

/** Delete a configuration write whose value is never read afterwards. */
ProcPtr delete_config(const ProcPtr& p, const Cursor& config_write);

/** Insert `cfg.field = e` at `gap`. */
ProcPtr write_config(const ProcPtr& p, const Cursor& gap,
                     const std::string& cfg, const std::string& field,
                     const ExprPtr& e);

/**
 * Insert a call to a configuration instruction (instr_class "config",
 * body all WriteConfig) at `gap`. Configuration state written by such
 * instructions is semantically transparent unless read later; the
 * check mirrors write_config's.
 */
ProcPtr insert_config_call(const ProcPtr& p, const Cursor& gap,
                           const ProcPtr& config_instr,
                           std::vector<ExprPtr> args);

/** Delete a configuration-instruction call whose fields are unread. */
ProcPtr delete_config_call(const ProcPtr& p, const Cursor& call);

}  // namespace exo2

#endif  // EXO2_PRIMITIVES_ANNOTATIONS_H_
