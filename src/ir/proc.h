#ifndef EXO2_IR_PROC_H_
#define EXO2_IR_PROC_H_

/**
 * @file
 * Procedures of the Exo 2 object language, and the provenance chain
 * that makes cursor forwarding across scheduling steps possible.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/ir/path.h"
#include "src/ir/stmt.h"

namespace exo2 {

class Cursor;

/** A formal argument of a procedure. */
struct ProcArg
{
    std::string name;
    ScalarType type = ScalarType::F32;
    /** Buffer dimensions; empty means scalar. */
    std::vector<ExprPtr> dims;
    MemoryPtr mem;
    /** Size arguments (`N: size`) are Index-typed scalars. */
    bool is_size = false;
    /** Windowed buffer args (`[f32][M, N]`) have unknown strides. */
    bool is_window = false;
};

/**
 * Hardware-instruction metadata. Procs carrying this are *instructions*
 * (Exo `@instr`): their body gives the reference semantics, the template
 * gives the C rendering, and the cost fields feed the machine simulator.
 */
struct InstrInfo
{
    /**
     * C lowering template. Two forms:
     *  - a substitutable C statement snippet containing `{arg}`
     *    placeholders (one per formal argument name), expanded at each
     *    call site by the native-SIMD backend — e.g.
     *    `{dst} = _mm256_add_ps({a}, {b});`;
     *  - a plain identifier (or empty): the name of a helper function
     *    whose body is the instruction's scalar reference semantics.
     * Instructions with a snippet still fall back to the scalar helper
     * (emitted under the proc's own name) whenever native lowering is
     * disabled or a call site cannot satisfy the snippet's operand
     * contract (see DESIGN.md §5).
     */
    std::string c_template;
    /** Issue cost in cycles on the owning machine. */
    double cycles = 1.0;
    /** Behaviour class: "load", "store", "arith", "fma", "config", ... */
    std::string instr_class = "arith";

    /** Whether c_template is a substitutable snippet (vs a name). */
    bool has_native_template() const
    {
        return c_template.find('{') != std::string::npos;
    }
};

/** Records how a proc was derived from its parent (time coordinate). */
struct Provenance
{
    ProcPtr parent;
    ForwardFn fwd;
    std::string action;
};

/**
 * An immutable procedure.
 *
 * Scheduling primitives return a new Proc whose provenance points at the
 * input Proc together with a forwarding function; `Proc::forward` walks
 * and composes this chain (Section 5.2, "Forwarding").
 */
class Proc : public std::enable_shared_from_this<Proc>
{
  public:
    const std::string& name() const { return name_; }
    const std::vector<ProcArg>& args() const { return args_; }
    const std::vector<ExprPtr>& preds() const { return preds_; }
    const std::vector<StmtPtr>& body_stmts() const { return body_; }
    const std::optional<InstrInfo>& instr() const { return instr_; }

    /** Unique version id (the cursor time coordinate). */
    uint64_t uid() const { return uid_; }

    /** Uid of the original proc this one was scheduled from. */
    uint64_t root_uid() const { return root_uid_; }

    /**
     * Monotone generation stamp: 0 for a freshly made proc, parent's
     * generation + 1 for every derived version. Strictly increasing
     * along any provenance chain, so `a.generation() < b.generation()`
     * is necessary for `a` to be an ancestor of `b` — forwarding uses
     * it to stop chain walks early instead of running to the root.
     */
    uint64_t generation() const { return gen_; }

    const std::shared_ptr<const Provenance>& provenance() const
    {
        return provenance_;
    }

    /** Find the argument named `name`; nullptr if absent. */
    const ProcArg* find_arg(const std::string& name) const;

    bool is_instr() const { return instr_.has_value(); }

    // -- Factories / rebuilders ------------------------------------------

    static ProcPtr make(std::string name, std::vector<ProcArg> args,
                        std::vector<ExprPtr> preds,
                        std::vector<StmtPtr> body,
                        std::optional<InstrInfo> instr = std::nullopt);

    /**
     * Derive a new version with a new body; `fwd` forwards cursor
     * locations from this proc to the result, `action` names the
     * primitive for diagnostics.
     */
    ProcPtr with_body(std::vector<StmtPtr> body, ForwardFn fwd,
                      std::string action) const;

    /** Derived version that also changes args / preds. */
    ProcPtr with_signature(std::vector<ProcArg> args,
                           std::vector<ExprPtr> preds,
                           std::vector<StmtPtr> body, ForwardFn fwd,
                           std::string action) const;

    /** Same code under a new name (Exo `rename`); keeps equivalence. */
    ProcPtr renamed(std::string new_name) const;

    /** Add an assertion (Exo `add_assertion`); keeps equivalence. */
    ProcPtr with_assertion(ExprPtr pred) const;

    // -- Cursor conveniences (implemented in cursor/cursor.cc) -----------

    /** Cursor to the whole body block. */
    Cursor body() const;

    /** Find the For loop with iterator `name` ("i" or "i #2" for the
     *  third match). Throws SchedulingError if absent. */
    Cursor find_loop(const std::string& name) const;

    /** Find by pattern, e.g. "for i in _: _", "y[_] = _"; see
     *  cursor/pattern.h for the pattern language. */
    Cursor find(const std::string& pattern) const;

    /** All matches of a pattern (possibly none). */
    std::vector<Cursor> find_all(const std::string& pattern) const;

    /** Find the Alloc statement declaring `name`. */
    Cursor find_alloc(const std::string& name) const;

    /**
     * Forward a cursor made on an ancestor version of this proc to this
     * version (Section 5.2). Throws InvalidCursorError if the cursor's
     * proc is not an ancestor or forwarding invalidated the cursor.
     */
    Cursor forward(const Cursor& c) const;

  private:
    Proc() = default;

    static uint64_t next_uid();

    std::string name_;
    std::vector<ProcArg> args_;
    std::vector<ExprPtr> preds_;
    std::vector<StmtPtr> body_;
    std::optional<InstrInfo> instr_;
    uint64_t uid_ = 0;
    uint64_t root_uid_ = 0;
    uint64_t gen_ = 0;
    std::shared_ptr<const Provenance> provenance_;

    /** Lazily-computed `proc_digest` cache (the proc is immutable once
     *  published, so the digest never changes after first computation).
     *  Call-statement hashing folds in the callee's digest, so this is
     *  read on hot scheduling paths. Copies start cold, like
     *  SubtreeMemoSlot: the `with_*` rebuilders copy the node and then
     *  change digest-relevant fields. */
    struct DigestCache
    {
        uint64_t v = 0;
        bool valid = false;
        DigestCache() = default;
        DigestCache(const DigestCache&) {}
        DigestCache& operator=(const DigestCache&) { return *this; }
    };
    mutable DigestCache digest_;

    friend uint64_t proc_digest(const ProcPtr& p);
};

/** True if two procs are derived from the same original procedure. */
bool procs_equivalent(const ProcPtr& a, const ProcPtr& b);

/**
 * The declaration a use of a name refers to: a proc argument, or an
 * Alloc, WindowDecl or For. Empty when the name is unbound.
 */
struct Binding
{
    const ProcArg* arg = nullptr;  ///< the argument, if it is one
    StmtPtr decl;                  ///< the declaring statement otherwise

    explicit operator bool() const { return arg != nullptr || decl; }
};

/**
 * @name The lookup half of the scope rule (ir/stmt.h, DESIGN.md §12)
 * @{
 */

/**
 * The binding a use of `name` in the statement at `path` refers to,
 * searched innermost first: a For on the path whose iterator is
 * `name`, then the last declaration of `name` earlier in an enclosing
 * list, then the argument. The statement's own dims, window or loop
 * bounds see the binding outside it; `path` may end in a gap.
 */
Binding binding_at(const ProcPtr& p, const Path& path,
                   const std::string& name);

/** The shape of a buffer binding: an argument's or Alloc's dims, or a
 *  WindowDecl's interval extents (`hi - lo`; points take no dim).
 *  Empty for a scalar and for a loop iterator. */
std::vector<ExprPtr> binding_dims(const Binding& b);

/** @} */

/**
 * 64-bit structural digest of a procedure: signature (argument names,
 * types, dims, memories), assertions, instruction metadata, and body.
 * Built from the interned nodes' cached hashes, so it is O(signature +
 * top-level statements), not O(tree). Structurally identical procs give
 * equal digests regardless of how they were derived — the autotuner's
 * beam search uses this to deduplicate schedule states, and the cost
 * simulator's memo keys on it. The proc *name* is excluded (`renamed`
 * preserves semantics and cost).
 */
uint64_t proc_digest(const ProcPtr& p);

}  // namespace exo2

#endif  // EXO2_IR_PROC_H_
