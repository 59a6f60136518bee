#ifndef EXO2_IR_INTERNER_H_
#define EXO2_IR_INTERNER_H_

/**
 * @file
 * Hash-consing support for the IR.
 *
 * Every `Expr` is interned at construction: the factory functions in
 * expr.cc consult a process-global table keyed by a 64-bit structural
 * hash and return the existing node when a structurally identical one
 * was built before. Two consequences the rest of the system leans on:
 *
 *  1. Structural equality of expressions is pointer equality: the
 *     table compares colliding candidates field by field, so two
 *     distinct nodes are never structurally equal and `a == b` decides
 *     equality. That makes substitution no-op detection and pattern
 *     matching cheap along the spine-rebuilding edits of
 *     `cursor/edits.cc`.
 *  2. Interned nodes are retained for the lifetime of the process, so
 *     a raw `const Expr*` (or its dense `intern_id()`) is a stable key
 *     for the analysis memo caches — no ABA hazard, no pinning needed.
 *
 * `Stmt` nodes are NOT interned (their identity participates in cursor
 * semantics and they embed `ProcPtr` callees), but they carry the same
 * cached 64-bit structural hash for fast inequality rejection and for
 * keying per-subtree analysis caches.
 *
 * This file holds the hash primitives shared by expr.cc / stmt.cc and
 * the introspection API for tests; the table itself lives in expr.cc
 * because it needs access to Expr's private constructor.
 */

#include <cstdint>
#include <string>

namespace exo2 {

/** splitmix64 finalizer: cheap, well-distributed 64-bit mixer. */
inline uint64_t
hash_mix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Order-dependent combine of a new value into a running hash. */
inline uint64_t
hash_combine(uint64_t seed, uint64_t v)
{
    return hash_mix(seed ^ (v + 0x9E3779B97F4A7C15ull + (seed << 6) +
                            (seed >> 2)));
}

/** FNV-1a over the bytes of a string. */
inline uint64_t
hash_str(const std::string& s)
{
    uint64_t h = 1469598103934665603ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** Interner introspection (implemented in expr.cc); hits and misses
 *  are the `ir.interner_*` registry counters (obs/metrics.h). */
struct InternerStats
{
    uint64_t live_nodes = 0;  ///< distinct interned expressions
    uint64_t hits = 0;        ///< factory calls answered by the table
    uint64_t misses = 0;      ///< factory calls that inserted a node
};

InternerStats expr_interner_stats();

}  // namespace exo2

#endif  // EXO2_IR_INTERNER_H_
