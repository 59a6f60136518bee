#include "src/cursor/cursor.h"

#include <algorithm>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/cursor/pattern.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/obs/metrics.h"

namespace exo2 {

void
Cursor::require_valid() const
{
    if (!valid_ || !proc_)
        throw InvalidCursorError("cursor is invalid");
}

void
Cursor::require_kind(CursorKind k, const char* what) const
{
    require_valid();
    if (loc_.kind != k)
        throw InvalidCursorError(std::string("cursor is not a ") + what);
}

StmtPtr
Cursor::stmt() const
{
    require_kind(CursorKind::Node, "node");
    return stmt_at(proc_, loc_.path);
}

ExprPtr
Cursor::expr() const
{
    require_kind(CursorKind::Node, "node");
    return expr_at(proc_, loc_.path);
}

std::vector<StmtPtr>
Cursor::stmts() const
{
    require_valid();
    if (loc_.kind == CursorKind::Node)
        return {stmt()};
    require_kind(CursorKind::Block, "block");
    int lo = 0;
    ListAddr addr = list_addr_of(loc_.path, &lo);
    const auto& list = stmt_list_at(proc_, addr);
    if (lo < 0 || loc_.hi > static_cast<int>(list.size()) || lo > loc_.hi)
        throw InvalidCursorError("block range out of bounds");
    return std::vector<StmtPtr>(list.begin() + lo, list.begin() + loc_.hi);
}

std::string
Cursor::name() const
{
    StmtPtr s = stmt();
    switch (s->kind()) {
      case StmtKind::For:
        return s->iter();
      case StmtKind::Call:
        return s->callee() ? s->callee()->name() : s->name();
      default:
        return s->name();
    }
}

int
Cursor::list_index() const
{
    require_valid();
    if (loc_.path.empty() || !is_stmt_list_label(loc_.path.back().label))
        throw InvalidCursorError("cursor is not inside a statement list");
    return loc_.path.back().index;
}

Cursor
Cursor::parent() const
{
    require_valid();
    if (loc_.path.size() <= 1)
        throw InvalidCursorError("parent of a top-level statement");
    CursorLoc l;
    l.kind = CursorKind::Node;
    l.path = Path(loc_.path.begin(), loc_.path.end() - 1);
    // Expression cursors may sit several labels under their statement;
    // parent() of an expression child is the enclosing node either way.
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::next(int k) const
{
    require_kind(CursorKind::Node, "node");
    int i = list_index();
    CursorLoc l = loc_;
    l.path.back().index = i + k;
    Cursor c(proc_, l);
    c.stmt();  // validate
    return c;
}

Cursor
Cursor::prev(int k) const
{
    return next(-k);
}

Cursor
Cursor::before() const
{
    require_kind(CursorKind::Node, "node");
    CursorLoc l = loc_;
    l.kind = CursorKind::Gap;
    (void)list_index();
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::after() const
{
    require_kind(CursorKind::Node, "node");
    CursorLoc l = loc_;
    l.kind = CursorKind::Gap;
    l.path.back().index = list_index() + 1;
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::body() const
{
    StmtPtr s = stmt();
    if (s->kind() != StmtKind::For && s->kind() != StmtKind::If)
        throw InvalidCursorError("body() of a statement without a body");
    CursorLoc l;
    l.kind = CursorKind::Block;
    l.path = loc_.path;
    l.path.push_back({PathLabel::Body, 0});
    l.hi = static_cast<int>(s->body().size());
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::orelse_block() const
{
    StmtPtr s = stmt();
    if (s->kind() != StmtKind::If)
        throw InvalidCursorError("orelse() of a non-if statement");
    CursorLoc l;
    l.kind = CursorKind::Block;
    l.path = loc_.path;
    l.path.push_back({PathLabel::Orelse, 0});
    l.hi = static_cast<int>(s->orelse().size());
    return Cursor(proc_, std::move(l));
}

std::vector<Cursor>
Cursor::body_list() const
{
    Cursor blk = body();
    std::vector<Cursor> out;
    for (int i = 0; i < blk.block_size(); i++)
        out.push_back(blk[i]);
    return out;
}

Cursor
Cursor::cond() const
{
    StmtPtr s = stmt();
    if (!s->cond())
        throw InvalidCursorError("statement has no condition");
    CursorLoc l = loc_;
    l.path.push_back({PathLabel::Cond, -1});
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::lo() const
{
    StmtPtr s = stmt();
    if (!s->lo())
        throw InvalidCursorError("statement has no lower bound");
    CursorLoc l = loc_;
    l.path.push_back({PathLabel::Lo, -1});
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::hi() const
{
    StmtPtr s = stmt();
    if (!s->hi())
        throw InvalidCursorError("statement has no upper bound");
    CursorLoc l = loc_;
    l.path.push_back({PathLabel::Hi, -1});
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::rhs() const
{
    StmtPtr s = stmt();
    if (!s->rhs())
        throw InvalidCursorError("statement has no rhs");
    CursorLoc l = loc_;
    l.path.push_back({PathLabel::Rhs, -1});
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::idx(int i) const
{
    StmtPtr s = stmt();
    if (i < 0 || i >= static_cast<int>(s->idx().size()))
        throw InvalidCursorError("index out of range");
    CursorLoc l = loc_;
    l.path.push_back({PathLabel::Idx, i});
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::expand(int delta_lo, int delta_hi) const
{
    require_valid();
    int lo = 0;
    int hi = 0;
    CursorLoc l = loc_;
    if (loc_.kind == CursorKind::Node) {
        lo = list_index();
        hi = lo + 1;
    } else if (loc_.kind == CursorKind::Block) {
        lo = loc_.path.back().index;
        hi = loc_.hi;
    } else {
        throw InvalidCursorError("cannot expand a gap cursor");
    }
    lo -= delta_lo;
    hi += delta_hi;
    ListAddr addr = list_addr_of(loc_.path, nullptr);
    const auto& list = stmt_list_at(proc_, addr);
    if (lo < 0 || hi > static_cast<int>(list.size()) || lo >= hi)
        throw InvalidCursorError("expand out of range");
    l.kind = CursorKind::Block;
    l.path.back().index = lo;
    l.hi = hi;
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::as_block() const
{
    return expand(0, 0);
}

int
Cursor::block_size() const
{
    require_kind(CursorKind::Block, "block");
    return loc_.hi - loc_.path.back().index;
}

Cursor
Cursor::operator[](int i) const
{
    require_kind(CursorKind::Block, "block");
    int lo = loc_.path.back().index;
    if (i < 0 || lo + i >= loc_.hi)
        throw InvalidCursorError("block index out of range");
    CursorLoc l = loc_;
    l.kind = CursorKind::Node;
    l.path.back().index = lo + i;
    l.hi = -1;
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::block_before() const
{
    require_kind(CursorKind::Block, "block");
    CursorLoc l = loc_;
    l.kind = CursorKind::Gap;
    l.hi = -1;
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::block_after() const
{
    require_kind(CursorKind::Block, "block");
    CursorLoc l = loc_;
    l.kind = CursorKind::Gap;
    l.path.back().index = loc_.hi;
    l.hi = -1;
    return Cursor(proc_, std::move(l));
}

Cursor
Cursor::find(const std::string& pattern) const
{
    require_valid();
    return pattern_find_one(proc_, loc_.path, pattern);
}

std::vector<Cursor>
Cursor::find_all(const std::string& pattern) const
{
    require_valid();
    return pattern_find_all(proc_, loc_.path, pattern);
}

Cursor
Cursor::find_loop(const std::string& name) const
{
    require_valid();
    return pattern_find_loop(proc_, loc_.path, name);
}

namespace {

uint64_t
cursor_loc_hash(const CursorLoc& l)
{
    uint64_t h = hash_combine(static_cast<uint64_t>(l.kind),
                              static_cast<uint64_t>(l.hi) + 1);
    for (const PathStep& s : l.path) {
        h = hash_combine(h, (static_cast<uint64_t>(s.label) << 32) ^
                                static_cast<uint64_t>(s.index + 1));
    }
    return h;
}

/**
 * Key of a memoized forwarding result: the origin (proc uid + location
 * the cursor was created with) and the proc version the location has
 * been forwarded to. Proc uids are never reused and procs are
 * immutable, so entries can never go stale.
 */
struct FwdKey
{
    uint64_t target_uid;
    uint64_t origin_uid;
    CursorLoc loc;

    bool operator==(const FwdKey& o) const
    {
        return target_uid == o.target_uid && origin_uid == o.origin_uid &&
               loc == o.loc;
    }
};

struct FwdKeyHash
{
    size_t operator()(const FwdKey& k) const
    {
        return static_cast<size_t>(hash_combine(
            hash_combine(k.target_uid, k.origin_uid), cursor_loc_hash(k.loc)));
    }
};

using FwdCache =
    std::unordered_map<FwdKey, std::optional<CursorLoc>, FwdKeyHash>;

FwdCache&
fwd_cache()
{
    static auto* c = new FwdCache();
    return *c;
}

void
clear_fwd_cache()
{
    fwd_cache().clear();
}

accel_internal::ClearerRegistration fwd_cache_reg(&clear_fwd_cache);

constexpr size_t kFwdCacheCap = 1u << 20;

[[noreturn]] void
not_an_ancestor()
{
    throw InvalidCursorError(
        "cursor's procedure is not an ancestor of the target");
}

/** Pre-compression forwarding: replay the whole provenance chain. */
Cursor
forward_cursor_naive(const ProcPtr& p, const Cursor& c)
{
    std::vector<const Provenance*> chain;
    const Proc* cur = p.get();
    while (cur && cur->uid() != c.proc()->uid()) {
        const auto& prov = cur->provenance();
        if (!prov)
            not_an_ancestor();
        chain.push_back(prov.get());
        cur = prov->parent.get();
    }
    if (!cur)
        not_an_ancestor();
    std::optional<CursorLoc> loc = c.loc();
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        loc = (*it)->fwd(*loc);
        if (!loc)
            return Cursor::invalid(p);
    }
    return Cursor(p, *loc);
}

}  // namespace

Cursor
forward_cursor(const ProcPtr& p, const Cursor& c)
{
    if (!c.proc())
        throw InvalidCursorError("cannot forward a null cursor");
    if (!c.is_valid())
        return Cursor::invalid(p);
    if (c.proc()->uid() == p->uid())
        return Cursor(p, c.loc());
    if (!forwarding_compression_enabled())
        return forward_cursor_naive(p, c);

    // Path compression (DESIGN.md §3): walk up from `p` until we reach
    // the origin or a version whose resolved location is memoized, then
    // apply only the remaining (unseen) provenance suffix, caching the
    // resolved location at every version on the way back down. A cursor
    // forwarded after each of n scheduling steps thus pays O(1) per
    // step amortized: each edit's forwarding function runs at most once
    // per distinct (origin, location).
    const uint64_t origin_uid = c.proc()->uid();
    const uint64_t origin_gen = c.proc()->generation();
    auto& cache = fwd_cache();
    std::vector<const Proc*> pending;  // versions whose fwd is unapplied
    std::optional<CursorLoc> loc;
    const Proc* cur = p.get();
    // One key for the whole walk (the origin loc's path vector is
    // heap-allocated; copying it per probe would put an allocation in
    // the exact hot loop this cache removes).
    FwdKey key{0, origin_uid, c.loc()};
    for (;;) {
        if (cur->uid() == origin_uid) {
            loc = c.loc();
            break;
        }
        key.target_uid = cur->uid();
        auto it = cache.find(key);
        if (it != cache.end()) {
            EXO2_COUNT("cursor.fwd_hits");
            loc = it->second;
            break;
        }
        // Generations are strictly increasing along provenance chains:
        // once below the origin's generation, the origin is unreachable.
        if (cur->generation() <= origin_gen || !cur->provenance())
            not_an_ancestor();
        pending.push_back(cur);
        cur = cur->provenance()->parent.get();
    }
    // Evict before (not during) the descent so a cap-crossing walk
    // never discards the entries it is in the middle of inserting.
    if (cache.size() + pending.size() >= kFwdCacheCap)
        cache.clear();
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
        if (loc) {
            loc = (*it)->provenance()->fwd(*loc);
            EXO2_COUNT("cursor.fwd_misses");
        }
        key.target_uid = (*it)->uid();
        cache.emplace(key, loc);
    }
    if (!loc)
        return Cursor::invalid(p);
    return Cursor(p, *loc);
}

// ---- Proc cursor conveniences (declared in ir/proc.h) ------------------

Cursor
Proc::body() const
{
    CursorLoc l;
    l.kind = CursorKind::Block;
    l.path = {{PathLabel::Body, 0}};
    l.hi = static_cast<int>(body_.size());
    return Cursor(shared_from_this(), std::move(l));
}

Cursor
Proc::find(const std::string& pattern) const
{
    return pattern_find_one(shared_from_this(), {}, pattern);
}

std::vector<Cursor>
Proc::find_all(const std::string& pattern) const
{
    return pattern_find_all(shared_from_this(), {}, pattern);
}

Cursor
Proc::find_loop(const std::string& name) const
{
    return pattern_find_loop(shared_from_this(), {}, name);
}

Cursor
Proc::find_alloc(const std::string& name) const
{
    return pattern_find_alloc(shared_from_this(), {}, name);
}

Cursor
Proc::forward(const Cursor& c) const
{
    return forward_cursor(shared_from_this(), c);
}

}  // namespace exo2
