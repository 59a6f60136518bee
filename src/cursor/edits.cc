#include "src/cursor/edits.h"

#include "src/ir/errors.h"
#include "src/obs/trace.h"

namespace exo2 {

namespace {

/** Does `path` start with `prefix`? */
bool
has_prefix(const Path& path, const Path& prefix)
{
    if (path.size() < prefix.size())
        return false;
    for (size_t i = 0; i < prefix.size(); i++) {
        if (!(path[i] == prefix[i]))
            return false;
    }
    return true;
}

/**
 * Relation of a location to a statement list: whether its path passes
 * through the list, and if so at which path depth.
 */
struct ListRelation
{
    bool through = false;
    size_t depth = 0;  ///< index of the step addressing the list
};

ListRelation
relate(const CursorLoc& loc, const ListAddr& addr)
{
    ListRelation r;
    size_t d = addr.parent.size();
    if (loc.path.size() <= d)
        return r;
    if (!has_prefix(loc.path, addr.parent))
        return r;
    if (loc.path[d].label != addr.label)
        return r;
    r.through = true;
    r.depth = d;
    return r;
}

/** Whether the list step is the final step of the path. */
bool
is_final(const CursorLoc& loc, size_t depth)
{
    return loc.path.size() == depth + 1;
}

}  // namespace

ForwardFn
fwd_identity()
{
    return [](const CursorLoc& l) { return std::optional<CursorLoc>(l); };
}

ForwardFn
fwd_invalidate_below(Path prefix)
{
    return [prefix = std::move(prefix)](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        if (l.path.size() > prefix.size() && has_prefix(l.path, prefix))
            return std::nullopt;
        return l;
    };
}

ForwardFn
fwd_insert(ListAddr addr, int gap, int count)
{
    return [addr = std::move(addr), gap, count](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        ListRelation r = relate(l, addr);
        if (!r.through)
            return l;
        CursorLoc out = l;
        int i = l.path[r.depth].index;
        if (is_final(l, r.depth) && l.kind == CursorKind::Gap) {
            // The insertion gap itself keeps pointing before the new code.
            if (i > gap)
                out.path[r.depth].index = i + count;
            return out;
        }
        if (is_final(l, r.depth) && l.kind == CursorKind::Block) {
            int lo = i;
            int hi = l.hi;
            if (gap <= lo) {
                out.path[r.depth].index = lo + count;
                out.hi = hi + count;
            } else if (gap < hi) {
                out.hi = hi + count;  // block grows over the insertion
            }
            return out;
        }
        if (i >= gap)
            out.path[r.depth].index = i + count;
        return out;
    };
}

ForwardFn
fwd_erase(ListAddr addr, int lo, int hi)
{
    return [addr = std::move(addr), lo, hi](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        ListRelation r = relate(l, addr);
        if (!r.through)
            return l;
        CursorLoc out = l;
        int width = hi - lo;
        int i = l.path[r.depth].index;
        if (is_final(l, r.depth) && l.kind == CursorKind::Gap) {
            if (i <= lo)
                return out;
            out.path[r.depth].index = (i >= hi) ? i - width : lo;
            return out;
        }
        if (is_final(l, r.depth) && l.kind == CursorKind::Block) {
            auto remap = [&](int pos) {
                return pos <= lo ? pos : (pos >= hi ? pos - width : lo);
            };
            int blo = remap(i);
            int bhi = remap(l.hi);
            if (blo >= bhi)
                return std::nullopt;
            out.path[r.depth].index = blo;
            out.hi = bhi;
            return out;
        }
        if (i >= lo && i < hi)
            return std::nullopt;  // inside the deleted subtree
        if (i >= hi)
            out.path[r.depth].index = i - width;
        return out;
    };
}

ForwardFn
fwd_replace_range(ListAddr addr, int lo, int hi, int count)
{
    return [addr = std::move(addr), lo, hi, count](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        ListRelation r = relate(l, addr);
        if (!r.through)
            return l;
        CursorLoc out = l;
        int width = hi - lo;
        int shift = count - width;
        int i = l.path[r.depth].index;
        if (is_final(l, r.depth) && l.kind == CursorKind::Gap) {
            if (i <= lo)
                return out;
            if (i >= hi) {
                out.path[r.depth].index = i + shift;
                return out;
            }
            return std::nullopt;
        }
        if (is_final(l, r.depth) && l.kind == CursorKind::Block) {
            int bhi = l.hi;
            if (bhi <= lo)
                return out;
            if (i >= hi) {
                out.path[r.depth].index = i + shift;
                out.hi = bhi + shift;
                return out;
            }
            if (i == lo && bhi == hi) {
                // Exact match: the replaced block maps to its replacement.
                if (count == 0)
                    return std::nullopt;
                out.hi = lo + count;
                return out;
            }
            if (i >= lo && bhi <= hi)
                return std::nullopt;
            // Straddling: keep the surviving extent.
            out.path[r.depth].index = std::min(i, lo);
            out.hi = std::max(bhi + shift, lo + count);
            return out;
        }
        if (i < lo)
            return out;
        if (i >= hi) {
            out.path[r.depth].index = i + shift;
            return out;
        }
        // Inside the replaced range.
        if (is_final(l, r.depth) && l.kind == CursorKind::Node) {
            // Heuristic (paper: "attempt to produce a valid cursor"):
            // map onto the replacement block, clamped.
            if (count == 0)
                return std::nullopt;
            int offset = i - lo;
            out.path[r.depth].index = lo + std::min(offset, count - 1);
            return out;
        }
        return std::nullopt;  // deeper paths into replaced subtrees
    };
}

ForwardFn
fwd_wrap(ListAddr addr, int lo, int hi)
{
    return [addr = std::move(addr), lo, hi](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        ListRelation r = relate(l, addr);
        if (!r.through)
            return l;
        CursorLoc out = l;
        int width = hi - lo;
        int i = l.path[r.depth].index;
        if (is_final(l, r.depth) && l.kind == CursorKind::Gap) {
            if (i <= lo)
                return out;
            if (i >= hi) {
                out.path[r.depth].index = i - width + 1;
                return out;
            }
            // Gap inside the wrapped region: descend into the wrapper.
            out.path[r.depth].index = lo;
            out.path.insert(out.path.begin() + r.depth + 1,
                            {PathLabel::Body, i - lo});
            return out;
        }
        if (is_final(l, r.depth) && l.kind == CursorKind::Block) {
            int bhi = l.hi;
            if (bhi <= lo)
                return out;
            if (i >= hi) {
                out.path[r.depth].index = i - width + 1;
                out.hi = bhi - width + 1;
                return out;
            }
            if (i >= lo && bhi <= hi) {
                out.path[r.depth].index = lo;
                out.path.insert(out.path.begin() + r.depth + 1,
                                {PathLabel::Body, i - lo});
                out.hi = bhi - lo;
                return out;
            }
            return std::nullopt;
        }
        if (i < lo)
            return out;
        if (i >= hi) {
            out.path[r.depth].index = i - width + 1;
            return out;
        }
        // Inside: path gains a step through the wrapper's body.
        out.path[r.depth].index = lo;
        out.path.insert(out.path.begin() + r.depth + 1,
                        {PathLabel::Body, i - lo});
        return out;
    };
}

ForwardFn
fwd_unwrap(ListAddr addr, int pos, int count)
{
    return [addr = std::move(addr), pos, count](const CursorLoc& l)
               -> std::optional<CursorLoc> {
        ListRelation r = relate(l, addr);
        if (!r.through)
            return l;
        CursorLoc out = l;
        int i = l.path[r.depth].index;
        if (is_final(l, r.depth) && l.kind == CursorKind::Gap) {
            if (i <= pos)
                return out;
            out.path[r.depth].index = i + count - 1;
            return out;
        }
        if (is_final(l, r.depth) && l.kind == CursorKind::Block) {
            int bhi = l.hi;
            if (bhi <= pos)
                return out;
            if (i > pos) {
                out.path[r.depth].index = i + count - 1;
                out.hi = bhi + count - 1;
                return out;
            }
            // Includes the unwrapped stmt: widen over its contents.
            out.hi = bhi + count - 1;
            return out;
        }
        if (i < pos)
            return out;
        if (i > pos) {
            out.path[r.depth].index = i + count - 1;
            return out;
        }
        // At or under the unwrapped statement.
        if (is_final(l, r.depth)) {
            // The wrapper itself: map to its former contents as a block,
            // or the single stmt if count == 1.
            if (count == 0)
                return std::nullopt;
            if (count == 1)
                return out;
            out.kind = CursorKind::Block;
            out.hi = pos + count;
            return out;
        }
        // Below the wrapper: splice out the Body step if it is next.
        const PathStep& next_step = l.path[r.depth + 1];
        if (next_step.label != PathLabel::Body)
            return std::nullopt;  // cursor into the dissolved header
        out.path[r.depth].index = pos + next_step.index;
        out.path.erase(out.path.begin() + r.depth + 1);
        return out;
    };
}

ForwardFn
fwd_move(ListAddr src, int lo, int hi, ListAddr dst, int dst_gap)
{
    ForwardFn erase_fn = fwd_erase(src, lo, hi);
    ForwardFn insert_fn = fwd_insert(dst, dst_gap, hi - lo);
    return [src, lo, hi, dst, dst_gap, erase_fn,
            insert_fn](const CursorLoc& l) -> std::optional<CursorLoc> {
        ListRelation r = relate(l, src);
        int i = r.through ? l.path[r.depth].index : -1;
        bool inside = r.through && i >= lo && i < hi &&
                      !(is_final(l, r.depth) && l.kind == CursorKind::Gap);
        if (inside) {
            // Subtree identity preserved: remap the prefix.
            CursorLoc out = l;
            Path new_prefix = dst.parent;
            new_prefix.push_back({dst.label, dst_gap + (i - lo)});
            Path rest(l.path.begin() + static_cast<long>(r.depth) + 1,
                      l.path.end());
            out.path = new_prefix;
            out.path.insert(out.path.end(), rest.begin(), rest.end());
            return out;
        }
        // Everything else: deletion then insertion. Note: the source
        // subtree positions were handled above, so erase_fn only sees
        // outside locations. The destination is in post-deletion coords.
        auto m = erase_fn(l);
        if (!m)
            return std::nullopt;
        return insert_fn(*m);
    };
}

// -- Edit batches ---------------------------------------------------------

namespace {

/** Apply staged forwarding functions in order; nullopt short-circuits. */
std::optional<CursorLoc>
apply_fwd_chain(const std::vector<ForwardFn>& fwds, const CursorLoc& loc)
{
    std::optional<CursorLoc> cur = loc;
    for (const auto& f : fwds) {
        cur = f(*cur);
        if (!cur)
            return std::nullopt;
    }
    return cur;
}

}  // namespace

EditBatch::EditBatch(ProcPtr p) : base_(std::move(p)), work_(base_) {}

void
EditBatch::stage(std::vector<StmtPtr> body, ForwardFn fwd)
{
    // The scratch proc exists only to resolve the next edit's
    // coordinates; it is never published and gets no provenance.
    work_ = Proc::make(base_->name(), base_->args(), base_->preds(),
                       std::move(body), base_->instr());
    fwds_.push_back(std::move(fwd));
}

std::optional<CursorLoc>
EditBatch::forward(const CursorLoc& loc) const
{
    return apply_fwd_chain(fwds_, loc);
}

void
EditBatch::insert(const ListAddr& addr, int gap, std::vector<StmtPtr> stmts)
{
    const auto& list = stmt_list_at(work_, addr);
    if (gap < 0 || gap > static_cast<int>(list.size()))
        throw InvalidCursorError("insertion gap out of range");
    std::vector<StmtPtr> nl(list.begin(), list.begin() + gap);
    int count = static_cast<int>(stmts.size());
    for (auto& s : stmts)
        nl.push_back(std::move(s));
    nl.insert(nl.end(), list.begin() + gap, list.end());
    stage(rebuild_list(work_, addr, std::move(nl)),
          fwd_insert(addr, gap, count));
}

void
EditBatch::erase(const ListAddr& addr, int lo, int hi)
{
    const auto& list = stmt_list_at(work_, addr);
    if (lo < 0 || hi > static_cast<int>(list.size()) || lo > hi)
        throw InvalidCursorError("erase range out of bounds");
    std::vector<StmtPtr> nl(list.begin(), list.begin() + lo);
    nl.insert(nl.end(), list.begin() + hi, list.end());
    stage(rebuild_list(work_, addr, std::move(nl)), fwd_erase(addr, lo, hi));
}

void
EditBatch::replace_range(const ListAddr& addr, int lo, int hi,
                         std::vector<StmtPtr> repl)
{
    const auto& list = stmt_list_at(work_, addr);
    if (lo < 0 || hi > static_cast<int>(list.size()) || lo > hi)
        throw InvalidCursorError("replace range out of bounds");
    std::vector<StmtPtr> nl(list.begin(), list.begin() + lo);
    int count = static_cast<int>(repl.size());
    for (auto& s : repl)
        nl.push_back(std::move(s));
    nl.insert(nl.end(), list.begin() + hi, list.end());
    stage(rebuild_list(work_, addr, std::move(nl)),
          fwd_replace_range(addr, lo, hi, count));
}

void
EditBatch::replace_stmt_same_shape(const Path& path, StmtPtr repl)
{
    NodeRef cur = node_at(work_, path);
    if (std::holds_alternative<StmtPtr>(cur) &&
        std::get<StmtPtr>(cur) == repl) {
        return;  // no-op (hash-consed subtree): nothing to stage
    }
    stage(rebuild_node(work_, path, NodeRef(std::move(repl))),
          fwd_identity());
}

void
EditBatch::replace_expr(const Path& path, ExprPtr repl)
{
    NodeRef cur = node_at(work_, path);
    if (std::holds_alternative<ExprPtr>(cur) &&
        std::get<ExprPtr>(cur) == repl) {
        return;  // interned no-op
    }
    stage(rebuild_node(work_, path, NodeRef(std::move(repl))),
          fwd_invalidate_below(path));
}

void
EditBatch::wrap(const ListAddr& addr, int lo, int hi,
                const std::function<StmtPtr(std::vector<StmtPtr>)>& wrap_fn)
{
    const auto& list = stmt_list_at(work_, addr);
    if (lo < 0 || hi > static_cast<int>(list.size()) || lo >= hi)
        throw InvalidCursorError("wrap range out of bounds");
    std::vector<StmtPtr> inner(list.begin() + lo, list.begin() + hi);
    StmtPtr wrapper = wrap_fn(std::move(inner));
    std::vector<StmtPtr> nl(list.begin(), list.begin() + lo);
    nl.push_back(std::move(wrapper));
    nl.insert(nl.end(), list.begin() + hi, list.end());
    stage(rebuild_list(work_, addr, std::move(nl)), fwd_wrap(addr, lo, hi));
}

ProcPtr
EditBatch::commit(const std::string& action)
{
    if (fwds_.empty())
        return base_;
    EXO2_SPAN("prim.apply", {{"action", action}});
    ForwardFn fwd;
    if (fwds_.size() == 1) {
        fwd = std::move(fwds_[0]);
    } else {
        auto fs = std::make_shared<std::vector<ForwardFn>>(std::move(fwds_));
        fwd = [fs](const CursorLoc& l) { return apply_fwd_chain(*fs, l); };
    }
    fwds_.clear();
    return base_->with_body(std::vector<StmtPtr>(work_->body_stmts()),
                            std::move(fwd), action);
}

// -- Whole-proc helpers ---------------------------------------------------

ProcPtr
apply_insert(const ProcPtr& p, const ListAddr& addr, int gap,
             std::vector<StmtPtr> stmts, const std::string& action)
{
    EditBatch b(p);
    b.insert(addr, gap, std::move(stmts));
    return b.commit(action);
}

ProcPtr
apply_erase(const ProcPtr& p, const ListAddr& addr, int lo, int hi,
            const std::string& action)
{
    EditBatch b(p);
    b.erase(addr, lo, hi);
    return b.commit(action);
}

ProcPtr
apply_replace_range(const ProcPtr& p, const ListAddr& addr, int lo, int hi,
                    std::vector<StmtPtr> repl, const std::string& action)
{
    EditBatch b(p);
    b.replace_range(addr, lo, hi, std::move(repl));
    return b.commit(action);
}

ProcPtr
apply_replace_stmt(const ProcPtr& p, const Path& path, StmtPtr repl,
                   const std::string& action)
{
    int i = 0;
    ListAddr addr = list_addr_of(path, &i);
    return apply_replace_range(p, addr, i, i + 1, {std::move(repl)}, action);
}

ProcPtr
apply_replace_stmt_same_shape(const ProcPtr& p, const Path& path,
                              StmtPtr repl, const std::string& action)
{
    // No-op edits (the replacement IS the current statement, common
    // with hash-consed subtrees) stage nothing and commit to `p`
    // itself: no spine rebuild, no provenance hop, cursors stay valid.
    EditBatch b(p);
    b.replace_stmt_same_shape(path, std::move(repl));
    return b.commit(action);
}

ProcPtr
apply_replace_expr(const ProcPtr& p, const Path& path, ExprPtr repl,
                   const std::string& action)
{
    EditBatch b(p);
    b.replace_expr(path, std::move(repl));
    return b.commit(action);
}

ProcPtr
apply_wrap(const ProcPtr& p, const ListAddr& addr, int lo, int hi,
           const std::function<StmtPtr(std::vector<StmtPtr>)>& wrap,
           const std::string& action)
{
    EditBatch b(p);
    b.wrap(addr, lo, hi, wrap);
    return b.commit(action);
}

ProcPtr
apply_unwrap(const ProcPtr& p, const Path& path,
             std::vector<StmtPtr> contents, const std::string& action)
{
    int pos = 0;
    ListAddr addr = list_addr_of(path, &pos);
    const auto& list = stmt_list_at(p, addr);
    int count = static_cast<int>(contents.size());
    std::vector<StmtPtr> nl(list.begin(), list.begin() + pos);
    for (auto& s : contents)
        nl.push_back(std::move(s));
    nl.insert(nl.end(), list.begin() + pos + 1, list.end());
    return p->with_body(rebuild_list(p, addr, std::move(nl)),
                        fwd_unwrap(addr, pos, count), action);
}

ProcPtr
apply_move(const ProcPtr& p, const ListAddr& src, int lo, int hi,
           const ListAddr& dst, int dst_gap, const std::string& action)
{
    const auto& slist = stmt_list_at(p, src);
    if (lo < 0 || hi > static_cast<int>(slist.size()) || lo >= hi)
        throw InvalidCursorError("move range out of bounds");
    std::vector<StmtPtr> moved(slist.begin() + lo, slist.begin() + hi);
    // Delete from source.
    std::vector<StmtPtr> snew(slist.begin(), slist.begin() + lo);
    snew.insert(snew.end(), slist.begin() + hi, slist.end());
    auto body1 = rebuild_list(p, src, std::move(snew));
    // Insert at destination, resolved against the intermediate body.
    ProcPtr tmp = Proc::make("*tmp*", p->args(), p->preds(), body1);
    const auto& dlist = stmt_list_at(tmp, dst);
    if (dst_gap < 0 || dst_gap > static_cast<int>(dlist.size()))
        throw InvalidCursorError("move destination gap out of range");
    std::vector<StmtPtr> dnew(dlist.begin(), dlist.begin() + dst_gap);
    for (auto& s : moved)
        dnew.push_back(std::move(s));
    dnew.insert(dnew.end(), dlist.begin() + dst_gap, dlist.end());
    auto body2 = rebuild_list(tmp, dst, std::move(dnew));
    return p->with_body(std::move(body2), fwd_move(src, lo, hi, dst, dst_gap),
                        action);
}

}  // namespace exo2
