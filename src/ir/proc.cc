#include "src/ir/proc.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"

namespace exo2 {

uint64_t
Proc::next_uid()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1);
}

const ProcArg*
Proc::find_arg(const std::string& name) const
{
    for (const auto& a : args_) {
        if (a.name == name)
            return &a;
    }
    return nullptr;
}

ProcPtr
Proc::make(std::string name, std::vector<ProcArg> args,
           std::vector<ExprPtr> preds, std::vector<StmtPtr> body,
           std::optional<InstrInfo> instr)
{
    auto p = std::shared_ptr<Proc>(new Proc());
    p->name_ = std::move(name);
    p->args_ = std::move(args);
    p->preds_ = std::move(preds);
    p->body_ = std::move(body);
    p->instr_ = std::move(instr);
    p->uid_ = next_uid();
    p->root_uid_ = p->uid_;
    return p;
}

ProcPtr
Proc::with_body(std::vector<StmtPtr> body, ForwardFn fwd,
                std::string action) const
{
    auto p = std::shared_ptr<Proc>(new Proc(*this));
    p->body_ = std::move(body);
    p->uid_ = next_uid();
    p->gen_ = gen_ + 1;
    auto prov = std::make_shared<Provenance>();
    prov->parent = shared_from_this();
    prov->fwd = std::move(fwd);
    prov->action = std::move(action);
    p->provenance_ = std::move(prov);
    return p;
}

ProcPtr
Proc::with_signature(std::vector<ProcArg> args, std::vector<ExprPtr> preds,
                     std::vector<StmtPtr> body, ForwardFn fwd,
                     std::string action) const
{
    auto p = std::shared_ptr<Proc>(new Proc(*this));
    p->args_ = std::move(args);
    p->preds_ = std::move(preds);
    p->body_ = std::move(body);
    p->uid_ = next_uid();
    p->gen_ = gen_ + 1;
    auto prov = std::make_shared<Provenance>();
    prov->parent = shared_from_this();
    prov->fwd = std::move(fwd);
    prov->action = std::move(action);
    p->provenance_ = std::move(prov);
    return p;
}

ProcPtr
Proc::renamed(std::string new_name) const
{
    auto identity = [](const CursorLoc& l) {
        return std::optional<CursorLoc>(l);
    };
    auto p = std::shared_ptr<Proc>(new Proc(*this));
    p->name_ = std::move(new_name);
    p->uid_ = next_uid();
    p->gen_ = gen_ + 1;
    auto prov = std::make_shared<Provenance>();
    prov->parent = shared_from_this();
    prov->fwd = identity;
    prov->action = "rename";
    p->provenance_ = std::move(prov);
    return p;
}

ProcPtr
Proc::with_assertion(ExprPtr pred) const
{
    auto identity = [](const CursorLoc& l) {
        return std::optional<CursorLoc>(l);
    };
    auto p = std::shared_ptr<Proc>(new Proc(*this));
    p->preds_.push_back(std::move(pred));
    p->uid_ = next_uid();
    p->gen_ = gen_ + 1;
    auto prov = std::make_shared<Provenance>();
    prov->parent = shared_from_this();
    prov->fwd = identity;
    prov->action = "add_assertion";
    p->provenance_ = std::move(prov);
    return p;
}

bool
procs_equivalent(const ProcPtr& a, const ProcPtr& b)
{
    return a && b && a->root_uid() == b->root_uid();
}

Binding
binding_at(const ProcPtr& p, const Path& path, const std::string& name)
{
    // Walk down the path; a binding met deeper replaces one met above.
    Binding found;
    found.arg = p->find_arg(name);
    const std::vector<StmtPtr>* list = &p->body_stmts();
    for (size_t d = 0; d < path.size(); d++) {
        size_t at = static_cast<size_t>(path[d].index);
        for (size_t j = std::min(at, list->size()); j-- > 0;) {
            if (declares((*list)[j], name)) {
                found = Binding{nullptr, (*list)[j]};
                break;
            }
        }
        bool into_body = d + 1 < path.size() && at < list->size() &&
                         (path[d + 1].label == PathLabel::Body ||
                          path[d + 1].label == PathLabel::Orelse);
        if (!into_body)
            break;
        const StmtPtr& s = (*list)[at];
        if (s->kind() == StmtKind::For && s->iter() == name)
            found = Binding{nullptr, s};
        list = path[d + 1].label == PathLabel::Body ? &s->body()
                                                    : &s->orelse();
    }
    return found;
}

std::vector<ExprPtr>
binding_dims(const Binding& b)
{
    if (b.arg)
        return b.arg->dims;
    if (!b.decl || b.decl->kind() == StmtKind::For)
        return {};
    if (b.decl->kind() == StmtKind::Alloc)
        return b.decl->dims();
    std::vector<ExprPtr> extents;
    for (const WindowDim& wd : b.decl->rhs()->window_dims()) {
        if (!wd.is_point())
            extents.push_back(wd.hi - wd.lo);
    }
    return extents;
}

uint64_t
proc_digest(const ProcPtr& p)
{
    if (!p)
        return 0;
    if (p->digest_.valid)
        return p->digest_.v;
    uint64_t h = 0x45584F32u;  // "EXO2"
    for (const auto& a : p->args()) {
        h = hash_combine(h, hash_str(a.name));
        h = hash_combine(h, static_cast<uint64_t>(a.type));
        h = hash_combine(h, a.is_size ? 1u : 0u);
        h = hash_combine(h, a.is_window ? 1u : 0u);
        h = hash_combine(h, a.mem ? hash_str(a.mem->name()) : 0u);
        for (const auto& d : a.dims)
            h = hash_combine(h, d ? d->structural_hash() : 0u);
        h = hash_mix(h);
    }
    for (const auto& pr : p->preds())
        h = hash_combine(h, pr ? pr->structural_hash() : 0u);
    if (p->instr()) {
        h = hash_combine(h, hash_str(p->instr()->c_template));
        h = hash_combine(h, hash_str(p->instr()->instr_class));
        // The simulator charges instr()->cycles per call, so two procs
        // differing only in instruction pricing must not share a
        // digest (the cost-result memo keys on it).
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(p->instr()->cycles), "");
        memcpy(&bits, &p->instr()->cycles, sizeof(bits));
        h = hash_combine(h, bits);
    }
    h = hash_combine(h, block_hash(p->body_stmts()));
    p->digest_.v = h;
    p->digest_.valid = true;
    return h;
}

}  // namespace exo2
