#include "src/ir/stmt.h"

#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/ir/proc.h"

namespace exo2 {

namespace {

uint64_t
expr_hash_or(const ExprPtr& e, uint64_t fallback)
{
    return e ? e->structural_hash() : fallback;
}

uint64_t
hash_expr_list(uint64_t h, const std::vector<ExprPtr>& es)
{
    h = hash_combine(h, es.size());
    for (const auto& e : es)
        h = hash_combine(h, e->structural_hash());
    return h;
}

uint64_t
hash_stmt_list(uint64_t h, const std::vector<StmtPtr>& b)
{
    h = hash_combine(h, b.size());
    for (const auto& s : b)
        h = hash_combine(h, s->structural_hash());
    return h;
}

}  // namespace

void
Stmt::rehash()
{
    // Mirrors stmt_equal: hash exactly the fields equality compares,
    // per kind, so equal statements always share a hash.
    uint64_t h = hash_combine(0x57A7ull, static_cast<uint64_t>(kind_));
    switch (kind_) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        h = hash_combine(h, hash_str(name_));
        h = hash_combine(h, static_cast<uint64_t>(type_));
        h = hash_expr_list(h, idx_);
        h = hash_combine(h, expr_hash_or(rhs_, 0x2Aull));
        break;
      case StmtKind::Alloc:
        h = hash_combine(h, hash_str(name_));
        h = hash_combine(h, static_cast<uint64_t>(type_));
        // Memories are named singletons; hashing the name (not the
        // address) keeps the hash stable and address-reuse-proof while
        // still agreeing with pointer equality in stmt_equal.
        h = hash_combine(h, mem_ ? hash_str(mem_->name()) : 0x3E3Full);
        h = hash_expr_list(h, dims_);
        break;
      case StmtKind::For:
        h = hash_combine(h, hash_str(iter_));
        h = hash_combine(h, static_cast<uint64_t>(loop_mode_));
        h = hash_combine(h, expr_hash_or(lo_, 0x10ull));
        h = hash_combine(h, expr_hash_or(hi_, 0x11ull));
        h = hash_stmt_list(h, body_);
        break;
      case StmtKind::If:
        h = hash_combine(h, expr_hash_or(cond_, 0x1Full));
        h = hash_stmt_list(h, body_);
        h = hash_stmt_list(h, orelse_);
        break;
      case StmtKind::Pass:
        break;
      case StmtKind::Call:
        // Hash the callee by content (its structural digest), not by
        // address: stmt_equal's pointer comparison still implies equal
        // hashes (same pointer => same digest), and digest-keyed
        // consumers — the cost-result memo, the autotuner's state
        // dedup — can never be fooled by a recycled allocation.
        if (callee_)
            h = hash_combine(h, proc_digest(callee_));
        else  // pattern-only call: the name stands in
            h = hash_combine(h, hash_str(name_));
        h = hash_expr_list(h, args_);
        break;
      case StmtKind::WriteConfig:
        h = hash_combine(h, hash_str(name_));
        h = hash_combine(h, hash_str(field_));
        h = hash_combine(h, expr_hash_or(rhs_, 0x2Aull));
        break;
      case StmtKind::WindowDecl:
        h = hash_combine(h, hash_str(name_));
        h = hash_combine(h, expr_hash_or(rhs_, 0x2Aull));
        break;
    }
    hash_ = h;
}

StmtPtr
Stmt::make_assign(std::string name, std::vector<ExprPtr> idx, ExprPtr rhs,
                  ScalarType t)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::Assign;
    s->name_ = std::move(name);
    s->idx_ = std::move(idx);
    s->rhs_ = std::move(rhs);
    s->type_ = t;
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_reduce(std::string name, std::vector<ExprPtr> idx, ExprPtr rhs,
                  ScalarType t)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::Reduce;
    s->name_ = std::move(name);
    s->idx_ = std::move(idx);
    s->rhs_ = std::move(rhs);
    s->type_ = t;
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_alloc(std::string name, ScalarType t, std::vector<ExprPtr> dims,
                 MemoryPtr mem)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::Alloc;
    s->name_ = std::move(name);
    s->type_ = t;
    s->dims_ = std::move(dims);
    s->mem_ = mem ? std::move(mem) : mem_dram();
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_for(std::string iter, ExprPtr lo, ExprPtr hi,
               std::vector<StmtPtr> body, LoopMode mode)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::For;
    s->iter_ = std::move(iter);
    s->lo_ = std::move(lo);
    s->hi_ = std::move(hi);
    s->body_ = std::move(body);
    s->loop_mode_ = mode;
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_if(ExprPtr cond, std::vector<StmtPtr> body,
              std::vector<StmtPtr> orelse)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::If;
    s->cond_ = std::move(cond);
    s->body_ = std::move(body);
    s->orelse_ = std::move(orelse);
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_pass()
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::Pass;
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_call(ProcPtr callee, std::vector<ExprPtr> args)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::Call;
    s->callee_ = std::move(callee);
    s->args_ = std::move(args);
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_write_config(std::string cfg, std::string field, ExprPtr rhs)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::WriteConfig;
    s->name_ = std::move(cfg);
    s->field_ = std::move(field);
    s->rhs_ = std::move(rhs);
    s->rehash();
    return s;
}

StmtPtr
Stmt::make_window_decl(std::string name, ExprPtr window, ScalarType t)
{
    auto s = std::shared_ptr<Stmt>(new Stmt());
    s->kind_ = StmtKind::WindowDecl;
    s->name_ = std::move(name);
    s->rhs_ = std::move(window);
    s->type_ = t;
    s->rehash();
    return s;
}

#define EXO2_STMT_WITH(FIELD, PARAMT, PARAM)                                 \
    StmtPtr Stmt::with_##FIELD(PARAMT PARAM) const                          \
    {                                                                        \
        auto s = std::shared_ptr<Stmt>(new Stmt(*this));                    \
        s->FIELD##_ = std::move(PARAM);                                     \
        s->rehash();                                                         \
        return s;                                                            \
    }

EXO2_STMT_WITH(body, std::vector<StmtPtr>, body)
EXO2_STMT_WITH(orelse, std::vector<StmtPtr>, orelse)
EXO2_STMT_WITH(rhs, ExprPtr, rhs)
EXO2_STMT_WITH(cond, ExprPtr, cond)
EXO2_STMT_WITH(idx, std::vector<ExprPtr>, idx)
EXO2_STMT_WITH(dims, std::vector<ExprPtr>, dims)
EXO2_STMT_WITH(args, std::vector<ExprPtr>, args)
EXO2_STMT_WITH(name, std::string, name)
EXO2_STMT_WITH(mem, MemoryPtr, mem)
EXO2_STMT_WITH(callee, ProcPtr, callee)

#undef EXO2_STMT_WITH

StmtPtr
Stmt::with_bounds(ExprPtr lo, ExprPtr hi) const
{
    auto s = std::shared_ptr<Stmt>(new Stmt(*this));
    s->lo_ = std::move(lo);
    s->hi_ = std::move(hi);
    s->rehash();
    return s;
}

StmtPtr
Stmt::with_type(ScalarType t) const
{
    auto s = std::shared_ptr<Stmt>(new Stmt(*this));
    s->type_ = t;
    s->rehash();
    return s;
}

StmtPtr
Stmt::with_loop_mode(LoopMode mode) const
{
    auto s = std::shared_ptr<Stmt>(new Stmt(*this));
    s->loop_mode_ = mode;
    s->rehash();
    return s;
}

bool
stmt_equal(const StmtPtr& a, const StmtPtr& b)
{
    if (a == b)
        return true;
    if (!a || !b || a->structural_hash() != b->structural_hash() ||
        a->kind() != b->kind()) {
        return false;
    }
    // Interned expressions are equal iff they are the same node, so the
    // expression fields (and lists of them) compare by pointer.
    switch (a->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        return a->name() == b->name() && a->type() == b->type() &&
               a->idx() == b->idx() && a->rhs() == b->rhs();
      case StmtKind::Alloc:
        return a->name() == b->name() && a->type() == b->type() &&
               a->mem() == b->mem() && a->dims() == b->dims();
      case StmtKind::For:
        return a->iter() == b->iter() &&
               a->loop_mode() == b->loop_mode() && a->lo() == b->lo() &&
               a->hi() == b->hi() && block_equal(a->body(), b->body());
      case StmtKind::If:
        return a->cond() == b->cond() && block_equal(a->body(), b->body()) &&
               block_equal(a->orelse(), b->orelse());
      case StmtKind::Pass:
        return true;
      case StmtKind::Call:
        // Pattern-only calls (null callee) are named by the stmt itself;
        // compare the name so equality agrees with the structural hash.
        return a->callee() == b->callee() &&
               (a->callee() || a->name() == b->name()) &&
               a->args() == b->args();
      case StmtKind::WriteConfig:
        return a->name() == b->name() && a->field() == b->field() &&
               a->rhs() == b->rhs();
      case StmtKind::WindowDecl:
        return a->name() == b->name() && a->rhs() == b->rhs();
    }
    throw InternalError("unknown stmt kind");
}

bool
block_equal(const std::vector<StmtPtr>& a, const std::vector<StmtPtr>& b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); i++) {
        if (!stmt_equal(a[i], b[i]))
            return false;
    }
    return true;
}

uint64_t
block_hash(const std::vector<StmtPtr>& b)
{
    return hash_stmt_list(0xB10Cull, b);
}

bool
declares(const StmtPtr& s, const std::string& name)
{
    return (s->kind() == StmtKind::Alloc ||
            s->kind() == StmtKind::WindowDecl) &&
           s->name() == name;
}

// The scope rule (stmt.h). These four functions are the only place that
// decides which statements a binding reaches.

StmtPtr
map_in_scope(const StmtPtr& s, const std::string& name, const StmtMapFn& f)
{
    StmtPtr out = f(s);
    if (s->kind() == StmtKind::For && s->iter() == name)
        return out;  // the iterator rebinds `name` in the body
    if (s->body().empty() && s->orelse().empty())
        return out;
    std::vector<StmtPtr> body = map_block_in_scope(s->body(), name, f);
    std::vector<StmtPtr> orelse = map_block_in_scope(s->orelse(), name, f);
    if (body != s->body())
        out = out->with_body(std::move(body));
    if (orelse != s->orelse())
        out = out->with_orelse(std::move(orelse));
    return out;
}

std::vector<StmtPtr>
map_block_in_scope(const std::vector<StmtPtr>& b, const std::string& name,
                   const StmtMapFn& f)
{
    std::vector<StmtPtr> out;
    out.reserve(b.size());
    size_t i = 0;
    while (i < b.size()) {
        const StmtPtr& s = b[i++];
        out.push_back(map_in_scope(s, name, f));
        if (declares(s, name))
            break;  // the rest of the list sees the re-declaration
    }
    out.insert(out.end(), b.begin() + static_cast<long>(i), b.end());
    return out;
}

bool
any_in_scope(const StmtPtr& s, const std::string& name,
             const StmtPredFn& pred, const ScopeDescendFn& descend)
{
    if (pred(s))
        return true;
    if (s->kind() != StmtKind::For && s->kind() != StmtKind::If)
        return false;
    if (s->kind() == StmtKind::For && s->iter() == name)
        return false;  // the iterator rebinds `name` in the body
    auto enter = [&](PathLabel label, const std::vector<StmtPtr>& b) {
        if (!descend)
            return any_block_in_scope(b, name, pred, descend);
        return descend(s, label, [&] {
            return any_block_in_scope(b, name, pred, descend);
        });
    };
    if (enter(PathLabel::Body, s->body()))
        return true;
    return s->kind() == StmtKind::If && enter(PathLabel::Orelse, s->orelse());
}

bool
any_block_in_scope(const std::vector<StmtPtr>& b, const std::string& name,
                   const StmtPredFn& pred, const ScopeDescendFn& descend)
{
    for (const StmtPtr& s : b) {
        if (any_in_scope(s, name, pred, descend))
            return true;
        if (declares(s, name))
            return false;  // the rest of the list sees the re-declaration
    }
    return false;
}

bool
block_uses_unshadowed(const std::vector<StmtPtr>& b, const std::string& name)
{
    return any_block_in_scope(b, name, [&](const StmtPtr& st) {
        return stmt_uses_here(st, name);
    });
}

std::string
captured_name(const std::vector<StmtPtr>& a, const std::vector<StmtPtr>& b)
{
    for (const StmtPtr& s : a) {
        if ((s->kind() == StmtKind::Alloc ||
             s->kind() == StmtKind::WindowDecl) &&
            block_uses_unshadowed(b, s->name())) {
            return s->name();
        }
    }
    return "";
}

StmtPtr
stmt_subst(const StmtPtr& s, const std::string& name, const ExprPtr& repl)
{
    return map_in_scope(s, name, [&](const StmtPtr& st) {
        return map_exprs(st, [&](const ExprPtr& e) {
            return expr_subst(e, name, repl);
        });
    });
}

std::vector<StmtPtr>
block_subst(const std::vector<StmtPtr>& b, const std::string& name,
            const ExprPtr& repl)
{
    return map_block_in_scope(b, name, [&](const StmtPtr& st) {
        return map_exprs(st, [&](const ExprPtr& e) {
            return expr_subst(e, name, repl);
        });
    });
}

bool
stmt_uses_here(const StmtPtr& s, const std::string& name)
{
    return (s->is_write() && s->name() == name) ||
           any_expr(s, [&](const ExprPtr& e) { return expr_uses(e, name); });
}

bool
stmt_uses(const StmtPtr& s, const std::string& name)
{
    if (stmt_uses_here(s, name) || declares(s, name))
        return true;
    auto under = [&](const std::vector<StmtPtr>& b) {
        for (const StmtPtr& c : b) {
            if (stmt_uses(c, name))
                return true;
        }
        return false;
    };
    return under(s->body()) || under(s->orelse());
}

}  // namespace exo2
