#include "src/primitives/annotations.h"

#include "src/analysis/effects.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"

namespace exo2 {

ProcPtr
set_memory(const ProcPtr& p, const Cursor& alloc, const MemoryPtr& mem)
{
    ScheduleStats::count_rewrite("set_memory");
    Cursor ac = expect_stmt_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(s->kind() == StmtKind::Alloc,
            "set_memory: expected an allocation cursor");
    if (mem->is_vector()) {
        // Backend precondition checked eagerly: the innermost dimension
        // must fit exactly one vector register.
        require(!s->dims().empty(),
                "set_memory: scalar cannot live in a vector memory");
        Affine inner = to_affine(s->dims().back());
        int lanes = mem->vector_bytes() / type_size_bytes(s->type());
        require(inner.is_const() && inner.constant == lanes,
                "set_memory: innermost dim must equal the vector width (" +
                    std::to_string(lanes) + ")");
    }
    return apply_replace_stmt_same_shape(p, ac.loc().path, s->with_mem(mem),
                                         "set_memory");
}

ProcPtr
set_precision(const ProcPtr& p, const Cursor& alloc, ScalarType t)
{
    ScheduleStats::count_rewrite("set_precision");
    Cursor ac = expect_stmt_cursor(p, alloc);
    StmtPtr s = ac.stmt();
    require(s->kind() == StmtKind::Alloc,
            "set_precision: expected an allocation cursor");
    require(is_numeric(t), "set_precision: type must be numeric");
    return apply_replace_stmt_same_shape(p, ac.loc().path, s->with_type(t),
                                         "set_precision");
}

ProcPtr
parallelize_loop(const ProcPtr& p, const Cursor& loop)
{
    ScheduleStats::count_rewrite("parallelize_loop");
    Cursor lc = expect_loop_cursor(p, loop);
    Context ctx = Context::at(p, lc.loc().path);
    std::vector<LoopConflict> conflicts;
    if (loop_conflicts(ctx, lc.stmt(), /*reductions_ok=*/false, &conflicts)) {
        // Name every conflicting access pair, not just the first: the
        // user fixes them all at once instead of replaying the error.
        std::string why = conflicts.front().detail;
        for (size_t i = 1; i < conflicts.size(); i++)
            why += "; " + conflicts[i].detail;
        require(false, "parallelize_loop: " + why);
    }
    return apply_replace_stmt_same_shape(
        p, lc.loc().path, lc.stmt()->with_loop_mode(LoopMode::Par),
        "parallelize_loop");
}

namespace {

/** Does any statement in the suffix (or deeper) read `cfg.field`? */
bool
config_read_after(const std::vector<StmtPtr>& list, size_t start,
                  const std::string& cfg, const std::string& field)
{
    std::string key = "$cfg:" + cfg + "." + field;
    for (size_t i = start; i < list.size(); i++) {
        for (const auto& a : collect_accesses(list[i])) {
            if (a.buf == key && a.kind == AccessKind::Read)
                return true;
        }
    }
    return false;
}

/**
 * Check `cfg.field` is not read by code executing after the statement
 * at `path` (its list suffix and every enclosing list's suffix; loops
 * also re-execute their own bodies, so enclosing loop bodies count).
 */
void
require_not_read_after(const ProcPtr& p, const Path& path,
                       const std::string& cfg, const std::string& field,
                       const std::string& who)
{
    // A list level re-executes when any loop encloses it.
    auto loop_above = [&](const Path& list_parent) {
        Path q = list_parent;
        while (!q.empty()) {
            if (stmt_at(p, q)->kind() == StmtKind::For)
                return true;
            q.pop_back();
        }
        return false;
    };
    Path cur = path;
    for (;;) {
        int pos = 0;
        ListAddr addr = list_addr_of(cur, &pos);
        const auto& list = stmt_list_at(p, addr);
        size_t start = loop_above(addr.parent)
                           ? 0
                           : static_cast<size_t>(pos) + 1;
        require(!config_read_after(list, start, cfg, field),
                who + ": " + cfg + "." + field +
                    " is read by code executing afterwards");
        if (addr.parent.empty())
            return;
        cur = addr.parent;
    }
}

}  // namespace

ProcPtr
bind_config(const ProcPtr& p, const Cursor& e, const std::string& cfg,
            const std::string& field)
{
    ScheduleStats::count_rewrite("bind_config");
    Cursor ec = p->forward(e);
    require(ec.is_valid() && ec.kind() == CursorKind::Node,
            "bind_config: expected an expression cursor");
    ExprPtr expr = ec.expr();
    // Find the enclosing statement.
    Path path = ec.loc().path;
    size_t stmt_depth = 0;
    for (size_t i = path.size(); i-- > 0;) {
        if (is_stmt_list_label(path[i].label)) {
            stmt_depth = i;
            break;
        }
    }
    Path stmt_path(path.begin(), path.begin() + stmt_depth + 1);
    require_not_read_after(p, stmt_path, cfg, field, "bind_config");
    int pos = 0;
    ListAddr addr = list_addr_of(stmt_path, &pos);
    StmtPtr wc = Stmt::make_write_config(cfg, field, expr);
    // One batched version: insert + expression rewrite, one provenance
    // hop (the config write's forwarding composed with the rewrite's).
    EditBatch batch(p);
    batch.insert(addr, pos, {wc});
    std::optional<CursorLoc> ec2 = batch.forward(ec.loc());
    require(ec2.has_value(), "bind_config: expression lost");
    ExprPtr rd = Expr::make_read_config(cfg, field, expr->type());
    batch.replace_expr(ec2->path, rd);
    ProcPtr out = batch.commit("bind_config");
    // Configuration state is global: every iteration of an enclosing
    // parallel loop now writes the same field.
    for (size_t i = 0; i + 1 < stmt_path.size(); i++) {
        if (is_stmt_list_label(stmt_path[i].label))
            require_par_loop_independent(
                out, Path(stmt_path.begin(), stmt_path.begin() + i + 1),
                "bind_config");
    }
    return out;
}

ProcPtr
delete_config(const ProcPtr& p, const Cursor& config_write)
{
    ScheduleStats::count_rewrite("delete_config");
    Cursor cc = expect_stmt_cursor(p, config_write);
    StmtPtr s = cc.stmt();
    require(s->kind() == StmtKind::WriteConfig,
            "delete_config: expected a configuration write");
    require_not_read_after(p, cc.loc().path, s->name(), s->field(),
                           "delete_config");
    int pos = 0;
    ListAddr addr = list_addr_of(cc.loc().path, &pos);
    return apply_erase(p, addr, pos, pos + 1, "delete_config");
}

namespace {

/** Require an instruction whose body only writes configuration state. */
void
require_pure_config(const ProcPtr& instr, const std::string& who)
{
    require(instr && instr->is_instr() &&
                instr->instr()->instr_class == "config",
            who + ": callee is not a configuration instruction");
    for (const auto& s : instr->body_stmts()) {
        require(s->kind() == StmtKind::WriteConfig,
                who + ": configuration instructions may only write "
                      "configuration state");
    }
}

}  // namespace

ProcPtr
insert_config_call(const ProcPtr& p, const Cursor& gap,
                   const ProcPtr& config_instr, std::vector<ExprPtr> args)
{
    ScheduleStats::count_rewrite("insert_config_call");
    require_pure_config(config_instr, "insert_config_call");
    Cursor gc = expect_gap_cursor(p, gap);
    int g = gc.loc().path.back().index;
    ListAddr addr = list_addr_of(gc.loc().path, &g);
    const auto& list = stmt_list_at(p, addr);
    for (const auto& s : config_instr->body_stmts()) {
        require(!config_read_after(list, static_cast<size_t>(g), s->name(),
                                   s->field()),
                "insert_config_call: " + s->name() + "." + s->field() +
                    " is read afterwards");
    }
    return apply_insert(
        p, addr, g, {Stmt::make_call(config_instr, std::move(args))},
        "insert_config_call");
}

ProcPtr
delete_config_call(const ProcPtr& p, const Cursor& call)
{
    ScheduleStats::count_rewrite("delete_config_call");
    Cursor cc = expect_stmt_cursor(p, call);
    StmtPtr s = cc.stmt();
    require(s->kind() == StmtKind::Call, "delete_config_call: not a call");
    require_pure_config(s->callee(), "delete_config_call");
    int pos = 0;
    ListAddr addr = list_addr_of(cc.loc().path, &pos);
    const auto& list = stmt_list_at(p, addr);
    for (const auto& w : s->callee()->body_stmts()) {
        require(!config_read_after(list, static_cast<size_t>(pos), w->name(),
                                   w->field()),
                "delete_config_call: field is read afterwards");
    }
    return apply_erase(p, addr, pos, pos + 1, "delete_config_call");
}

ProcPtr
write_config(const ProcPtr& p, const Cursor& gap, const std::string& cfg,
             const std::string& field, const ExprPtr& e)
{
    ScheduleStats::count_rewrite("write_config");
    Cursor gc = expect_gap_cursor(p, gap);
    int g = gc.loc().path.back().index;
    ListAddr addr = list_addr_of(gc.loc().path, &g);
    // The new value must not clobber state read afterwards: approximate
    // by requiring no read of the field after the gap.
    const auto& list = stmt_list_at(p, addr);
    require(!config_read_after(list, static_cast<size_t>(g), cfg, field),
            "write_config: " + cfg + "." + field + " is read afterwards");
    return apply_insert(p, addr, g, {Stmt::make_write_config(cfg, field, e)},
                        "write_config");
}

}  // namespace exo2
