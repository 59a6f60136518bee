#include "src/analysis/context.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/lint/lint.h"

/**
 * @file
 * Bounds pass: prove every buffer/window access in-bounds for all
 * admissible sizes (DESIGN.md §9).
 *
 * The walker descends the statement tree, growing a Context (asserts,
 * size-arg nonnegativity, enclosing loop ranges, if-guards). Each
 * access is checked against the shape of the declaration its name is
 * bound to there (`binding_at`, `binding_dims`: arg dims, alloc dims,
 * window extents). Window declarations are checked against their base
 * buffer and then accessed *compositionally*: later accesses through
 * the window are proved against the window's own extents, which is
 * sound given the window itself was checked — this keeps
 * windows-of-windows precise where the effect collector goes opaque.
 *
 * Severity discipline: an access is EXL002 (Error) only when the facts
 * *imply* the index escapes on every valuation and the program point is
 * not provably dead — a true positive for any size that reaches it.
 * Everything short of a proof-of-safety or proof-of-violation is
 * EXL001 (Warn).
 */

namespace exo2 {
namespace lint {

namespace {

std::string
loc_str(const Path& path)
{
    CursorLoc loc;
    loc.kind = CursorKind::Node;
    loc.path = path;
    return loc.to_string();
}

class BoundsWalker
{
  public:
    BoundsWalker(const ProcPtr& p, LintReport* rep) : p_(p), rep_(rep) {}

    void run()
    {
        Context ctx = Context::at(p_, {});
        Path path;
        block(ctx, p_->body_stmts(), PathLabel::Body, path);
    }

  private:
    void diag(const Path& path, const char* code, Severity sev,
              const std::string& buf, std::string message,
              std::string fixit)
    {
        Diagnostic d;
        d.code = code;
        d.severity = sev;
        d.pass = "bounds";
        d.loc = loc_str(path);
        d.buf = buf;
        d.message = std::move(message);
        d.fixit = std::move(fixit);
        rep_->diags.push_back(std::move(d));
    }

    /** Prove lo <= e < hi given ctx; one obligation. `what` renders the
     *  access for messages (e.g. "read y[i + 1]"). */
    void check_range(Context& ctx, const Path& path, const std::string& buf,
                     const ExprPtr& e, const ExprPtr& hi,
                     const std::string& what)
    {
        rep_->obligations++;
        bool lo_ok = ctx.prove_ge0(e);
        bool hi_ok = ctx.prove_lt(e, hi);
        if (lo_ok && hi_ok) {
            rep_->proven++;
            return;
        }
        // Proven violation: every valuation the facts admit puts the
        // index outside [0, hi), and the point is not provably dead.
        bool reachable = !ctx.system().infeasible();
        Affine below = to_affine(e);  // e <= -1  <=>  -e - 1 >= 0
        below = affine_neg(below);
        below.constant -= 1;
        Affine above = affine_sub(to_affine(e), to_affine(hi));  // e >= hi
        if (reachable &&
            (ctx.system().implies_ge0(below) ||
             ctx.system().implies_ge0(above))) {
            diag(path, "EXL002", Severity::Error, buf,
                 what + ": index " + print_expr(e) +
                     " is out of bounds (valid range [0, " +
                     print_expr(hi) + ")) for every admissible size",
                 "fix the index expression or delete the dead access");
            return;
        }
        std::string side = lo_ok ? (print_expr(e) + " < " + print_expr(hi))
                                 : ("0 <= " + print_expr(e));
        diag(path, "EXL001", Severity::Warn, buf,
             what + ": cannot prove " + side,
             "guard the access or add an assert() precondition "
             "establishing the bound");
    }

    /** The dims of the buffer `buf` names in the statement at `path`;
     *  false when it names no buffer there. */
    bool shape_at(const Path& path, const std::string& buf,
                  std::vector<ExprPtr>* dims) const
    {
        Binding b = binding_at(p_, path, buf);
        if (!b || (b.decl && b.decl->kind() == StmtKind::For))
            return false;
        *dims = binding_dims(b);
        return true;
    }

    void check_access(Context& ctx, const Path& path, const std::string& buf,
                     const std::vector<ExprPtr>& idx, const char* kind)
    {
        std::vector<ExprPtr> dims;
        if (!shape_at(path, buf, &dims)) {
            if (!idx.empty()) {
                rep_->obligations++;
                diag(path, "EXL003", Severity::Warn, buf,
                     std::string(kind) + " of '" + buf +
                         "' with unknown shape",
                     "");
            }
            return;
        }
        if (idx.empty())
            return;  // whole-buffer mention (window/call argument)
        if (idx.size() != dims.size()) {
            rep_->obligations++;
            diag(path, "EXL003", Severity::Warn, buf,
                 std::string(kind) + " of '" + buf + "' with " +
                     std::to_string(idx.size()) + " indices but " +
                     std::to_string(dims.size()) + " dims",
                 "");
            return;
        }
        std::string what = std::string(kind) + " " + buf + "[";
        for (size_t d = 0; d < idx.size(); d++) {
            if (d)
                what += ", ";
            what += print_expr(idx[d]);
        }
        what += "]";
        for (size_t d = 0; d < idx.size(); d++)
            check_range(ctx, path, buf, idx[d], dims[d], what);
    }

    /** Check a window expression against its base. */
    void check_window(Context& ctx, const Path& path, const ExprPtr& w)
    {
        const std::string& base = w->name();
        std::vector<ExprPtr> dims;
        if (!shape_at(path, base, &dims)) {
            rep_->obligations++;
            diag(path, "EXL003", Severity::Warn, base,
                 "window of '" + base + "' with unknown shape", "");
            return;
        }
        if (w->window_dims().size() != dims.size()) {
            rep_->obligations++;
            diag(path, "EXL003", Severity::Warn, base,
                 "window of '" + base + "' with " +
                     std::to_string(w->window_dims().size()) +
                     " dims but base has " + std::to_string(dims.size()),
                 "");
            return;
        }
        for (size_t d = 0; d < dims.size(); d++) {
            const WindowDim& wd = w->window_dims()[d];
            if (wd.is_point()) {
                check_range(ctx, path, base, wd.lo, dims[d],
                            "window point " + base + "[" +
                                print_expr(wd.lo) + "]");
            } else {
                // lo in [0, dim], hi in [lo, dim]: prove 0 <= lo,
                // lo <= hi, hi <= dim (three obligations).
                rep_->obligations++;
                std::string what = "window " + base + "[" +
                                   print_expr(wd.lo) + ":" +
                                   print_expr(wd.hi) + "]";
                bool ok = ctx.prove_ge0(wd.lo) &&
                          ctx.prove_le(wd.lo, wd.hi) &&
                          ctx.prove_le(wd.hi, dims[d]);
                if (ok) {
                    rep_->proven++;
                } else {
                    diag(path, "EXL001", Severity::Warn, base,
                         what + ": cannot prove 0 <= " +
                             print_expr(wd.lo) + " <= " +
                             print_expr(wd.hi) + " <= " +
                             print_expr(dims[d]),
                         "guard the window or add an assert() "
                         "precondition establishing the bound");
                }
            }
        }
    }

    void expr(Context& ctx, const Path& path, const ExprPtr& e)
    {
        if (!e)
            return;
        switch (e->kind()) {
          case ExprKind::Read:
            check_access(ctx, path, e->name(), e->idx(), "read");
            for (const auto& i : e->idx())
                expr(ctx, path, i);
            return;
          case ExprKind::Window:
            check_window(ctx, path, e);
            return;
          case ExprKind::Stride:
          case ExprKind::ReadConfig:
            return;
          default:
            for (const auto& k : e->children())
                expr(ctx, path, k);
            return;
        }
    }

    void stmt(Context& ctx, const Path& path, const StmtPtr& s)
    {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce: {
            expr(ctx, path, s->rhs());
            for (const auto& i : s->idx())
                expr(ctx, path, i);
            check_access(ctx, path, s->name(), s->idx(),
                         s->kind() == StmtKind::Assign ? "write" : "reduce");
            return;
          }
          case StmtKind::Alloc: {
            for (const auto& d : s->dims()) {
                expr(ctx, path, d);
                rep_->obligations++;
                if (ctx.prove_ge0(d)) {
                    rep_->proven++;
                } else {
                    diag(path, "EXL004", Severity::Warn, s->name(),
                         "allocation '" + s->name() + "' extent " +
                             print_expr(d) +
                             " is not provably nonnegative",
                         "add an assert() precondition");
                }
            }
            return;
          }
          case StmtKind::For: {
            expr(ctx, path, s->lo());
            expr(ctx, path, s->hi());
            Context::Scope in(ctx);
            ctx.enter_loop(s->iter(), s->lo(), s->hi());
            Path bpath = path;
            block(ctx, s->body(), PathLabel::Body, bpath);
            return;
          }
          case StmtKind::If: {
            expr(ctx, path, s->cond());
            {
                Context::Scope in(ctx);
                ctx.assume(s->cond());
                Path bpath = path;
                block(ctx, s->body(), PathLabel::Body, bpath);
            }
            if (!s->orelse().empty()) {
                Context::Scope in(ctx);
                ctx.assume_not(s->cond());
                Path bpath = path;
                block(ctx, s->orelse(), PathLabel::Orelse, bpath);
            }
            return;
          }
          case StmtKind::Call:
            for (const auto& a : s->args())
                expr(ctx, path, a);
            return;
          case StmtKind::WriteConfig:
            expr(ctx, path, s->rhs());
            return;
          case StmtKind::WindowDecl:
            check_window(ctx, path, s->rhs());
            return;
          case StmtKind::Pass:
            return;
        }
    }

    void block(Context& ctx, const std::vector<StmtPtr>& b, PathLabel label,
               Path& path)
    {
        for (size_t i = 0; i < b.size(); i++) {
            path.push_back({label, static_cast<int>(i)});
            stmt(ctx, path, b[i]);
            path.pop_back();
        }
    }

    const ProcPtr& p_;
    LintReport* rep_;
};

class BoundsPass : public LintPass
{
  public:
    const char* name() const override { return "bounds"; }
    void run(const ProcPtr& p, const LintOptions&,
             LintReport* out) const override
    {
        BoundsWalker(p, out).run();
    }
};

}  // namespace

const LintPass&
bounds_pass()
{
    static const BoundsPass pass;
    return pass;
}

}  // namespace lint
}  // namespace exo2
