#include "src/frontend/parser.h"

#include <map>
#include <optional>
#include <string_view>

#include "src/frontend/lexer.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"

namespace exo2 {

namespace {

/** Scoped information about a name during parsing. */
struct VarInfo
{
    ScalarType type = ScalarType::F32;
    bool is_buffer = false;
};

class Parser
{
  public:
    Parser(std::vector<Token> toks, std::vector<ProcPtr> procs, bool lenient)
        : toks_(std::move(toks)), procs_(std::move(procs)),
          lenient_(lenient) {}

    ProcPtr parse_proc();
    StmtPtr parse_single_stmt();
    ExprPtr parse_full_expr();

  private:
    const Token& peek(int ahead = 0) const
    {
        size_t i = pos_ + static_cast<size_t>(ahead);
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    const Token& next()
    {
        return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_];
    }

    bool at_symbol(std::string_view s, int ahead = 0) const
    {
        return peek(ahead).kind == TokKind::Symbol && peek(ahead).text == s;
    }

    bool at_name(std::string_view s, int ahead = 0) const
    {
        return peek(ahead).kind == TokKind::Name && peek(ahead).text == s;
    }

    [[noreturn]] void error(const std::string& msg) const
    {
        throw SchedulingError(
            "parse error at line " + std::to_string(peek().line) + ": " +
            msg + " (got '" + peek().text + "')");
    }

    void expect_symbol(std::string_view s)
    {
        if (!at_symbol(s))
            error("expected '" + std::string(s) + "'");
        next();
    }

    void expect_name(std::string_view s)
    {
        if (!at_name(s))
            error("expected '" + std::string(s) + "'");
        next();
    }

    std::string expect_ident()
    {
        if (peek().kind != TokKind::Name)
            error("expected identifier");
        return next().text;
    }

    void expect(TokKind k, const std::string& what)
    {
        if (peek().kind != k)
            error("expected " + what);
        next();
    }

    VarInfo lookup(const std::string& name) const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
            auto f = it->find(name);
            if (f != it->end())
                return f->second;
        }
        if (lenient_)
            return VarInfo{ScalarType::F32, true};
        throw SchedulingError("parse error: unknown name '" + name + "'");
    }

    void declare(const std::string& name, VarInfo info)
    {
        scopes_.back()[name] = info;
    }

    ProcPtr find_proc(const std::string& name) const
    {
        for (const auto& p : procs_) {
            if (p->name() == name)
                return p;
        }
        return nullptr;
    }

    ProcArg parse_arg();
    std::vector<StmtPtr> parse_block();
    StmtPtr parse_stmt();
    ExprPtr parse_expr(int min_prec = 0);
    ExprPtr parse_atom();
    ExprPtr parse_access(const std::string& name);
    std::vector<ExprPtr> parse_expr_list(std::string_view close);

    std::vector<Token> toks_;
    std::vector<ProcPtr> procs_;
    bool lenient_;
    size_t pos_ = 0;
    std::vector<std::map<std::string, VarInfo>> scopes_{{}};
};

ProcArg
Parser::parse_arg()
{
    ProcArg a;
    a.name = expect_ident();
    expect_symbol(":");
    if (at_name("size")) {
        next();
        a.type = ScalarType::Index;
        a.is_size = true;
        declare(a.name, {ScalarType::Index, false});
        return a;
    }
    if (at_symbol("[")) {
        // windowed buffer: [f32][M, N]
        next();
        a.type = type_from_name(expect_ident());
        expect_symbol("]");
        a.is_window = true;
    } else {
        a.type = type_from_name(expect_ident());
    }
    if (at_symbol("[")) {
        next();
        a.dims = parse_expr_list("]");
    } else if (a.is_window) {
        error("windowed argument needs dimensions");
    }
    if (at_symbol("@")) {
        next();
        a.mem = memory_from_name(expect_ident());
    } else {
        a.mem = mem_dram();
    }
    declare(a.name, {a.type, !a.dims.empty()});
    return a;
}

ProcPtr
Parser::parse_proc()
{
    expect_name("def");
    std::string name = expect_ident();
    expect_symbol("(");
    std::vector<ProcArg> args;
    if (!at_symbol(")")) {
        args.push_back(parse_arg());
        while (at_symbol(",")) {
            next();
            args.push_back(parse_arg());
        }
    }
    expect_symbol(")");
    expect_symbol(":");
    expect(TokKind::Newline, "newline");
    expect(TokKind::Indent, "indented body");
    std::vector<ExprPtr> preds;
    while (at_name("assert")) {
        next();
        preds.push_back(parse_expr());
        expect(TokKind::Newline, "newline");
    }
    std::vector<StmtPtr> body;
    while (peek().kind != TokKind::Dedent && peek().kind != TokKind::EndOfFile)
        body.push_back(parse_stmt());
    if (peek().kind == TokKind::Dedent)
        next();
    // Drop a lone trailing `pass` used for empty-body procs.
    if (body.size() == 1 && body[0]->kind() == StmtKind::Pass)
        body.clear();
    return Proc::make(std::move(name), std::move(args), std::move(preds),
                      std::move(body));
}

std::vector<StmtPtr>
Parser::parse_block()
{
    expect(TokKind::Newline, "newline");
    if (lenient_ && peek().kind != TokKind::Indent)
        return {};  // pattern with `_` body consumed by caller
    expect(TokKind::Indent, "indented block");
    scopes_.emplace_back();
    std::vector<StmtPtr> body;
    while (peek().kind != TokKind::Dedent &&
           peek().kind != TokKind::EndOfFile) {
        body.push_back(parse_stmt());
    }
    if (peek().kind == TokKind::Dedent)
        next();
    scopes_.pop_back();
    return body;
}

StmtPtr
Parser::parse_stmt()
{
    if (at_name("pass")) {
        next();
        expect(TokKind::Newline, "newline");
        return Stmt::make_pass();
    }
    if (at_name("for")) {
        next();
        std::string iter = expect_ident();
        expect_name("in");
        LoopMode mode = LoopMode::Seq;
        ExprPtr lo;
        ExprPtr hi;
        if (at_name("_") && lenient_) {
            next();
            lo = var("_");
            hi = var("_");
        } else {
            if (at_name("par")) {
                mode = LoopMode::Par;
            } else if (!at_name("seq")) {
                error("expected seq/par");
            }
            next();
            expect_symbol("(");
            scopes_.emplace_back();
            declare(iter, {ScalarType::Index, false});
            lo = parse_expr();
            expect_symbol(",");
            hi = parse_expr();
            expect_symbol(")");
            scopes_.pop_back();
        }
        expect_symbol(":");
        // Pattern form: `for i in _: _` on one line.
        if (lenient_ && at_name("_")) {
            next();
            expect(TokKind::Newline, "newline");
            return Stmt::make_for(iter, lo, hi, {}, mode);
        }
        scopes_.emplace_back();
        declare(iter, {ScalarType::Index, false});
        auto body = parse_block();
        scopes_.pop_back();
        return Stmt::make_for(iter, lo, hi, std::move(body), mode);
    }
    if (at_name("if")) {
        next();
        ExprPtr cond;
        if (lenient_ && at_name("_")) {
            next();
            cond = var("_");
        } else {
            cond = parse_expr();
        }
        expect_symbol(":");
        std::vector<StmtPtr> body;
        std::vector<StmtPtr> orelse;
        if (lenient_ && at_name("_")) {
            next();
            expect(TokKind::Newline, "newline");
        } else {
            body = parse_block();
        }
        if (at_name("else")) {
            next();
            expect_symbol(":");
            orelse = parse_block();
        }
        return Stmt::make_if(cond, std::move(body), std::move(orelse));
    }
    // Remaining forms start with an identifier.
    std::string name = expect_ident();
    // Config write: name.field = e
    if (at_symbol(".")) {
        next();
        std::string field = expect_ident();
        expect_symbol("=");
        ExprPtr rhs = parse_expr();
        expect(TokKind::Newline, "newline");
        return Stmt::make_write_config(name, field, rhs);
    }
    // Alloc: name : type [dims] @ mem
    if (at_symbol(":")) {
        next();
        ScalarType t = at_name("_") && lenient_
                           ? (next(), ScalarType::F32)
                           : type_from_name(expect_ident());
        std::vector<ExprPtr> dims;
        if (at_symbol("[")) {
            next();
            dims = parse_expr_list("]");
        }
        MemoryPtr mem = mem_dram();
        if (at_symbol("@")) {
            next();
            mem = memory_from_name(expect_ident());
        }
        expect(TokKind::Newline, "newline");
        declare(name, {t, !dims.empty()});
        return Stmt::make_alloc(name, t, std::move(dims), mem);
    }
    // Call: name(args)
    if (at_symbol("(")) {
        next();
        std::vector<ExprPtr> args;
        if (!at_symbol(")"))
            args = parse_expr_list(")");
        else
            next();
        expect(TokKind::Newline, "newline");
        ProcPtr callee = find_proc(name);
        if (!callee && !lenient_)
            error("call to unknown procedure '" + name + "'");
        auto call = Stmt::make_call(callee, std::move(args));
        if (!callee)
            call = call->with_name(name);  // pattern: match by name
        return call;
    }
    // Assign / Reduce: name[idx] (=|+=) rhs
    std::vector<ExprPtr> idx;
    if (at_symbol("[")) {
        next();
        idx = parse_expr_list("]");
    }
    bool is_reduce;
    if (at_symbol("=")) {
        is_reduce = false;
    } else if (at_symbol("+=")) {
        is_reduce = true;
    } else {
        error("expected '=' or '+='");
    }
    next();
    ExprPtr rhs = parse_expr();
    expect(TokKind::Newline, "newline");
    // A window statement declares `name`, so it may be fresh.
    if (!is_reduce && idx.empty() && rhs->kind() == ExprKind::Window) {
        declare(name, {rhs->type(), true});
        return Stmt::make_window_decl(name, rhs, rhs->type());
    }
    VarInfo info = lenient_ && name == "_" ? VarInfo{} : lookup(name);
    if (is_reduce) {
        return Stmt::make_reduce(name, std::move(idx), rhs, info.type);
    }
    return Stmt::make_assign(name, std::move(idx), rhs, info.type);
}

std::vector<ExprPtr>
Parser::parse_expr_list(std::string_view close)
{
    std::vector<ExprPtr> out;
    out.push_back(parse_expr());
    while (at_symbol(",")) {
        next();
        out.push_back(parse_expr());
    }
    expect_symbol(close);
    return out;
}

namespace {

int
binop_prec(std::string_view s)
{
    if (s == "or") return 1;
    if (s == "and") return 2;
    if (s == "<" || s == "<=" || s == ">" || s == ">=" || s == "==" ||
        s == "!=") {
        return 3;
    }
    if (s == "+" || s == "-") return 4;
    if (s == "*" || s == "/" || s == "%") return 5;
    return -1;
}

BinOpKind
binop_kind(std::string_view s)
{
    if (s == "or") return BinOpKind::Or;
    if (s == "and") return BinOpKind::And;
    if (s == "<") return BinOpKind::Lt;
    if (s == "<=") return BinOpKind::Le;
    if (s == ">") return BinOpKind::Gt;
    if (s == ">=") return BinOpKind::Ge;
    if (s == "==") return BinOpKind::Eq;
    if (s == "!=") return BinOpKind::Ne;
    if (s == "+") return BinOpKind::Add;
    if (s == "-") return BinOpKind::Sub;
    if (s == "*") return BinOpKind::Mul;
    if (s == "/") return BinOpKind::Div;
    if (s == "%") return BinOpKind::Mod;
    throw InternalError("not a binop: " + std::string(s));
}

}  // namespace

ExprPtr
Parser::parse_expr(int min_prec)
{
    ExprPtr lhs = parse_atom();
    for (;;) {
        std::string_view op_text;
        if (peek().kind == TokKind::Symbol)
            op_text = peek().text;
        else if (at_name("and") || at_name("or"))
            op_text = peek().text;
        else
            break;
        int p = binop_prec(op_text);
        if (p < 0 || p < min_prec)
            break;
        next();
        ExprPtr rhs = parse_expr(p + 1);
        lhs = Expr::make_binop(binop_kind(op_text), lhs, rhs);
    }
    return lhs;
}

ExprPtr
Parser::parse_access(const std::string& name)
{
    // Configuration-state read: name.field.
    if (at_symbol(".")) {
        next();
        std::string field = expect_ident();
        return Expr::make_read_config(name, field, ScalarType::F32);
    }
    // name, name[...], name(...) — with window detection.
    if (at_symbol("(")) {
        next();
        if (name == "stride") {
            std::string buf = expect_ident();
            expect_symbol(",");
            if (peek().kind != TokKind::Number)
                error("stride() dim must be a literal");
            int dim = static_cast<int>(next().number);
            expect_symbol(")");
            return Expr::make_stride(buf, dim);
        }
        std::vector<ExprPtr> args;
        if (!at_symbol(")"))
            args = parse_expr_list(")");
        else
            next();
        ScalarType t =
            args.empty() ? ScalarType::F32 : args[0]->type();
        return Expr::make_extern(name, std::move(args), t);
    }
    if (!at_symbol("[")) {
        VarInfo info = lookup(name);
        return Expr::make_read(name, {}, info.type);
    }
    next();
    VarInfo info = lookup(name);
    std::vector<WindowDim> dims;
    bool has_interval = false;
    for (;;) {
        WindowDim d;
        d.lo = parse_expr();
        if (at_symbol(":")) {
            next();
            d.hi = parse_expr();
            has_interval = true;
        }
        dims.push_back(d);
        if (at_symbol(",")) {
            next();
            continue;
        }
        break;
    }
    expect_symbol("]");
    if (has_interval)
        return Expr::make_window(name, std::move(dims), info.type);
    std::vector<ExprPtr> idx;
    idx.reserve(dims.size());
    for (auto& d : dims)
        idx.push_back(d.lo);
    return Expr::make_read(name, std::move(idx), info.type);
}

ExprPtr
Parser::parse_atom()
{
    const Token& t = peek();
    if (t.kind == TokKind::Number) {
        const Token& tok = next();
        if (tok.is_float)
            return Expr::make_const(tok.number, ScalarType::F32);
        return idx_const(static_cast<int64_t>(tok.number));
    }
    if (at_symbol("(")) {
        next();
        ExprPtr e = parse_expr();
        expect_symbol(")");
        return e;
    }
    if (at_symbol("-")) {
        next();
        return Expr::make_usub(parse_atom());
    }
    if (t.kind == TokKind::Name) {
        std::string name = next().text;
        if (name == "True")
            return bool_const(true);
        if (name == "False")
            return bool_const(false);
        if (name == "_")
            return var("_");
        return parse_access(name);
    }
    error("expected expression");
}

StmtPtr
Parser::parse_single_stmt()
{
    return parse_stmt();
}

ExprPtr
Parser::parse_full_expr()
{
    return parse_expr();
}

}  // namespace

ProcPtr
parse_proc(const std::string& src, const std::vector<ProcPtr>& procs)
{
    Parser p(tokenize(src), procs, /*lenient=*/false);
    return p.parse_proc();
}

StmtPtr
parse_pattern(const std::string& src)
{
    Parser p(tokenize(src), {}, /*lenient=*/true);
    return p.parse_single_stmt();
}

ExprPtr
parse_expr_str(const std::string& src)
{
    Parser p(tokenize(src), {}, /*lenient=*/true);
    return p.parse_full_expr();
}

}  // namespace exo2
