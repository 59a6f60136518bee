#include "src/cursor/pattern.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/frontend/parser.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/obs/metrics.h"

namespace exo2 {

namespace {

bool
is_wildcard_name(const std::string& n)
{
    return n == "_";
}

bool
is_wildcard_expr(const ExprPtr& e)
{
    return e && e->kind() == ExprKind::Read && e->name() == "_" &&
           e->idx().empty();
}

bool match_expr(const ExprPtr& pat, const ExprPtr& e);

/** `[_]` as an index list matches any index list. */
bool
match_expr_list(const std::vector<ExprPtr>& pat,
                const std::vector<ExprPtr>& es)
{
    if (pat.size() == 1 && is_wildcard_expr(pat[0]))
        return true;
    if (pat.size() != es.size())
        return false;
    for (size_t i = 0; i < pat.size(); i++) {
        if (!match_expr(pat[i], es[i]))
            return false;
    }
    return true;
}

bool
match_expr(const ExprPtr& pat, const ExprPtr& e)
{
    // Interned pointer identity: a node trivially matches itself (every
    // construct matches an identical construct, wildcards included).
    if (pat == e && pat)
        return true;
    if (is_wildcard_expr(pat))
        return true;
    if (!pat || !e || pat->kind() != e->kind())
        return false;
    switch (pat->kind()) {
      case ExprKind::Const:
        return pat->const_value() == e->const_value();
      case ExprKind::Read:
      case ExprKind::Extern:
        if (!is_wildcard_name(pat->name()) && pat->name() != e->name())
            return false;
        return match_expr_list(pat->idx(), e->idx());
      case ExprKind::BinOp:
        return pat->op() == e->op() && match_expr(pat->lhs(), e->lhs()) &&
               match_expr(pat->rhs(), e->rhs());
      case ExprKind::USub:
        return match_expr(pat->lhs(), e->lhs());
      case ExprKind::Window:
        return is_wildcard_name(pat->name()) || pat->name() == e->name();
      case ExprKind::Stride:
        return pat->name() == e->name() &&
               pat->stride_dim() == e->stride_dim();
      case ExprKind::ReadConfig:
        return pat->name() == e->name() && pat->field() == e->field();
    }
    return false;
}

bool
match_block(const std::vector<StmtPtr>& pat, const std::vector<StmtPtr>& b)
{
    if (pat.empty())
        return true;  // `_` body: match anything
    if (pat.size() != b.size())
        return false;
    for (size_t i = 0; i < pat.size(); i++) {
        if (!pattern_match_stmt(pat[i], b[i]))
            return false;
    }
    return true;
}

}  // namespace

bool
pattern_match_stmt(const StmtPtr& pat, const StmtPtr& s)
{
    if (!pat || !s)
        return false;
    if (pat == s)  // a statement trivially matches itself
        return true;
    // `Call` patterns parsed without a resolvable callee store the name
    // on the stmt itself.
    if (pat->kind() != s->kind())
        return false;
    switch (pat->kind()) {
      case StmtKind::Assign:
      case StmtKind::Reduce:
        if (!is_wildcard_name(pat->name()) && pat->name() != s->name())
            return false;
        if (!match_expr_list(pat->idx(), s->idx()))
            return false;
        return match_expr(pat->rhs(), s->rhs());
      case StmtKind::Alloc:
        return is_wildcard_name(pat->name()) || pat->name() == s->name();
      case StmtKind::For: {
        if (!is_wildcard_name(pat->iter()) && pat->iter() != s->iter())
            return false;
        if (!match_expr(pat->lo(), s->lo()) ||
            !match_expr(pat->hi(), s->hi())) {
            return false;
        }
        return match_block(pat->body(), s->body());
      }
      case StmtKind::If:
        return match_expr(pat->cond(), s->cond()) &&
               match_block(pat->body(), s->body()) &&
               match_block(pat->orelse(), s->orelse());
      case StmtKind::Pass:
        return true;
      case StmtKind::Call: {
        std::string pat_name =
            pat->callee() ? pat->callee()->name() : pat->name();
        std::string s_name = s->callee() ? s->callee()->name() : s->name();
        if (!is_wildcard_name(pat_name) && pat_name != s_name)
            return false;
        return match_expr_list(pat->args(), s->args());
      }
      case StmtKind::WriteConfig:
        return (is_wildcard_name(pat->name()) || pat->name() == s->name()) &&
               (is_wildcard_name(pat->field()) || pat->field() == s->field());
      case StmtKind::WindowDecl:
        return (is_wildcard_name(pat->name()) || pat->name() == s->name()) &&
               match_expr(pat->rhs(), s->rhs());
    }
    return false;
}

namespace {

// ---- Subtree pattern index (DESIGN.md §3) -------------------------------
//
// Every statement subtree gets a memoized summary of the (statement
// kind, binder name) keys occurring in it. A pattern with a concrete
// kind/name can then prune whole subtrees whose summary cannot contain
// a match, turning full-tree searches into walks of the few spines that
// lead to candidates. Summaries are keyed on `Stmt*` identity: the IR
// is immutable and spine-rebuilding edits share untouched subtrees, so
// consecutive proc versions reuse all unchanged entries — the index is
// maintained incrementally across edits for free.

/** Key-relevant name of a statement: what a concrete-name pattern of
 *  the same kind must equal for `pattern_match_stmt` to succeed. */
const std::string&
stmt_key_name(const Stmt& s)
{
    switch (s.kind()) {
      case StmtKind::For:
        return s.iter();
      case StmtKind::Call:
        return s.callee() ? s.callee()->name() : s.name();
      default:
        return s.name();  // empty for If/Pass: no name key
    }
}

uint64_t
stmt_key(StmtKind kind, const std::string& name)
{
    return hash_combine(hash_mix(static_cast<uint64_t>(kind) + 1),
                        hash_str(name));
}

struct SubtreeSummary
{
    /** Bitmask over StmtKind of kinds present in the subtree. */
    uint16_t kind_mask = 0;
    /** 64-bit bloom of the key hashes: one bit per key (`1 << (k&63)`).
     *  A clear bit proves absence without touching `keys`. */
    uint64_t key_bloom = 0;
    /** Sorted unique (kind, name) key hashes present in the subtree. */
    std::vector<uint64_t> keys;
};

/**
 * Memoized in the statement's inline `pattern_memo()` slot (ir/stmt.h):
 * probing costs a pointer dereference, and spine-sharing edits reuse
 * every untouched subtree's summary with no global table. The returned
 * pointer stays valid while the statement lives — the slot owns it.
 */
const SubtreeSummary*
subtree_summary(const StmtPtr& s)
{
    if (s->pattern_memo().epoch == cursor_accel_epoch())
        EXO2_COUNT("cursor.index_hits");
    else
        EXO2_COUNT("cursor.index_misses");
    return probe_subtree_memo<SubtreeSummary>(s->pattern_memo(), [&] {
        auto sum = std::make_shared<SubtreeSummary>();
        sum->kind_mask = static_cast<uint16_t>(
            1u << static_cast<unsigned>(s->kind()));
        std::vector<uint64_t> keys{stmt_key(s->kind(), stmt_key_name(*s))};
        auto merge = [&](const std::vector<StmtPtr>& block) {
            for (const StmtPtr& ch : block) {
                const SubtreeSummary* cs = subtree_summary(ch);
                sum->kind_mask |= cs->kind_mask;
                sum->key_bloom |= cs->key_bloom;
                keys.insert(keys.end(), cs->keys.begin(), cs->keys.end());
            }
        };
        merge(s->body());
        merge(s->orelse());
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (uint64_t k : keys)
            sum->key_bloom |= uint64_t(1) << (k & 63);
        sum->keys = std::move(keys);
        return std::shared_ptr<const SubtreeSummary>(std::move(sum));
    });
}

/** The index-probe form of a parsed pattern. */
struct PatQuery
{
    uint16_t kind_bit = 0;
    bool has_name = false;
    uint64_t key = 0;
};

PatQuery
query_of(const StmtPtr& pat)
{
    PatQuery q;
    q.kind_bit =
        static_cast<uint16_t>(1u << static_cast<unsigned>(pat->kind()));
    const std::string& name = stmt_key_name(*pat);
    if (!name.empty() && !is_wildcard_name(name)) {
        q.has_name = true;
        q.key = stmt_key(pat->kind(), name);
    }
    return q;
}

/** May the subtree rooted at `s` contain a statement matching `q`?
 *  A `false` answer is exact pruning: `pattern_match_stmt` requires a
 *  kind match and (for concrete-name patterns) a key-name match, and
 *  the summary over-approximates both for the whole subtree. */
bool
may_contain(const StmtPtr& s, const PatQuery& q)
{
    if (!pattern_index_enabled())
        return true;
    const SubtreeSummary* sum = subtree_summary(s);
    if (!(sum->kind_mask & q.kind_bit)) {
        EXO2_COUNT("cursor.index_pruned");
        return false;
    }
    if (q.has_name &&
        (!(sum->key_bloom & (uint64_t(1) << (q.key & 63))) ||
         !std::binary_search(sum->keys.begin(), sum->keys.end(), q.key))) {
        EXO2_COUNT("cursor.index_pruned");
        return false;
    }
    return true;
}

/** Pre-order walk of all statements under a block, collecting matches;
 *  subtrees that cannot contain a match are skipped wholesale. */
void
walk_block(const ProcPtr& p, const std::vector<StmtPtr>& block, Path path,
           PathLabel label, const StmtPtr& pat, const PatQuery& q,
           std::vector<Cursor>* out)
{
    for (size_t i = 0; i < block.size(); i++) {
        const StmtPtr& s = block[i];
        if (!may_contain(s, q))
            continue;
        Path here = path;
        here.push_back({label, static_cast<int>(i)});
        if (pattern_match_stmt(pat, s)) {
            CursorLoc l;
            l.kind = CursorKind::Node;
            l.path = here;
            out->push_back(Cursor(p, std::move(l)));
        }
        if (!s->body().empty())
            walk_block(p, s->body(), here, PathLabel::Body, pat, q, out);
        if (!s->orelse().empty())
            walk_block(p, s->orelse(), here, PathLabel::Orelse, pat, q, out);
    }
}

/** Split a trailing " #k" selector off a pattern string. */
std::string
split_selector(const std::string& pattern, int* k_out)
{
    *k_out = -1;
    auto pos = pattern.rfind(" #");
    if (pos == std::string::npos)
        return pattern;
    *k_out = std::atoi(pattern.c_str() + pos + 2);
    return pattern.substr(0, pos);
}

std::vector<Cursor>
find_matching(const ProcPtr& p, const Path& prefix, const StmtPtr& pat)
{
    std::vector<Cursor> out;
    PatQuery q = query_of(pat);
    if (prefix.empty()) {
        walk_block(p, p->body_stmts(), {}, PathLabel::Body, pat, q, &out);
        return out;
    }
    // Search the subtree rooted at `prefix` (including the root stmt).
    StmtPtr root = stmt_at(p, prefix);
    if (pattern_match_stmt(pat, root)) {
        CursorLoc l;
        l.kind = CursorKind::Node;
        l.path = prefix;
        out.push_back(Cursor(p, l));
    }
    Path parent = prefix;
    if (!root->body().empty())
        walk_block(p, root->body(), parent, PathLabel::Body, pat, q, &out);
    if (!root->orelse().empty())
        walk_block(p, root->orelse(), parent, PathLabel::Orelse, pat, q,
                   &out);
    return out;
}

}  // namespace

namespace {

/** Parsed-pattern cache: schedules re-find the same handful of pattern
 *  strings across every step, so parsing each once is enough. */
StmtPtr
cached_parse_pattern(const std::string& body)
{
    static auto* cache = new std::unordered_map<std::string, StmtPtr>();
    auto it = cache->find(body);
    if (it != cache->end())
        return it->second;
    StmtPtr pat = parse_pattern(body + "\n");
    if (cache->size() >= 4096)
        cache->clear();
    cache->emplace(body, pat);
    return pat;
}

}  // namespace

std::vector<Cursor>
pattern_find_all(const ProcPtr& p, const Path& prefix,
                 const std::string& pattern)
{
    int k = -1;
    std::string body = split_selector(pattern, &k);
    StmtPtr pat = cached_parse_pattern(body);
    auto all = find_matching(p, prefix, pat);
    if (k >= 0) {
        if (k >= static_cast<int>(all.size()))
            return {};
        return {all[static_cast<size_t>(k)]};
    }
    return all;
}

Cursor
pattern_find_one(const ProcPtr& p, const Path& prefix,
                 const std::string& pattern)
{
    auto all = pattern_find_all(p, prefix, pattern);
    if (all.empty()) {
        throw SchedulingError("find: no match for pattern '" + pattern +
                              "' in " + p->name());
    }
    return all.front();
}

Cursor
pattern_find_loop(const ProcPtr& p, const Path& prefix,
                  const std::string& name)
{
    int k = -1;
    std::string base = split_selector(name, &k);
    std::string pattern = "for " + base + " in _: _";
    if (k >= 0)
        pattern += " #" + std::to_string(k);
    return pattern_find_one(p, prefix, pattern);
}

Cursor
pattern_find_alloc(const ProcPtr& p, const Path& prefix,
                   const std::string& name)
{
    int k = -1;
    std::string base = split_selector(name, &k);
    std::string pattern = base + ": _";
    if (k >= 0)
        pattern += " #" + std::to_string(k);
    return pattern_find_one(p, prefix, pattern);
}

}  // namespace exo2
