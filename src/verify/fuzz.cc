#include "src/verify/fuzz.h"

#include <functional>
#include <sstream>

#include "src/analysis/affine.h"
#include "src/cursor/cursor.h"
#include "src/ir/builder.h"
#include "src/ir/errors.h"
#include "src/lint/lint.h"
#include "src/machine/cost_sim.h"
#include "src/machine/machine.h"
#include "src/primitives/primitives.h"
#include "src/sched/blas.h"
#include "src/sched/combinators.h"
#include "src/sched/vectorize.h"
#include "src/util/rng.h"
#include "src/verify/sandbox.h"

namespace exo2 {
namespace verify {

namespace {

using Rng = XorShiftRng;  // the shared seeded RNG (util/rng.h)

void
walk_block(const ProcPtr& p, const std::vector<StmtPtr>& block,
           const Path& prefix, PathLabel label, bool parent_is_scope,
           Sites* w)
{
    for (size_t i = 0; i < block.size(); i++) {
        const StmtPtr& s = block[i];
        Path here = prefix;
        here.push_back({label, static_cast<int>(i)});
        CursorLoc loc;
        loc.kind = CursorKind::Node;
        loc.path = here;
        Cursor c(p, loc);
        w->stmts.push_back(c);
        if (i + 1 < block.size())
            w->with_next.push_back(c);
        switch (s->kind()) {
          case StmtKind::For:
            w->loops.push_back(c);
            if (parent_is_scope)
                w->scopes.push_back(c);
            break;
          case StmtKind::If:
            if (parent_is_scope)
                w->scopes.push_back(c);
            break;
          case StmtKind::Assign:
            w->writes.push_back(c);
            if (s->idx().empty())
                w->scalar_assigns.push_back(c);
            break;
          case StmtKind::Reduce:
            w->writes.push_back(c);
            break;
          case StmtKind::Alloc:
            w->allocs.push_back(c);
            break;
          default:
            break;
        }
        if (i + 1 < block.size()) {
            const StmtPtr& nxt = block[i + 1];
            Path np = prefix;
            np.push_back({label, static_cast<int>(i + 1)});
            CursorLoc nloc;
            nloc.kind = CursorKind::Node;
            nloc.path = np;
            Cursor nc(p, nloc);
            if (s->kind() == StmtKind::For && nxt->kind() == StmtKind::For)
                w->for_pairs.emplace_back(c, nc);
            if (s->kind() == StmtKind::If && nxt->kind() == StmtKind::If)
                w->if_pairs.emplace_back(c, nc);
        }
        bool scope =
            s->kind() == StmtKind::For || s->kind() == StmtKind::If;
        if (!s->body().empty())
            walk_block(p, s->body(), here, PathLabel::Body, scope, w);
        if (!s->orelse().empty())
            walk_block(p, s->orelse(), here, PathLabel::Orelse, scope, w);
    }
}

/** A fuzzer op's site: the ordinal resolved modulo the candidates. */
template <typename T>
const T&
pick(const std::vector<T>& v, int64_t ordinal, const char* what)
{
    if (v.empty())
        throw SchedulingError(std::string("fuzz: no candidate ") + what);
    uint64_t u = static_cast<uint64_t>(ordinal);
    return v[u % v.size()];
}

/** A `t_*` op's site: the ordinal must be in range. Tuner steps record
 *  exact ordinals, so an out-of-range one means the script is replayed
 *  against the wrong proc — fail loudly rather than silently apply a
 *  different action. */
const Cursor&
site(const std::vector<Cursor>& v, int64_t ordinal, const char* what)
{
    if (ordinal < 0 || static_cast<size_t>(ordinal) >= v.size()) {
        throw SchedulingError(
            "step references " + std::string(what) + " #" +
            std::to_string(ordinal) + " but the proc has " +
            std::to_string(v.size()) +
            " (replaying against the wrong proc?)");
    }
    return v[static_cast<size_t>(ordinal)];
}

/** First size argument of the proc. */
std::string
first_size_arg(const ProcPtr& p)
{
    for (const auto& a : p->args()) {
        if (a.is_size || (a.dims.empty() && a.type == ScalarType::Index))
            return a.name;
    }
    throw SchedulingError("fuzz: proc has no size argument");
}

/** Condition `buf[0,...,0] >= 0` over the first buffer argument. */
ExprPtr
first_buffer_cond(const ProcPtr& p)
{
    for (const auto& a : p->args()) {
        if (a.dims.empty())
            continue;
        std::vector<ExprPtr> idx(a.dims.size(), idx_const(0));
        ExprPtr rd = Expr::make_read(a.name, std::move(idx), a.type);
        return Expr::make_binop(BinOpKind::Ge, rd,
                                Expr::make_const(0.0, a.type));
    }
    throw SchedulingError("fuzz: proc has no buffer argument");
}

TailStrategy
tail_of(int64_t n)
{
    switch (static_cast<uint64_t>(n) % 4) {
      case 0: return TailStrategy::Perfect;
      case 1: return TailStrategy::Guard;
      case 2: return TailStrategy::Cut;
      default: return TailStrategy::CutAndGuard;
    }
}

}  // namespace

std::string
step_to_string(const FuzzStep& step)
{
    std::ostringstream os;
    os << step.op << "[";
    for (size_t i = 0; i < step.n.size(); i++)
        os << (i ? "," : "") << step.n[i];
    if (!step.s.empty()) {
        os << ";";
        for (size_t i = 0; i < step.s.size(); i++)
            os << (i ? "," : "") << step.s[i];
    }
    os << "]";
    return os.str();
}

FuzzStep
step_from_string(const std::string& text)
{
    size_t lb = text.find('[');
    if (lb == std::string::npos || text.empty() || text.back() != ']')
        throw SchedulingError("step_from_string: malformed step '" +
                              text + "' (want op[n,...;s,...])");
    FuzzStep st;
    st.op = text.substr(0, lb);
    if (st.op.empty())
        throw SchedulingError("step_from_string: empty op in '" + text +
                              "'");
    std::string body = text.substr(lb + 1, text.size() - lb - 2);
    // Operands never contain step syntax; embedded '['/']'/';' means
    // the input is not one step (e.g. a whole script joined onto one
    // line) — reject it rather than absorb the rest into a garbage
    // name operand.
    if (body.find('[') != std::string::npos ||
        body.find(']') != std::string::npos ||
        body.find(';') != body.rfind(';')) {
        throw SchedulingError(
            "step_from_string: '" + text + "' is not a single step "
            "(scripts are one step per line; see script_from_string)");
    }
    size_t semi = body.find(';');
    std::string nums = body.substr(0, semi);
    auto split = [](const std::string& s) {
        std::vector<std::string> out;
        size_t pos = 0;
        while (pos <= s.size()) {
            size_t c = s.find(',', pos);
            if (c == std::string::npos) {
                out.push_back(s.substr(pos));
                break;
            }
            out.push_back(s.substr(pos, c - pos));
            pos = c + 1;
        }
        return out;
    };
    if (!nums.empty()) {
        for (const std::string& tok : split(nums)) {
            try {
                size_t used = 0;
                int64_t v = std::stoll(tok, &used);
                if (used != tok.size())
                    throw std::invalid_argument(tok);
                st.n.push_back(v);
            } catch (const std::exception&) {
                throw SchedulingError(
                    "step_from_string: bad integer operand '" + tok +
                    "' in '" + text + "'");
            }
        }
    }
    if (semi != std::string::npos)
        st.s = split(body.substr(semi + 1));
    return st;
}

std::string
script_to_string(const std::vector<FuzzStep>& steps)
{
    std::string out;
    for (const FuzzStep& st : steps) {
        out += step_to_string(st);
        out += "\n";
    }
    return out;
}

std::vector<FuzzStep>
script_from_string(const std::string& text)
{
    std::vector<FuzzStep> out;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t nl = text.find('\n', pos);
        std::string line = nl == std::string::npos
                               ? text.substr(pos)
                               : text.substr(pos, nl - pos);
        while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
            line.pop_back();
        size_t first = line.find_first_not_of(" \t");
        line = first == std::string::npos ? std::string()
                                          : line.substr(first);
        // '#' lines are comments: cache entries and hand-edited repro
        // scripts may annotate steps without breaking replay.
        if (!line.empty() && line[0] != '#')
            out.push_back(step_from_string(line));
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
    }
    return out;
}

Sites
walk_sites(const ProcPtr& p)
{
    Sites w;
    walk_block(p, p->body_stmts(), {}, PathLabel::Body, false, &w);
    return w;
}

ProcPtr
apply_fuzz_step(const ProcPtr& p, const FuzzStep& st)
{
    return apply_fuzz_step(p, walk_sites(p), st);
}

ProcPtr
apply_fuzz_step(const ProcPtr& p, const Sites& w, const FuzzStep& st)
{
    const std::string& op = st.op;
    auto ni = [&](size_t i) -> int64_t {
        return i < st.n.size() ? st.n[i] : 0;
    };
    auto si = [&](size_t i) -> std::string {
        if (i >= st.s.size())
            throw SchedulingError("step '" + op + "' missing name operand");
        return st.s[i];
    };

    if (op == "divide") {
        return divide_loop(p, pick(w.loops, ni(0), "loop"), ni(1),
                           {si(0), si(1)}, tail_of(ni(2)));
    }
    if (op == "reorder_loops")
        return reorder_loops(p, pick(w.loops, ni(0), "loop"));
    if (op == "unroll") {
        Cursor lc = pick(w.loops, ni(0), "loop");
        StmtPtr s = lc.stmt();
        // Keep unrolled code small enough to interpret and compile.
        Affine lo = to_affine(s->lo());
        Affine hi = to_affine(s->hi());
        require(lo.is_const() && hi.is_const() &&
                    hi.constant - lo.constant <= 16,
                "fuzz: unroll target too large or non-constant");
        return unroll_loop(p, lc);
    }
    if (op == "cut") {
        Cursor lc = pick(w.loops, ni(0), "loop");
        ExprPtr at = lc.stmt()->lo() + idx_const(1 + (ni(1) % 3));
        return cut_loop(p, lc, at);
    }
    if (op == "shift") {
        return shift_loop(p, pick(w.loops, ni(0), "loop"),
                          idx_const(1 + (ni(1) % 3)));
    }
    if (op == "join") {
        const auto& pr = pick(w.for_pairs, ni(0), "adjacent loop pair");
        return join_loops(p, pr.first, pr.second);
    }
    if (op == "fuse") {
        if (!w.if_pairs.empty() && (ni(1) & 1)) {
            const auto& pr = pick(w.if_pairs, ni(0), "adjacent if pair");
            return fuse(p, pr.first, pr.second);
        }
        const auto& pr = pick(w.for_pairs, ni(0), "adjacent loop pair");
        return fuse(p, pr.first, pr.second);
    }
    if (op == "fission") {
        Cursor lc = pick(w.loops, ni(0), "loop");
        auto body = lc.body_list();
        require(body.size() >= 2, "fuzz: fission needs a 2+ stmt body");
        size_t g = 1 + static_cast<uint64_t>(ni(1)) % (body.size() - 1);
        return fission(p, body[g].before(), 1);
    }
    if (op == "reorder_stmts") {
        Cursor c = pick(w.with_next, ni(0), "stmt with successor");
        return reorder_stmts(p, c, c.next());
    }
    if (op == "bind_expr") {
        Cursor wr = pick(w.writes, ni(0), "write");
        return bind_expr(p, wr.rhs(), si(0), (ni(1) & 1) != 0);
    }
    if (op == "bind_config") {
        Cursor wr = pick(w.writes, ni(0), "write");
        return bind_config(p, wr.rhs(), si(0), si(1));
    }
    if (op == "commute")
        return commute_expr(p, pick(w.writes, ni(0), "write").rhs());
    if (op == "inline_assign")
        return inline_assign(p, pick(w.scalar_assigns, ni(0),
                                     "scalar assign"));
    if (op == "lift_alloc") {
        return lift_alloc(p, pick(w.allocs, ni(0), "alloc"),
                          1 + (ni(1) & 1));
    }
    if (op == "sink_alloc")
        return sink_alloc(p, pick(w.allocs, ni(0), "alloc"));
    if (op == "delete_buffer")
        return delete_buffer(p, pick(w.allocs, ni(0), "alloc"));
    if (op == "divide_dim")
        return divide_dim(p, pick(w.allocs, ni(0), "alloc"), 0, 2);
    if (op == "expand_dim") {
        return expand_dim(p, pick(w.allocs, ni(0), "alloc"), idx_const(2),
                          idx_const(0));
    }
    if (op == "rearrange_dim") {
        Cursor ac = pick(w.allocs, ni(0), "alloc");
        require(ac.stmt()->dims().size() >= 2,
                "fuzz: rearrange_dim needs >= 2 dims");
        std::vector<int> perm(ac.stmt()->dims().size());
        for (size_t i = 0; i < perm.size(); i++)
            perm[i] = static_cast<int>(i);
        std::swap(perm[0], perm[1]);
        return rearrange_dim(p, ac, perm);
    }
    if (op == "mult_loops")
        return mult_loops(p, pick(w.loops, ni(0), "loop"), si(0));
    if (op == "remove_loop")
        return remove_loop(p, pick(w.loops, ni(0), "loop"));
    if (op == "add_loop") {
        return add_loop(p, pick(w.stmts, ni(0), "stmt"), si(0),
                        idx_const(1 + (ni(1) % 3)), (ni(2) & 1) != 0);
    }
    if (op == "specialize_size") {
        Cursor sc = pick(w.stmts, ni(0), "stmt");
        ExprPtr cond = Expr::make_binop(
            BinOpKind::Eq,
            Expr::make_binop(BinOpKind::Mod, var(first_size_arg(p)),
                             idx_const(2 + (ni(1) % 3))),
            idx_const(0));
        return specialize(p, sc, {cond});
    }
    if (op == "specialize_data") {
        Cursor sc = pick(w.stmts, ni(0), "stmt");
        return specialize(p, sc, {first_buffer_cond(p)});
    }
    if (op == "lift_scope")
        return lift_scope(p, pick(w.scopes, ni(0), "nested scope"));
    if (op == "parallelize")
        return parallelize_loop(p, pick(w.loops, ni(0), "loop"));
    if (op == "simplify")
        return simplify(p);
    if (op == "dce")
        return eliminate_dead_code(p);
    // The tuner's moves (src/tune/actions.h): strict site ordinals.
    if (op == "t_divide") {
        // Tail 0=cut 1=guard 2=perfect: `divide`'s codes 2, 1, 0.
        return divide_loop(p, site(w.loops, ni(0), "loop"), ni(1),
                           {si(0), si(1)},
                           tail_of(2 - static_cast<uint64_t>(ni(2)) % 3));
    }
    if (op == "t_reorder")
        return reorder_loops(p, site(w.loops, ni(0), "loop"));
    if (op == "t_unroll")
        return unroll_loop(p, site(w.loops, ni(0), "loop"));
    if (op == "t_vectorize") {
        const Machine& m = find_machine(si(0));
        ScalarType prec = type_from_name(si(1));
        sched::VectorizeOpts opts;
        opts.tail = (ni(1) == 1) ? TailStrategy::CutAndGuard
                                 : TailStrategy::Cut;
        return sched::vectorize(p, site(w.loops, ni(0), "loop"), m, prec,
                                opts);
    }
    if (op == "t_interleave") {
        return sched::interleave_loop(p, site(w.loops, ni(0), "loop"),
                                      static_cast<int>(ni(1)));
    }
    if (op == "t_cse")
        return sched::cse_reads(p, site(w.loops, ni(0), "loop"));
    if (op == "t_licm")
        return sched::hoist_from_loop(p, site(w.loops, ni(0), "loop"));
    if (op == "t_uaj") {
        return sched::unroll_and_jam(p, site(w.loops, ni(0), "loop"),
                                     static_cast<int>(ni(1)));
    }
    if (op == "t_lift_alloc") {
        return lift_alloc(p, site(w.allocs, ni(0), "alloc"),
                          static_cast<int>(ni(1)));
    }
    throw SchedulingError("unknown op '" + op + "'");
}

namespace {

/** Draw one candidate step for the current proc and its site walk.
 *  `uniq` must be unique within the chain (fresh-name generation). */
FuzzStep
random_step(const ProcPtr& p, const Sites& w, Rng* rng, int uniq)
{
    static const char* kOps[] = {
        "divide",        "divide",       "reorder_loops", "unroll",
        "cut",           "shift",        "join",          "fuse",
        "fission",       "reorder_stmts", "bind_expr",    "bind_config",
        "commute",       "inline_assign", "lift_alloc",   "sink_alloc",
        "delete_buffer", "divide_dim",   "expand_dim",    "rearrange_dim",
        "mult_loops",    "remove_loop",  "add_loop",      "specialize_size",
        "specialize_data", "lift_scope", "parallelize",   "simplify",
        "dce",           "t_divide",     "t_reorder",     "t_unroll",
        "t_vectorize",   "t_interleave", "t_cse",         "t_licm",
        "t_uaj",         "t_lift_alloc",
    };
    constexpr int kNumOps = sizeof(kOps) / sizeof(kOps[0]);
    FuzzStep st;
    st.op = kOps[rng->below(kNumOps)];
    if (st.op.rfind("t_", 0) == 0) {
        // The operands the tuner enumerates (tune/actions.cc) for
        // AVX2 at f32, on an in-range site.
        const auto& sites = st.op == "t_lift_alloc" ? w.allocs : w.loops;
        if (sites.empty())
            return st;  // the strict site lookup throws
        const Machine& m = machine_avx2();
        int64_t at = rng->below(static_cast<int64_t>(sites.size()));
        int64_t bit = rng->below(2);
        st.n = {at};
        if (st.op == "t_divide") {
            TileHints h = tile_hints(m, ScalarType::F32, CostConfig());
            std::vector<int64_t> fs = h.split_factors;
            fs.insert(fs.end(), h.cache_tiles.begin(), h.cache_tiles.end());
            std::string it = sites[static_cast<size_t>(at)].stmt()->iter();
            st.n = {at, fs[rng->below(static_cast<int64_t>(fs.size()))], 0};
            st.s = {fresh_in(p, it + "o"), fresh_in(p, it + "i")};
        } else if (st.op == "t_vectorize") {
            st.n.push_back(m.supports_predication() ? bit : 0);
            st.s = {m.name(), type_name(ScalarType::F32)};
        } else if (st.op == "t_interleave" || st.op == "t_uaj") {
            st.n.push_back(bit ? 4 : 2);
        } else if (st.op == "t_lift_alloc") {
            st.n.push_back(1 + bit);
        }
        return st;
    }
    std::string u = std::to_string(uniq);
    // Three generic integer operands cover every fuzzer op's parameters.
    st.n = {rng->below(1 << 20), rng->below(1 << 20), rng->below(1 << 20)};
    if (st.op == "divide") {
        st.n[1] = 2 + rng->below(3);  // factor 2..4
        st.s = {"fz" + u + "o", "fz" + u + "i"};
    } else if (st.op == "bind_expr") {
        st.s = {"fzb" + u};
    } else if (st.op == "bind_config") {
        st.s = {"fzcfg", "f" + u};
    } else if (st.op == "mult_loops") {
        st.s = {"fzm" + u};
    } else if (st.op == "add_loop") {
        st.s = {"fzl" + u};
    }
    return st;
}

enum class ReplayStatus { Ok, Divergence, EngineError };

ReplayStatus
replay(const ProcPtr& p, const SizeEnv& env, uint64_t seed,
       const std::vector<FuzzStep>& steps)
{
    ProcPtr cur = p;
    for (const FuzzStep& st : steps) {
        try {
            cur = apply_fuzz_step(cur, st);
        } catch (const SchedulingError&) {
        } catch (const InvalidCursorError&) {
        } catch (const InternalError&) {
            return ReplayStatus::EngineError;
        }
    }
    return tri_oracle_check(p, cur, env, seed).ok
               ? ReplayStatus::Ok
               : ReplayStatus::Divergence;
}

/** Greedy single-step removal to a locally minimal failing chain. */
std::vector<FuzzStep>
minimize(const ProcPtr& p, const SizeEnv& env, uint64_t seed,
         std::vector<FuzzStep> steps)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t i = 0; i < steps.size();) {
            std::vector<FuzzStep> cand = steps;
            cand.erase(cand.begin() + static_cast<long>(i));
            if (replay(p, env, seed, cand) != ReplayStatus::Ok) {
                steps = std::move(cand);
                changed = true;
            } else {
                i++;
            }
        }
    }
    return steps;
}

}  // namespace

FuzzResult
fuzz_schedule(const ProcPtr& p, const SizeEnv& env, uint64_t seed,
              int max_steps)
{
    Rng rng(seed);
    FuzzResult r;
    ProcPtr cur = p;
    int attempts = 0;
    while (static_cast<int>(r.applied.size()) < max_steps &&
           attempts < max_steps * 8) {
        attempts++;
        Sites w = walk_sites(cur);
        FuzzStep st = random_step(cur, w, &rng, attempts);
        try {
            cur = apply_fuzz_step(cur, w, st);
            r.applied.push_back(st);
        } catch (const SchedulingError&) {
        } catch (const InvalidCursorError&) {
        } catch (const InternalError& e) {
            r.status = FuzzResult::Status::EngineError;
            r.detail = "InternalError applying " + step_to_string(st) +
                       ": " + e.what();
            r.applied.push_back(st);
            r.minimized = minimize(p, env, seed, r.applied);
            return r;
        }
    }
    r.scheduled = cur;
    // Fourth oracle (DESIGN.md §9): the static linter's verdict on the
    // scheduled proc, recorded before execution so a contradiction with
    // the dynamic oracles below is detectable.
    {
        lint::LintReport lrep = lint::lint_proc(cur);
        r.lint_safe = lrep.proven_safe();
        r.lint_errors = lrep.count(lint::Severity::Error);
    }
    TriOracleReport rep = tri_oracle_check(p, cur, env, seed);
    if (rep.ok) {
        r.status = FuzzResult::Status::Ok;
        return r;
    }
    if (rep.is_fault()) {
        // Without fault injection a fault is deterministic, so ddmin
        // replays it faithfully. Under injection a re-run draws fresh
        // faults, and single-step removal would minimize noise: the
        // repro is then the full applied chain.
        bool injected = current_fault_spec().any();
        r.fault = rep.fault;
        r.minimized =
            injected ? r.applied : minimize(p, env, seed, r.applied);
        if (r.lint_safe && rep.fault.kind == FaultKind::Crash &&
            !injected) {
            // Lint proved every access in-bounds, yet the kernel died
            // on a real (uninjected) fatal signal: one of the two is
            // wrong, and either way it is a soundness bug.
            r.status = FuzzResult::Status::LintUnsound;
            r.detail = "lint proved the schedule safe but the C oracle "
                       "crashed: " + rep.detail;
            return r;
        }
        // The candidate could not be executed (compile fail/timeout,
        // dlopen fail, sandboxed crash or hang). Not an equivalence
        // verdict: record the replayable repro and let the campaign
        // continue.
        r.status = FuzzResult::Status::Fault;
        r.detail = rep.detail;
        return r;
    }
    r.status = FuzzResult::Status::Divergence;
    r.detail = rep.detail;
    r.minimized = minimize(p, env, seed, r.applied);
    return r;
}

std::string
fuzz_repro_string(const std::string& kernel, uint64_t seed,
                  const FuzzResult& r)
{
    const char* what =
        r.status == FuzzResult::Status::Fault ? "fuzz fault"
        : r.status == FuzzResult::Status::EngineError ? "fuzz engine error"
        : r.status == FuzzResult::Status::LintUnsound
            ? "lint soundness bug"
            : "fuzz divergence";
    std::ostringstream os;
    os << what << " on kernel '" << kernel << "' seed " << seed
       << "\n  detail: " << r.detail << "\n  applied chain:";
    for (const auto& st : r.applied)
        os << " " << step_to_string(st);
    os << "\n  minimized chain:";
    for (const auto& st : r.minimized)
        os << " " << step_to_string(st);
    os << "\n  replay: apply_fuzz_step over the minimized chain on the "
          "kernel, then tri_oracle_check with the same sizes and seed "
       << seed;
    return os.str();
}

}  // namespace verify
}  // namespace exo2
