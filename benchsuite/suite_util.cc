#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "benchsuite/suite.h"
#include "src/analysis/memo.h"
#include "src/cursor/accel.h"
#include "src/interp/interp.h"
#include "src/ir/interner.h"
#include "src/machine/cost_sim.h"
#include "src/obs/trace.h"
#include "src/util/rng.h"

namespace exo2 {
namespace suite {

void
Result::fail(const std::string& why)
{
    failed++;
    // The first few failures are enough to diagnose a broken run.
    if (failed <= 5)
        std::fprintf(stderr, "bench_suite: FAILED: %s\n", why.c_str());
}

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

Summary
summarize(const std::vector<double>& v)
{
    Summary s;
    s.n = v.size();
    s.median = percentile(v, 50);
    s.q1 = percentile(v, 25);
    s.q3 = percentile(v, 75);
    s.p90 = percentile(v, 90);
    // In tenths of a percent, so "ten samples beyond" is exact.
    for (size_t tenths : {999, 990, 950, 900, 750, 500}) {
        if (s.n * (1000 - tenths) >= 10 * 1000) {
            s.tail_pct = static_cast<double>(tenths) / 10.0;
            s.tail = percentile(v, s.tail_pct);
            break;
        }
    }
    return s;
}

double
median(const std::vector<double>& v)
{
    return percentile(v, 50);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/** 1-based ranks, ties sharing their average rank. */
std::vector<double>
ranks(const std::vector<double>& v)
{
    std::vector<size_t> order(v.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> out(v.size());
    for (size_t i = 0; i < order.size();) {
        size_t j = i;
        while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]])
            j++;
        double avg = (static_cast<double>(i + j) / 2.0) + 1.0;
        for (size_t k = i; k <= j; k++)
            out[order[k]] = avg;
        i = j + 1;
    }
    return out;
}

}  // namespace

double
spearman(const std::vector<double>& x, const std::vector<double>& y)
{
    if (x.size() != y.size() || x.size() < 2)
        return 0;
    std::vector<double> rx = ranks(x), ry = ranks(y);
    double n = static_cast<double>(x.size());
    double mx = (n + 1) / 2, my = (n + 1) / 2;
    double sxy = 0, sxx = 0, syy = 0;
    for (size_t i = 0; i < rx.size(); i++) {
        sxy += (rx[i] - mx) * (ry[i] - my);
        sxx += (rx[i] - mx) * (rx[i] - mx);
        syy += (ry[i] - my) * (ry[i] - my);
    }
    return (sxx == 0 || syy == 0) ? 0 : sxy / std::sqrt(sxx * syy);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

// ---------------------------------------------------------------------------
// Kernel execution helpers
// ---------------------------------------------------------------------------

verify::OracleInputs
bench_inputs(const ProcPtr& p, const verify::SizeEnv& env, uint64_t seed)
{
    verify::OracleInputs in = verify::make_inputs(p, env, seed);
    for (RunArg& a : in.args) {
        if (a.kind == RunArg::Kind::Scalar)
            a.scalar = 1.0;
    }
    return in;
}

std::string
compare_buffers(const verify::OracleInputs& want,
                const verify::OracleInputs& got, double tol)
{
    if (want.buffers.size() != got.buffers.size())
        return "signature changed";
    for (size_t i = 0; i < want.buffers.size(); i++) {
        const Buffer& x = *want.buffers[i];
        const Buffer& y = *got.buffers[i];
        if (x.size() != y.size())
            return "buffer " + std::to_string(i) + " changed size";
        for (int64_t j = 0; j < x.size(); j++) {
            double err = std::fabs(x.at(j) - y.at(j)) /
                         std::max(1.0, std::max(std::fabs(x.at(j)),
                                                std::fabs(y.at(j))));
            if (!(err <= tol)) {
                return "buffer " + std::to_string(i) + "[" +
                       std::to_string(j) + "]: " + std::to_string(x.at(j)) +
                       " vs " + std::to_string(y.at(j));
            }
        }
    }
    return "";
}

std::string
interp_mismatch(const ProcPtr& original, const ProcPtr& scheduled,
                const verify::SizeEnv& env, uint64_t seed, double tol)
{
    verify::OracleInputs want = verify::make_inputs(original, env, seed);
    verify::OracleInputs got = verify::make_inputs(scheduled, env, seed);
    try {
        interp_run(original, want.args);
        interp_run(scheduled, got.args);
    } catch (const std::exception& e) {
        return std::string("interpreter: ") + e.what();
    }
    return compare_buffers(want, got, tol);
}

// ---------------------------------------------------------------------------
// Op scheduling and timing
// ---------------------------------------------------------------------------

size_t
CyclicOrder::at(size_t k)
{
    size_t c = k / n_;
    while (cycles_.size() <= c) {
        std::vector<size_t> perm(n_);
        for (size_t i = 0; i < n_; i++)
            perm[i] = i;
        XorShiftRng rng(seed_ * 1000003ull + cycles_.size());
        for (size_t i = n_; i > 1; i--)
            std::swap(perm[i - 1], perm[rng.below(static_cast<int64_t>(i))]);
        cycles_.push_back(std::move(perm));
    }
    return cycles_[c][k % n_];
}

namespace {

OpLog
run_ops(size_t ops, const std::function<double(size_t)>& op)
{
    OpLog log;
    double t0 = now_s();
    for (size_t k = 0; k < ops; k++)
        log.ms.push_back(op(k));
    log.wall_s = now_s() - t0;
    return log;
}

}  // namespace

OpLog
measure(const Options& o, Result& r, size_t cycle, double cycle_seconds,
        const std::function<double(size_t)>& op)
{
    // Whole cycles, as many as fit the time on the reference machine:
    // every run does the same work, so counts and memory repeat.
    auto cycles = [&](double seconds) {
        return static_cast<size_t>(
            std::max(1.0, std::round(seconds / cycle_seconds)));
    };
    if (!o.trace)
        return run_ops(cycles(o.seconds) * cycle, op);
    OpLog plain = run_ops(cycles(o.seconds / 2) * cycle, op);
    EngineCounters before = EngineCounters::now();
    start_tracing();
    OpLog traced = run_ops(plain.ms.size(), op);
    uint64_t dropped = 0;
    std::map<std::string, SpanStat> fold = stop_tracing(&dropped);
    report_spans(r, fold, traced.wall_s * 1e3);
    report_engine(r, before, EngineCounters::now());
    double sum_plain = 0, sum_traced = 0;
    for (double ms : plain.ms)
        sum_plain += ms;
    for (double ms : traced.ms)
        sum_traced += ms;
    r.set("obs.trace_overhead_frac", ratio(sum_traced, sum_plain) - 1,
          "ratio");
    r.set("trace.dropped", static_cast<double>(dropped), "count");
    if (dropped)
        r.fail("the tracer dropped " + std::to_string(dropped) + " spans");
    return plain;
}

void
report_ops(Result& r, const OpLog& log)
{
    Summary s = summarize(log.ms);
    r.set("op_ms_p50", s.median, "ms");
    r.set("op_ms_p90", s.p90, "ms");
    r.set("ops_per_s", ratio(static_cast<double>(log.ms.size()), log.wall_s),
          "1/s");
    std::fprintf(stderr,
                 "bench_suite: %zu ops in %.2f s; op ms p50 %.3f, q1 %.3f, "
                 "q3 %.3f, p90 %.3f",
                 s.n, log.wall_s, s.median, s.q1, s.q3, s.p90);
    if (s.tail_pct > 0)
        std::fprintf(stderr, ", p%g %.3f", s.tail_pct, s.tail);
    std::fprintf(stderr, "\n");
}

double
median_setup_s(int reps, const std::function<void()>& setup)
{
    std::vector<double> secs;
    for (int i = 0; i < reps; i++) {
        double t0 = now_s();
        setup();
        secs.push_back(now_s() - t0);
    }
    return median(secs);
}

double
self_peak_rss_mb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

namespace {

/** Just enough of a JSON reader for trace-event files: strings with
 *  escapes, numbers, and skipping any other value. */
class JsonScanner
{
  public:
    explicit JsonScanner(const std::string& s) : s_(s) {}

    void ws()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                                  s_[i_] == '\r' || s_[i_] == '\t'))
            i_++;
    }
    bool peek(char c)
    {
        ws();
        return i_ < s_.size() && s_[i_] == c;
    }
    void expect(char c)
    {
        if (!peek(c))
            bad(std::string("expected '") + c + "'");
        i_++;
    }
    bool accept(char c)
    {
        if (!peek(c))
            return false;
        i_++;
        return true;
    }
    std::string string()
    {
        expect('"');
        std::string out;
        while (i_ < s_.size() && s_[i_] != '"') {
            char c = s_[i_++];
            if (c == '\\') {
                if (i_ >= s_.size())
                    bad("truncated escape");
                char e = s_[i_++];
                if (e == 'u') {
                    i_ += 4;  // names are ASCII; keep a placeholder
                    out += '?';
                } else {
                    out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                }
            } else {
                out += c;
            }
        }
        expect('"');
        return out;
    }
    double number()
    {
        ws();
        const char* begin = s_.c_str() + i_;
        char* end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin)
            bad("expected a number");
        i_ += static_cast<size_t>(end - begin);
        return v;
    }
    void skip_value()
    {
        ws();
        if (i_ >= s_.size())
            bad("truncated value");
        char c = s_[i_];
        if (c == '"') {
            string();
        } else if (c == '{' || c == '[') {
            char close = c == '{' ? '}' : ']';
            i_++;
            if (accept(close))
                return;
            do {
                if (c == '{') {
                    string();
                    expect(':');
                }
                skip_value();
            } while (accept(','));
            expect(close);
        } else if (c == 't' || c == 'f' || c == 'n') {
            while (i_ < s_.size() &&
                   std::isalpha(static_cast<unsigned char>(s_[i_])))
                i_++;
        } else {
            number();
        }
    }
    [[noreturn]] void bad(const std::string& what)
    {
        throw std::runtime_error("trace JSON: " + what + " at offset " +
                                 std::to_string(i_));
    }

  private:
    const std::string& s_;
    size_t i_ = 0;
};

struct Event
{
    std::string name;
    int64_t t0 = 0, dur = 0;  ///< ns
};

/** Self time of every span of one thread: duration minus the spans it
 *  directly encloses. Events sorted parents-first. */
void
fold_thread(std::vector<Event>& evs, std::map<std::string, SpanStat>& out)
{
    std::sort(evs.begin(), evs.end(), [](const Event& a, const Event& b) {
        return a.t0 != b.t0 ? a.t0 < b.t0 : a.dur > b.dur;
    });
    std::vector<int64_t> child(evs.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < evs.size(); i++) {
        const Event& e = evs[i];
        while (!stack.empty()) {
            const Event& top = evs[stack.back()];
            if (e.t0 >= top.t0 && e.t0 + e.dur <= top.t0 + top.dur)
                break;
            stack.pop_back();
        }
        if (!stack.empty())
            child[stack.back()] += e.dur;
        stack.push_back(i);
    }
    for (size_t i = 0; i < evs.size(); i++) {
        SpanStat& s = out[evs[i].name];
        s.count++;
        s.self_ms += static_cast<double>(evs[i].dur - child[i]) / 1e6;
    }
}

}  // namespace

std::map<std::string, SpanStat>
fold_trace(const std::string& json)
{
    std::map<int64_t, std::vector<Event>> by_tid;
    JsonScanner sc(json);
    sc.expect('{');
    bool found = false;
    if (!sc.accept('}')) {
        do {
            std::string key = sc.string();
            sc.expect(':');
            if (key != "traceEvents") {
                sc.skip_value();
                continue;
            }
            found = true;
            sc.expect('[');
            if (sc.accept(']'))
                continue;
            do {
                Event e;
                int64_t tid = 0;
                sc.expect('{');
                do {
                    std::string k = sc.string();
                    sc.expect(':');
                    if (k == "name")
                        e.name = sc.string();
                    else if (k == "tid")
                        tid = static_cast<int64_t>(sc.number());
                    else if (k == "ts")
                        e.t0 = std::llround(sc.number() * 1000.0);
                    else if (k == "dur")
                        e.dur = std::llround(sc.number() * 1000.0);
                    else
                        sc.skip_value();
                } while (sc.accept(','));
                sc.expect('}');
                by_tid[tid].push_back(std::move(e));
            } while (sc.accept(','));
            sc.expect(']');
        } while (sc.accept(','));
        sc.expect('}');
    }
    if (!found)
        sc.bad("no traceEvents array");
    std::map<std::string, SpanStat> out;
    for (auto& [tid, evs] : by_tid)
        fold_thread(evs, out);
    return out;
}

void
start_tracing()
{
    obs::trace_clear();
    // Per-thread ring: room for every span of a traced phase, so
    // nothing is dropped (checked by stop_tracing's caller).
    obs::trace_start("", size_t{1} << 21);
}

std::map<std::string, SpanStat>
stop_tracing(uint64_t* dropped)
{
    obs::trace_stop();
    *dropped = obs::trace_dropped();
    std::map<std::string, SpanStat> fold = fold_trace(obs::trace_json());
    obs::trace_clear();
    return fold;
}

namespace {

/** The span names report_spans covers. */
const std::vector<std::string>&
tracked_spans()
{
    // Engine spans (DESIGN.md §10) plus the suite's own: sched.* around
    // each library schedule call and kernel.run around timed kernels.
    static const std::vector<std::string> names = {
        "sched.l1",         "sched.l2",          "sched.gemm",
        "sched.halide",     "prim.apply",        "analysis.solve",
        "tune.autotune",    "tune.round",        "tune.restart",
        "tune.enumerate",   "tune.lint_gate",    "tune.jit_measure",
        "tune.validate",    "tune.cache_probe",  "tune.cache_replay",
        "tune.cache_store", "cost.simulate",     "lint.proc",
        "lint.pass",        "cjit.build",        "cjit.codegen",
        "cjit.compile",     "cjit.dlopen",       "cjit.cache_probe",
        "cjit.cache_store", "sandbox.run",       "verify.tri_oracle",
        "kernel.run",       "cache.tune_probe",  "cache.tune_store",
        "cache.jit_probe",  "cache.jit_store",   "serve.request",
    };
    return names;
}

}  // namespace

void
report_spans(Result& r, const std::map<std::string, SpanStat>& fold,
             double wall_ms)
{
    const auto& names = tracked_spans();
    double untracked = 0;
    uint64_t total = 0;
    for (const auto& [name, s] : fold) {
        total += s.count;
        if (std::find(names.begin(), names.end(), name) == names.end())
            untracked += s.self_ms;
    }
    for (const std::string& name : names) {
        auto it = fold.find(name);
        SpanStat s = it == fold.end() ? SpanStat{} : it->second;
        r.set("span." + name + ".count", static_cast<double>(s.count),
              "count");
        r.set("span." + name + ".self_frac", ratio(s.self_ms, wall_ms),
              "ratio");
    }
    r.set("span.untracked.self_frac", ratio(untracked, wall_ms), "ratio");
    r.set("trace.spans", static_cast<double>(total), "count");
}

// ---------------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------------

EngineCounters
EngineCounters::now()
{
    EngineCounters c;
    InternerStats is = expr_interner_stats();
    c.interner_live = is.live_nodes;
    c.interner_hits = is.hits;
    c.interner_misses = is.misses;
    CursorAccelStats cs = cursor_accel_stats();
    c.fwd_hits = cs.fwd_hits;
    c.fwd_misses = cs.fwd_misses;
    c.index_hits = cs.index_hits;
    c.index_misses = cs.index_misses;
    AnalysisMemoStats ms = analysis_memo_stats();
    c.memo_hits = ms.affine_hits + ms.linear_hits + ms.effects_hits;
    c.memo_misses = ms.affine_misses + ms.linear_misses + ms.effects_misses;
    c.linear_misses = ms.linear_misses;
    CostSimCacheStats ss = cost_sim_cache_stats();
    c.cost_hits = ss.hits;
    c.cost_misses = ss.misses;
    return c;
}

void
report_engine(Result& r, const EngineCounters& b, const EngineCounters& a)
{
    auto hit_ratio = [](uint64_t h0, uint64_t h1, uint64_t m0, uint64_t m1) {
        double h = static_cast<double>(h1 - h0);
        return ratio(h, h + static_cast<double>(m1 - m0));
    };
    r.set("ir.interner_live_nodes", static_cast<double>(a.interner_live),
          "count");
    r.set("ir.interner_hit_ratio",
          hit_ratio(b.interner_hits, a.interner_hits, b.interner_misses,
                    a.interner_misses),
          "ratio");
    r.set("cursor.fwd_hit_ratio",
          hit_ratio(b.fwd_hits, a.fwd_hits, b.fwd_misses, a.fwd_misses),
          "ratio");
    r.set("cursor.index_hit_ratio",
          hit_ratio(b.index_hits, a.index_hits, b.index_misses,
                    a.index_misses),
          "ratio");
    r.set("analysis.memo_hit_ratio",
          hit_ratio(b.memo_hits, a.memo_hits, b.memo_misses, a.memo_misses),
          "ratio");
    r.set("analysis.linear_misses",
          static_cast<double>(a.linear_misses - b.linear_misses), "count");
    r.set("cost_sim.cache_hit_ratio",
          hit_ratio(b.cost_hits, a.cost_hits, b.cost_misses, a.cost_misses),
          "ratio");
}

}  // namespace suite
}  // namespace exo2
