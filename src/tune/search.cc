#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <unordered_set>

#include "src/cache/cache.h"
#include "src/ir/errors.h"
#include "src/lint/lint.h"
#include "src/obs/trace.h"
#include "src/tune/actions.h"
#include "src/tune/tune.h"
#include "src/util/env.h"
#include "src/util/rng.h"
#include "src/verify/cjit.h"
#include "src/verify/oracle.h"

namespace exo2 {
namespace tune {

namespace {

struct State
{
    ProcPtr proc;
    std::vector<FuzzStep> script;
    double cost = 0.0;
    uint64_t digest = 0;
};

bool
state_less(const State& a, const State& b)
{
    if (a.cost != b.cost)
        return a.cost < b.cost;
    // Deterministic tie-breaks: shorter script, then digest.
    if (a.script.size() != b.script.size())
        return a.script.size() < b.script.size();
    return a.digest < b.digest;
}

/** Keep the best-`cap` scored states (winner candidates). */
class TopPool
{
  public:
    explicit TopPool(size_t cap) : cap_(cap) {}

    void offer(const State& s)
    {
        auto it = std::lower_bound(states_.begin(), states_.end(), s,
                                   state_less);
        if (it == states_.end() && states_.size() >= cap_)
            return;
        states_.insert(it, s);
        if (states_.size() > cap_)
            states_.pop_back();
    }

    const std::vector<State>& states() const { return states_; }

  private:
    size_t cap_;
    std::vector<State> states_;  ///< sorted, best first
};

}  // namespace

cache::TuneKey
tune_cache_key(const ProcPtr& p, const Machine& machine,
               const SizeEnv& tune_sizes)
{
    cache::TuneKey key;
    key.proc_digest = proc_digest(p);
    key.machine = machine.name();
    key.isa = verify::native_isa_name(verify::cjit_env_isa());
    for (const auto& [name, value] : tune_sizes) {
        if (!key.sizes.empty())
            key.sizes += ',';
        key.sizes += name + "=" + std::to_string(value);
    }
    return key;
}

TuneResult
autotune(const ProcPtr& p, const Machine& machine, const TuneOpts& opts_in)
{
    if (!p)
        throw SchedulingError("autotune: null proc");

    TuneOpts opts = opts_in;
    bool verbose = util::env_flag("EXO2_TUNE_VERBOSE", false);
    if (opts.beam_width < 1)
        opts.beam_width = 1;
    if (opts.measure_sizes.empty())
        opts.measure_sizes = opts.tune_sizes;
    if (opts.validate_sizes.empty())
        opts.validate_sizes = opts.tune_sizes;

    for (const auto& [label, env] :
         {std::pair<const char*, const SizeEnv&>{"tune_sizes",
                                                 opts.tune_sizes},
          {"measure_sizes", opts.measure_sizes},
          {"validate_sizes", opts.validate_sizes}}) {
        for (const auto& a : p->args()) {
            if ((a.is_size ||
                 (a.dims.empty() && a.type == ScalarType::Index)) &&
                env.find(a.name) == env.end()) {
                throw SchedulingError(
                    std::string("autotune: ") + label + " missing size "
                    "argument '" + a.name + "' of proc '" + p->name() +
                    "'");
            }
        }
        if (!verify::preds_hold(p, env)) {
            throw SchedulingError(
                std::string("autotune: ") + label + " violate the "
                "assertions of proc '" + p->name() +
                "' (pick sizes satisfying its preds)");
        }
    }

    EXO2_SPAN("tune.autotune", {{"proc", p->name()}});
    TuneResult result;
    CostSimCacheStats cache0 = cost_sim_cache_stats();

    auto t_start = std::chrono::steady_clock::now();
    auto past_deadline = [&] {
        if (opts.deadline_seconds <= 0)
            return false;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t_start)
                   .count() >= opts.deadline_seconds;
    };

    // -- Persistent tuning cache (DESIGN.md §8) -------------------------
    // A hit replays the stored script and re-validates through the
    // tri-oracle: the cache is trusted for *search effort*, never for
    // correctness. Any failure to replay or validate quarantines the
    // entry and falls through to a fresh search.
    cache::TuneCache tcache(opts.use_cache ? cache::cache_dir_from_env()
                                           : std::string());
    cache::TuneKey tkey;
    if (tcache.enabled()) {
        tkey = tune_cache_key(p, machine, opts.tune_sizes);
        auto hit = [&] {
            EXO2_SPAN("tune.cache_probe", {{"proc", p->name()}});
            return tcache.probe(tkey);
        }();
        if (hit) {
            try {
                TuneResult r;
                {
                    EXO2_SPAN("tune.cache_replay",
                              {{"proc", p->name()}});
                    std::vector<FuzzStep> script =
                        verify::script_from_string(hit->script_text);
                    ProcPtr q = replay_script(p, script);
                    r.best = q;
                    r.script = std::move(script);
                    r.cost = simulate_cost_named(q, opts.tune_sizes,
                                                 opts.cost)
                                 .cycles;
                    r.naive_cost = simulate_cost_named(
                                       p, opts.tune_sizes, opts.cost)
                                       .cycles;
                    r.from_cache = true;
                }
                if (opts.validate) {
                    EXO2_SPAN("tune.validate", {{"source", "cache"}});
                    verify::TriOracleReport rep =
                        verify::tri_oracle_check(p, r.best,
                                                 opts.validate_sizes,
                                                 opts.validate_seed);
                    if (!rep.ok)
                        throw VerifyError(
                            "cached winner failed validation: " +
                            rep.detail);
                    r.validated = true;
                }
                if (verbose) {
                    std::cerr << "autotune[" << p->name()
                              << "] cache hit: " << r.cost
                              << " cycles, " << r.script.size()
                              << " steps\n";
                }
                return r;
            } catch (const std::exception& e) {
                // The entry passed its checksum but no longer replays
                // or validates on this library — semantics drifted
                // without a version bump, or damage the checksum
                // cannot see. Quarantine it and search from scratch.
                tcache.invalidate(tkey, "replay");
                if (verbose) {
                    std::cerr << "autotune[" << p->name()
                              << "] cached entry rejected: " << e.what()
                              << "\n";
                }
            }
        }
    }

    TuneSpace space = default_space(machine, opts.precision, opts.cost);

    // Score `states` as one batch (DESIGN.md §6): the misses simulate in
    // parallel, the results come back in order, and the deadline stops
    // it within about one simulation. Returns how many states, from the
    // front, were scored.
    auto score = [&](std::vector<State>& states) -> size_t {
        if (states.empty())
            return 0;
        obs::Span span;
        bool traced = span.open("tune.score");
        uint64_t misses0 = cost_sim_cache_stats().misses;
        std::vector<CostJob> jobs;
        jobs.reserve(states.size());
        for (const State& st : states)
            jobs.push_back(
                {st.proc, cost_args_named(st.proc, opts.tune_sizes)});
        std::vector<CostResult> costs =
            simulate_cost_batch(jobs, opts.cost, past_deadline);
        for (size_t i = 0; i < costs.size(); i++)
            states[i].cost = costs[i].cycles;
        result.stats.states_scored += static_cast<int>(costs.size());
        if (traced) {
            span.set_args(
                "tune.score",
                {{"states", static_cast<int>(costs.size())},
                 {"misses", cost_sim_cache_stats().misses - misses0}});
        }
        return costs.size();
    };

    State init;
    init.proc = p;
    init.digest = proc_digest(p);
    init.cost = simulate_cost_named(p, opts.tune_sizes, opts.cost).cycles;
    result.stats.states_scored++;
    result.naive_cost = init.cost;

    size_t pool_cap = static_cast<size_t>(
        std::max({opts.beam_width, opts.jit_topk, 8}));
    TopPool pool(pool_cap);
    pool.offer(init);

    std::unordered_set<uint64_t> seen{init.digest};
    std::unordered_set<uint64_t> expanded;

    // The initial state is the one state every descent revisits (beam
    // round 1 and the first step of every restart), and enumeration is
    // the expensive part — it validates candidates by applying them —
    // so its action list is computed once and reused.
    std::vector<TuneAction> init_actions;
    bool init_enumerated = false;
    auto actions_for = [&](const State& st,
                           std::vector<TuneAction>* storage)
        -> const std::vector<TuneAction>& {
        if (st.digest == init.digest) {
            if (!init_enumerated) {
                init_actions = enumerate_actions(st.proc, machine,
                                                 opts.precision, space);
                init_enumerated = true;
                result.stats.actions_enumerated +=
                    static_cast<int>(init_actions.size());
            }
            return init_actions;
        }
        *storage = enumerate_actions(st.proc, machine, opts.precision,
                                     space);
        result.stats.actions_enumerated +=
            static_cast<int>(storage->size());
        return *storage;
    };

    /** Append `st`'s unseen children to `out`, unscored. */
    auto expand = [&](const State& st, std::vector<State>* out) {
        // A state that survived a round was already expanded then; all
        // its children are in `seen`, so re-enumerating (re-applying
        // every primitive) would be pure waste.
        if (!expanded.insert(st.digest).second)
            return;
        std::vector<TuneAction> storage;
        const std::vector<TuneAction>& actions = actions_for(st, &storage);
        for (const TuneAction& a : actions) {
            uint64_t d = proc_digest(a.result);
            if (!seen.insert(d).second) {
                result.stats.dedup_skips++;
                continue;
            }
            State ns;
            ns.proc = a.result;
            ns.script = st.script;
            ns.script.push_back(a.step);
            ns.digest = d;
            out->push_back(std::move(ns));
        }
    };

    // -- Beam search ---------------------------------------------------
    std::vector<State> beam{init};
    double best_cost = init.cost;
    int stall = 0;
    for (int round = 1; round <= opts.max_rounds; round++) {
        EXO2_SPAN("tune.round", {{"round", round}});
        if (past_deadline()) {
            result.degraded = true;
            break;
        }
        // The round's children are enumerated first and scored as one
        // batch. Enumeration reads nothing scoring writes, so offering
        // them in enumeration order repeats the serial search exactly.
        std::vector<State> children;
        for (const State& st : beam) {
            if (past_deadline()) {
                result.degraded = true;
                break;
            }
            expand(st, &children);
        }
        size_t scored = score(children);
        if (scored < children.size())
            result.degraded = true;
        std::vector<State> candidates = beam;
        for (size_t i = 0; i < scored; i++) {
            pool.offer(children[i]);
            candidates.push_back(std::move(children[i]));
        }
        std::stable_sort(candidates.begin(), candidates.end(),
                         state_less);
        if (candidates.size() >
            static_cast<size_t>(opts.beam_width))
            candidates.resize(static_cast<size_t>(opts.beam_width));
        beam = std::move(candidates);
        result.stats.rounds = round;
        if (verbose) {
            std::cerr << "autotune[" << p->name() << "] round " << round
                      << ": best " << beam[0].cost << " cycles, "
                      << result.stats.states_scored << " scored, "
                      << result.stats.dedup_skips << " deduped\n";
        }
        if (beam[0].cost < best_cost) {
            best_cost = beam[0].cost;
            stall = 0;
        } else if (++stall >= 2) {
            break;
        }
    }

    // -- Random restarts: noisy greedy descents ------------------------
    for (int r = 1; r <= opts.random_restarts; r++) {
        EXO2_SPAN("tune.restart", {{"restart", r}});
        if (past_deadline()) {
            result.degraded = true;
            break;
        }
        XorShiftRng rng(opts.seed * 0x9E3779B97F4A7C15ull +
                        static_cast<uint64_t>(r));
        State cur = init;
        for (int round = 1; round <= opts.max_rounds; round++) {
            if (past_deadline()) {
                result.degraded = true;
                break;
            }
            std::vector<TuneAction> storage;
            const std::vector<TuneAction>& actions =
                actions_for(cur, &storage);
            std::vector<State> next;
            next.reserve(actions.size());
            for (const TuneAction& a : actions) {
                State ns;
                ns.proc = a.result;
                ns.script = cur.script;
                ns.script.push_back(a.step);
                ns.digest = proc_digest(a.result);
                next.push_back(std::move(ns));
            }
            size_t scored = score(next);  // cache hits if seen before
            State best_next;
            double best_noisy =
                std::numeric_limits<double>::infinity();
            for (size_t i = 0; i < scored; i++) {
                State& ns = next[i];
                if (seen.insert(ns.digest).second)
                    pool.offer(ns);
                double noisy = ns.cost * (1.0 + 0.25 * rng.unit());
                if (noisy < best_noisy) {
                    best_noisy = noisy;
                    best_next = std::move(ns);
                }
            }
            if (scored < next.size()) {
                result.degraded = true;
                break;
            }
            if (!best_next.proc)
                break;
            cur = std::move(best_next);
        }
        if (verbose) {
            std::cerr << "autotune[" << p->name() << "] restart " << r
                      << ": reached " << cur.cost << " cycles\n";
        }
    }

    // -- Static lint gate (DESIGN.md §9) --------------------------------
    // Every pool candidate is linted before the cjit/sandbox step;
    // Error-level findings (proven out-of-bounds, parallel loops
    // carrying a dependence) prune the candidate from JIT measurement
    // and validation without paying for a compile. Sound rewrites never
    // produce them, so healthy winners are bit-for-bit unchanged; the
    // set is keyed by digest so it survives the post-measurement
    // re-rank.
    std::vector<State> ranked = pool.states();
    std::unordered_set<uint64_t> lint_rejected;
    if (opts.lint) {
        EXO2_SPAN("tune.lint_gate",
                  {{"candidates", static_cast<int>(ranked.size())}});
        for (const State& st : ranked) {
            lint::LintReport lr = lint::lint_proc(st.proc);
            result.stats.lint_checked++;
            if (verbose) {
                std::cerr << "autotune[" << p->name() << "] lint "
                          << (lr.has_errors() ? "PRUNE" : "pass ")
                          << " cost=" << st.cost << " errors="
                          << lr.count(lint::Severity::Error)
                          << " warnings="
                          << lr.count(lint::Severity::Warn) << " infos="
                          << lr.count(lint::Severity::Info) << " proven="
                          << lr.proven << "/" << lr.obligations
                          << (lr.proven_safe() ? " safe" : "") << "\n";
                if (!lr.diags.empty())
                    std::cerr << lr.to_text();
            }
            if (lr.has_errors()) {
                lint_rejected.insert(st.digest);
                result.stats.lint_pruned++;
            }
        }
    }
    auto lint_bad = [&](const State& st) {
        return lint_rejected.count(st.digest) > 0;
    };

    // -- JIT-measured refinement ---------------------------------------
    std::vector<double> measured(ranked.size(), -1.0);
    if (opts.jit_topk > 0) {
        size_t k = std::min(static_cast<size_t>(opts.jit_topk),
                            ranked.size());
        std::vector<std::pair<double, size_t>> order;
        verify::SandboxLimits limits = verify::SandboxLimits::defaults();
        for (size_t i = 0; i < k; i++) {
            if (past_deadline()) {
                // Skip the remaining measurements; the states already
                // measured keep their wall-clock order.
                result.degraded = true;
                break;
            }
            if (lint_bad(ranked[i]))
                continue;  // pruned before the compile (counted above)
            try {
                EXO2_SPAN("tune.jit_measure",
                          {{"rank", static_cast<int>(i)}});
                verify::CompiledProc cp(ranked[i].proc);
                verify::OracleInputs in = verify::make_inputs(
                    ranked[i].proc, opts.measure_sizes, 0x7777);
                // Candidates are untrusted generated code: measure in
                // the fault sandbox so a kernel that SIGSEGVs or never
                // terminates is scored infeasible — the search keeps
                // going — instead of killing the tuner.
                verify::TimedOutcome to = cp.time_per_call_sandboxed(
                    in.args, 0.05, 100000, limits);
                if (!to.ok) {
                    result.stats.jit_faults++;
                    if (verbose) {
                        std::cerr << "autotune[" << p->name()
                                  << "] jit rank " << i << " faulted: "
                                  << to.fault.to_string() << "\n";
                    }
                    continue;
                }
                double per = to.seconds_per_call;
                measured[i] = per;
                order.emplace_back(per, i);
                result.stats.jit_measured++;
                if (verbose) {
                    std::cerr << "autotune[" << p->name()
                              << "] jit rank " << i << ": "
                              << per * 1e6 << " us/call (cost "
                              << ranked[i].cost << ")\n";
                }
            } catch (const verify::FaultError& e) {
                // Build-phase fault (compiler failure/timeout, dlopen
                // failure): structured, counted, non-fatal.
                result.stats.jit_faults++;
                if (verbose) {
                    std::cerr << "autotune[" << p->name()
                              << "] jit rank " << i << " faulted: "
                              << e.fault().to_string() << "\n";
                }
            } catch (const std::exception& e) {
                // A candidate the cost model accepted but the C
                // backend rejects (VerifyError from the compiler,
                // SchedulingError from codegen checks) is skipped, not
                // fatal — same tolerance the tri-oracle applies.
                if (verbose) {
                    std::cerr << "autotune[" << p->name()
                              << "] jit rank " << i
                              << " failed to compile: " << e.what()
                              << "\n";
                }
            }
        }
        // Re-rank the measured prefix by wall clock (unmeasured states
        // keep their cost-model order after it).
        std::stable_sort(order.begin(), order.end());
        std::vector<State> rr;
        std::vector<double> rm;
        for (auto& [per, i] : order) {
            rr.push_back(ranked[i]);
            rm.push_back(per);
        }
        for (size_t i = 0; i < ranked.size(); i++) {
            if (measured[i] < 0) {
                rr.push_back(ranked[i]);
                rm.push_back(-1.0);
            }
        }
        ranked = std::move(rr);
        measured = std::move(rm);
    }

    // -- Tri-oracle validation ------------------------------------------
    // Past the deadline only the current leader is checked: a degraded
    // answer should cost one tri-oracle pass, not a walk down the
    // whole pool.
    size_t chosen = 0;
    if (!opts.validate) {
        // Without tri-oracle validation the lint gate is the only
        // filter: report the best statically-clean candidate (all-bad
        // falls back to 0, best-effort).
        for (size_t i = 0; i < ranked.size(); i++) {
            if (!lint_bad(ranked[i])) {
                chosen = i;
                break;
            }
        }
    }
    if (opts.validate) {
        bool found = false;
        size_t limit =
            result.degraded ? std::min<size_t>(1, ranked.size())
                            : ranked.size();
        for (size_t i = 0; i < limit; i++) {
            if (lint_bad(ranked[i]))
                continue;  // statically unsafe: never a winner
            EXO2_SPAN("tune.validate",
                      {{"candidate", static_cast<int>(i)}});
            verify::TriOracleReport rep = verify::tri_oracle_check(
                p, ranked[i].proc, opts.validate_sizes,
                opts.validate_seed);
            if (rep.ok) {
                chosen = i;
                found = true;
                break;
            }
            result.stats.validate_rejects++;
            if (rep.is_fault())
                result.stats.validate_faults++;
            if (verbose) {
                std::cerr << "autotune[" << p->name()
                          << "] candidate " << i
                          << " failed validation: " << rep.detail
                          << "\n";
            }
        }
        result.validated = found;
        if (!found)
            chosen = 0;  // report best-effort, flagged unvalidated
    }

    const State& win = ranked[chosen];
    result.best = win.proc;
    result.script = win.script;
    result.cost = win.cost;
    result.measured_seconds = measured[chosen];

    // -- Publish the winner (DESIGN.md §8) ------------------------------
    // Only full-search, tri-oracle-validated winners are stored: a
    // degraded (deadline-cut) result would poison every later request
    // for the same key with a weaker schedule.
    if (tcache.enabled() && result.validated && !result.degraded) {
        EXO2_SPAN("tune.cache_store", {{"proc", p->name()}});
        cache::TuneEntry entry;
        entry.script_text = verify::script_to_string(result.script);
        entry.cost = result.cost;
        entry.validated = true;
        tcache.store(tkey, entry);
    }

    CostSimCacheStats cache1 = cost_sim_cache_stats();
    result.stats.cost_cache_hits = cache1.hits - cache0.hits;
    result.stats.cost_cache_misses = cache1.misses - cache0.misses;
    return result;
}

}  // namespace tune
}  // namespace exo2
