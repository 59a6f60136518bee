#include "src/machine/cost_sim.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/interp/walk.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace exo2 {

namespace {

/** One level of set-associative LRU cache. */
class CacheLevel
{
  public:
    CacheLevel(int size_kb, int assoc, int line_bytes) : assoc_(assoc)
    {
        int lines = size_kb * 1024 / line_bytes;
        sets_ = lines / assoc;
        if (sets_ < 1)
            sets_ = 1;
        size_t ways = static_cast<size_t>(sets_) * assoc_;
        tags_.reset(new uint64_t[ways]);
        ages_.reset(new uint64_t[ways]);
        used_.assign(static_cast<size_t>(sets_), false);
    }

    /** Access one line address; returns true on hit. */
    bool access(uint64_t line)
    {
        uint64_t set = line % static_cast<uint64_t>(sets_);
        size_t base = static_cast<size_t>(set) * assoc_;
        // A set is emptied on first use: a small simulation touches
        // few of L2's sets, and clearing all of them up front cost
        // about as much as simulating a small kernel.
        if (!used_[set]) {
            std::fill_n(&tags_[base], assoc_, UINT64_MAX);
            std::fill_n(&ages_[base], assoc_, 0);
            used_[set] = true;
        }
        tick_++;
        size_t victim = base;  // least recently used way, first on ties
        for (int w = 0; w < assoc_; w++) {
            if (tags_[base + w] == line) {
                ages_[base + w] = tick_;
                return true;
            }
            if (ages_[base + w] < ages_[victim])
                victim = base + w;
        }
        tags_[victim] = line;
        ages_[victim] = tick_;
        return false;
    }

  private:
    int assoc_;
    int sets_;
    std::unique_ptr<uint64_t[]> tags_;
    std::unique_ptr<uint64_t[]> ages_;
    std::vector<bool> used_;
    uint64_t tick_ = 0;
};

/** Where a simulated buffer lives. */
struct Addr
{
    uint64_t base = 0;  ///< byte address of element 0
    bool dram = false;  ///< only DRAM-kind memories hit the caches
    int elem_bytes = 4;
};

/** Control flow for real, data not at all: prices every access. */
class CostPolicy : public Walker<CostPolicy, Addr>
{
  public:
    static constexpr const char* kName = "cost_sim";
    static constexpr bool kShortCircuit = false;
    static constexpr bool kRoundF32 = false;
    static constexpr bool kTotalFloatDiv = true;
    static constexpr bool kCheckWindows = false;
    static constexpr bool kScopeBlocks = false;
    static constexpr bool kCheckAsserts = false;
    static constexpr bool kPriceInstrs = true;

    CostPolicy(const CostConfig& cfg, const Proc& p)
        : Walker(p), cfg_(cfg), l1_(cfg.l1_kb, cfg.l1_assoc, cfg.line_bytes),
          l2_(cfg.l2_kb, cfg.l2_assoc, cfg.line_bytes),
          alloc_addr_(program().num_allocs())
    {
    }

    CostResult result;

    /** A dense `t[dims]` buffer in `mem` at the next free address. */
    View place(ScalarType t, const MemoryPtr& mem, const int64_t* dims,
               size_t rank)
    {
        int elem = type_size_bytes(t);
        int64_t bytes = elem;
        for (size_t d = 0; d < rank; d++)
            bytes *= dims[d];
        Addr a{heap_, !mem || mem->kind() == MemoryKind::Dram, elem};
        heap_ += static_cast<uint64_t>((bytes + 63) & ~63ll);
        return View::whole(a, dims, rank);
    }

    /** Data read: charge memory, value unknown (0). */
    double load(Frame f, const View& v, const LExpr& e)
    {
        if (v.mem.dram)  // registers / scratchpad: free
            touch(byte_at(v, offset(f, v, e.kids)), v.mem.elem_bytes);
        return 0.0;
    }

    /** One write touch, for Reduce too. */
    void store(Frame f, const View& v, const LStmt& s, double)
    {
        if (v.mem.dram)
            touch(byte_at(v, offset(f, v, s.kids)), v.mem.elem_bytes);
    }

    /** Scalars live in registers. */
    void store_scalar(Binding&, const LStmt&, double) {}

    /** Stable addresses for loop-local allocations: the first run of
     *  an Alloc node places it, later runs reuse that address. */
    View alloc(const LStmt& s, const int64_t* dims, size_t rank)
    {
        std::optional<Addr>& a = alloc_addr_[s.alloc];
        if (!a)
            a = place(s.src->type(), s.src->mem(), dims, rank).mem;
        return View::whole(*a, dims, rank);
    }

    static double call_extern(const std::string&, const std::vector<double>&)
    {
        return 0.0;
    }

    static double scalar_arg(ScalarType, double v) { return v; }

    void instr_call(Frame f, const LStmt& s)
    {
        const Proc& callee = *s.src->callee();
        const InstrInfo& info = *callee.instr();
        result.instr_calls++;
        result.cycles += info.cycles;
        if (info.instr_class == "config")
            result.config_writes++;
        // Charge DRAM traffic of buffer arguments. A register or
        // scratchpad window prices nothing, so it is not evaluated.
        const std::vector<ProcArg>& formals = callee.args();
        if (s.kids.count > formals.size())
            fail("call arity mismatch");
        for (uint32_t k = 0; k < s.kids.count; k++) {
            const LExpr& actual = expr(s.kids.first + k);
            if (formals[k].dims.empty())
                eval(f, actual);
            else if (in_dram(f, actual))
                touch_view(eval_view(f, actual));
        }
    }

    void on_assign() { result.cycles += cfg_.scalar_op * cfg_.host_penalty; }
    void on_iter() { result.cycles += cfg_.loop_overhead; }
    void on_branch() { result.cycles += 0.5; }

    void on_config_write()
    {
        result.config_writes++;
        result.cycles += cfg_.scalar_op;
    }

  private:
    CostConfig cfg_;
    CacheLevel l1_;
    CacheLevel l2_;
    uint64_t heap_ = 4096;
    std::vector<std::optional<Addr>> alloc_addr_;  ///< by LStmt::alloc

    static uint64_t byte_at(const View& v, int64_t flat)
    {
        return v.mem.base + static_cast<uint64_t>(flat * v.mem.elem_bytes);
    }

    /** False for a buffer or window argument of a non-DRAM buffer. */
    static bool in_dram(Frame f, const LExpr& actual)
    {
        bool names_buffer = actual.kind == ExprKind::Window ||
                            (actual.kind == ExprKind::Read &&
                             actual.kids.count == 0);
        if (!names_buffer)
            return true;
        const Binding& b = f[actual.slot];
        return b.kind != Binding::Kind::Buf || b.view.mem.dram;
    }

    void touch(uint64_t byte_addr, int bytes)
    {
        result.dram_accesses++;
        result.cycles += cfg_.l1_hit_cycles;
        uint64_t first =
            byte_addr / static_cast<uint64_t>(cfg_.line_bytes);
        uint64_t last = (byte_addr + static_cast<uint64_t>(bytes) - 1) /
                        static_cast<uint64_t>(cfg_.line_bytes);
        for (uint64_t line = first; line <= last; line++) {
            if (!l1_.access(line)) {
                result.l1_misses++;
                result.cycles += cfg_.l1_miss_cycles;
                if (!l2_.access(line)) {
                    result.l2_misses++;
                    result.cycles += cfg_.l2_miss_cycles;
                }
            }
        }
    }

    /** Charge the whole footprint of a DRAM window (DMA-style). */
    void touch_view(const View& v)
    {
        int elem = v.mem.elem_bytes;
        // Iterate rows of the innermost contiguous run.
        if (v.rank == 0) {
            touch(byte_at(v, v.offset), elem);
            return;
        }
        int64_t inner = v.dims[v.rank - 1];
        int64_t stride = v.strides[v.rank - 1];
        int64_t idx[kMaxRank] = {};
        for (;;) {
            int64_t flat = v.offset;
            for (size_t d = 0; d < v.rank; d++)
                flat += idx[d] * v.strides[d];
            uint64_t row = byte_at(v, flat);
            if (stride == 1) {
                touch(row, static_cast<int>(inner * elem));
            } else {
                for (int64_t k = 0; k < inner; k++)
                    touch(row + static_cast<uint64_t>(k * stride * elem), elem);
            }
            // Advance the outer dims like an odometer.
            size_t d = v.rank - 1;
            while (d > 0 && ++idx[d - 1] >= v.dims[d - 1])
                idx[--d] = 0;
            if (d == 0)
                return;
        }
    }
};

// -- Result memoization (see cost_sim.h) -------------------------------

std::unordered_map<uint64_t, CostResult>&
cost_cache()
{
    static std::unordered_map<uint64_t, CostResult> c;
    return c;
}

accel_internal::ClearerRegistration g_cost_cache_clearer(
    +[] { cost_cache().clear(); });

uint64_t
cost_key(const ProcPtr& p, const std::vector<CostArg>& args,
         const CostConfig& cfg)
{
    uint64_t h = proc_digest(p);
    for (const CostArg& a : args) {
        h = hash_combine(h, a.is_scalar ? 1u : 0u);
        h = hash_combine(h, static_cast<uint64_t>(a.size));
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(a.scalar), "");
        memcpy(&bits, &a.scalar, sizeof(bits));
        h = hash_combine(h, bits);
    }
    for (int v : {cfg.line_bytes, cfg.l1_kb, cfg.l1_assoc, cfg.l2_kb,
                  cfg.l2_assoc})
        h = hash_combine(h, static_cast<uint64_t>(v));
    for (double d : {cfg.l1_hit_cycles, cfg.l1_miss_cycles,
                     cfg.l2_miss_cycles, cfg.loop_overhead, cfg.scalar_op,
                     cfg.host_penalty, cfg.dispatch_cycles}) {
        uint64_t bits;
        memcpy(&bits, &d, sizeof(bits));
        h = hash_combine(h, bits);
    }
    return hash_combine(h, cfg.warm ? 1u : 0u);
}

/** Run `p` once (twice when warm) under `cfg`: one memo miss. */
CostResult
run_simulation(const ProcPtr& p, const std::vector<CostArg>& args,
               const CostConfig& cfg)
{
    // Spanned only on a memo miss: hits are a hash probe, far below
    // span granularity, and the tuner scores thousands of them.
    EXO2_SPAN("cost.simulate", {{"proc", p->name()}});
    using Binding = CostPolicy::Binding;
    CostPolicy sim(cfg, *p);
    std::vector<Binding> frame = sim.entry_frame();
    const std::vector<ProcArg>& formals = p->args();
    size_t ai = 0;
    for (size_t i = 0; i < formals.size(); i++) {
        const ProcArg& formal = formals[i];
        if (!formal.dims.empty())
            continue;
        if (ai >= args.size())
            throw InternalError("simulate_cost: missing argument for " +
                                formal.name);
        const CostArg& a = args[ai++];
        if (formal.is_size || formal.type == ScalarType::Index)
            sim.formal(frame, i) = Binding::of_index(
                a.is_scalar ? static_cast<int64_t>(a.scalar) : a.size);
        else
            sim.formal(frame, i) = Binding::of_scalar(
                a.is_scalar ? a.scalar : static_cast<double>(a.size));
    }
    // Second pass: buffers sized by (now bound) size args.
    for (size_t i = 0; i < formals.size(); i++) {
        const ProcArg& formal = formals[i];
        if (formal.dims.empty())
            continue;
        std::vector<int64_t> dims = sim.formal_dims(frame, i);
        sim.formal(frame, i) = Binding::of_view(
            sim.place(formal.type, formal.mem, dims.data(), dims.size()));
    }
    if (cfg.warm) {
        sim.run(frame);
        sim.result = CostResult();
    }
    sim.result.cycles += cfg.dispatch_cycles;
    sim.run(frame);
    return sim.result;
}

// -- The simulation pool (see cost_sim.h, DESIGN.md §6) ----------------

obs::Gauge&
pool_workers_gauge()
{
    static obs::Gauge& g = obs::gauge("costsim.pool_workers");
    return g;
}

/**
 * One worker pinned to each CPU of the process's affinity mask, so the
 * workers stay on distinct CPUs whatever the scheduler's wake-up
 * placement does (DESIGN.md §6). A batch wakes them all; those that
 * join claim task indices in order from a shared counter while the
 * caller blocks, so the started tasks are always a prefix, and the
 * batch ends when one of them finds nothing left and every joined
 * worker is done (a worker that wakes later sits it out).
 */
class SimPool
{
  public:
    /** Never destroyed: idle workers may still be parked at exit. */
    static SimPool& get()
    {
        static SimPool* pool = new SimPool();
        return *pool;
    }

    SimPool(const SimPool&) = delete;
    SimPool& operator=(const SimPool&) = delete;

    /** Call `task(i)` for i in [0, n) on the workers, polling `stop`
     *  before each claim; returns how many were started. Batches from
     *  different threads run one at a time. */
    size_t run(size_t n, const std::function<void(size_t)>& task,
               const std::function<bool()>& stop)
    {
        std::lock_guard<std::mutex> one_batch(batch_mu_);
        std::unique_lock<std::mutex> lk(mu_);
        if (workers_.empty())
            start();
        pool_workers_gauge().set(static_cast<int64_t>(workers_.size()));
        task_ = &task;
        stop_ = &stop;
        n_ = n;
        next_.store(0, std::memory_order_relaxed);
        open_ = true;
        gen_++;
        wake_.notify_all();
        done_.wait(lk, [&] { return !open_ && joined_ == 0; });
        return std::min(next_.load(std::memory_order_relaxed), n);
    }

  private:
    SimPool()
    {
        // A forked child has only the forking thread, so workers the
        // parent started would never answer the child's first batch.
        // Join them before every fork instead; the next batch that
        // needs them, in either process, starts them again.
        pthread_atfork([] { get().join_for_fork(); },
                       [] { get().batch_mu_.unlock(); },
                       [] { get().batch_mu_.unlock(); });
    }

    /** Requires mu_. */
    void start()
    {
        std::vector<int> cpus;
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
            for (int c = 0; c < CPU_SETSIZE; c++)
                if (CPU_ISSET(c, &mask))
                    cpus.push_back(c);
        }
        if (cpus.empty())
            cpus.push_back(-1);  // mask unreadable: one unpinned worker
        for (int cpu : cpus)
            workers_.emplace_back([this, cpu, gen = gen_] { work(cpu, gen); });
    }

    void work(int cpu, uint64_t seen)
    {
        if (cpu >= 0) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        }
        std::unique_lock<std::mutex> lk(mu_);
        for (;;) {
            wake_.wait(lk, [&] { return quit_ || gen_ != seen; });
            if (quit_)
                return;
            seen = gen_;
            if (!open_)
                continue;  // woke after the batch ended
            joined_++;
            lk.unlock();
            while (!(*stop_ && (*stop_)())) {
                size_t i = next_.fetch_add(1, std::memory_order_relaxed);
                if (i >= n_)
                    break;
                (*task_)(i);
            }
            lk.lock();
            open_ = false;  // nothing left to claim, or stopped
            if (--joined_ == 0)
                done_.notify_one();
        }
    }

    /** The atfork prepare handler: waits out a running batch, then
     *  joins the workers. The parent and child handlers unlock. */
    void join_for_fork()
    {
        batch_mu_.lock();
        {
            std::lock_guard<std::mutex> lk(mu_);
            quit_ = true;
        }
        wake_.notify_all();
        for (std::thread& t : workers_)
            t.join();
        workers_.clear();
        std::lock_guard<std::mutex> lk(mu_);
        quit_ = false;
    }

    std::mutex batch_mu_;  ///< held for a whole batch, and across fork
    std::mutex mu_;        ///< guards the batch state below
    std::condition_variable wake_;
    std::condition_variable done_;
    bool quit_ = false;
    uint64_t gen_ = 0;    ///< bumped per batch
    bool open_ = false;   ///< the batch still takes workers
    size_t joined_ = 0;   ///< workers inside the current batch
    const std::function<void(size_t)>* task_ = nullptr;
    const std::function<bool()>* stop_ = nullptr;
    size_t n_ = 0;
    std::atomic<size_t> next_{0};  ///< next task index to claim
    std::vector<std::thread> workers_;  ///< guarded by batch_mu_
};

}  // namespace

CostSimCacheStats
cost_sim_cache_stats()
{
    return {obs::counter("costsim.cache_hits").value(),
            obs::counter("costsim.cache_misses").value()};
}

// Registers the counters and the pool gauge at startup: op=metrics
// lists them at 0.
[[maybe_unused]] static const CostSimCacheStats g_registered =
    (pool_workers_gauge(), cost_sim_cache_stats());

void
clear_cost_sim_cache()
{
    cost_cache().clear();
}

std::vector<CostResult>
simulate_cost_batch(const std::vector<CostJob>& jobs, const CostConfig& cfg,
                    const std::function<bool()>& stop)
{
    // Probe in input order. A job whose key an earlier miss of this
    // batch already has is a repeat: a hit on that miss's result.
    struct Probe
    {
        uint64_t key;
        bool hit;
        size_t miss;  ///< index into `misses` of its simulation, if any
    };
    std::unordered_map<uint64_t, CostResult>& memo = cost_cache();
    std::vector<CostResult> out(jobs.size());
    std::vector<Probe> probes(jobs.size());
    std::vector<size_t> misses;  ///< job indices, in input order
    std::unordered_map<uint64_t, size_t> first_miss;  ///< key -> misses[]
    for (size_t i = 0; i < jobs.size(); i++) {
        uint64_t key = cost_key(jobs[i].proc, jobs[i].args, cfg);
        auto it = memo.find(key);
        if (it != memo.end()) {
            out[i] = it->second;
            probes[i] = {key, true, SIZE_MAX};
            continue;
        }
        auto [fm, fresh] = first_miss.emplace(key, misses.size());
        probes[i] = {key, !fresh, fm->second};
        if (fresh)
            misses.push_back(i);
    }

    std::vector<std::exception_ptr> errors(misses.size());
    auto simulate = [&](size_t m) {
        const CostJob& job = jobs[misses[m]];
        try {
            out[misses[m]] = run_simulation(job.proc, job.args, cfg);
        } catch (...) {
            errors[m] = std::current_exception();
        }
    };
    size_t started = 0;
    if (misses.size() == 1) {
        if (!(stop && stop()))
            simulate(started++);
    } else if (misses.size() > 1) {
        started = SimPool::get().run(misses.size(), simulate, stop);
    }

    // Merge on the calling thread, in input order, up to the first job
    // left unsimulated.
    size_t cut = started < misses.size() ? misses[started] : jobs.size();
    out.resize(cut);
    for (size_t i = 0; i < cut; i++) {
        const Probe& pr = probes[i];
        if (pr.hit)
            EXO2_COUNT("costsim.cache_hits");
        else
            EXO2_COUNT("costsim.cache_misses");
        if (pr.miss == SIZE_MAX || errors[pr.miss])
            continue;
        if (pr.hit)
            out[i] = out[misses[pr.miss]];  // a repeat
        else
            memo.emplace(pr.key, out[i]);
    }
    for (size_t m = 0; m < started; m++)
        if (errors[m])
            std::rethrow_exception(errors[m]);
    return out;
}

CostResult
simulate_cost(const ProcPtr& p, const std::vector<CostArg>& args,
              const CostConfig& cfg)
{
    return simulate_cost_batch({CostJob{p, args}}, cfg)[0];
}

std::vector<CostArg>
cost_args_named(const ProcPtr& p, const std::map<std::string, int64_t>& sizes)
{
    std::vector<CostArg> args;
    for (const auto& formal : p->args()) {
        if (!formal.dims.empty())
            continue;
        if (formal.is_size || formal.type == ScalarType::Index) {
            auto it = sizes.find(formal.name);
            if (it == sizes.end()) {
                throw InternalError("simulate_cost_named: size '" +
                                    formal.name + "' not provided");
            }
            args.push_back(CostArg::make_size(it->second));
        } else {
            args.push_back(CostArg::make_scalar(1.0));
        }
    }
    return args;
}

CostResult
simulate_cost_named(const ProcPtr& p,
                    const std::map<std::string, int64_t>& sizes,
                    const CostConfig& cfg)
{
    return simulate_cost(p, cost_args_named(p, sizes), cfg);
}

}  // namespace exo2
