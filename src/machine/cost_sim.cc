#include "src/machine/cost_sim.h"

#include <cstring>
#include <memory>
#include <unordered_map>

#include "src/cursor/accel.h"
#include "src/interp/walk.h"
#include "src/ir/errors.h"
#include "src/ir/interner.h"
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
        tags_.assign(static_cast<size_t>(sets_) * assoc_, UINT64_MAX);
        ages_.assign(tags_.size(), 0);
    }

    /** Access one line address; returns true on hit. */
    bool access(uint64_t line)
    {
        uint64_t set = line % static_cast<uint64_t>(sets_);
        size_t base = static_cast<size_t>(set) * assoc_;
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
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> ages_;
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

    explicit CostPolicy(const CostConfig& cfg)
        : cfg_(cfg), l1_(cfg.l1_kb, cfg.l1_assoc, cfg.line_bytes),
          l2_(cfg.l2_kb, cfg.l2_assoc, cfg.line_bytes) {}

    CostResult result;

    /** A dense `t[dims]` buffer in `mem` at the next free address. */
    View place(ScalarType t, const MemoryPtr& mem, std::vector<int64_t> dims)
    {
        int elem = type_size_bytes(t);
        int64_t bytes = elem;
        for (int64_t d : dims)
            bytes *= d;
        Addr a{heap_, !mem || mem->kind() == MemoryKind::Dram, elem};
        heap_ += static_cast<uint64_t>((bytes + 63) & ~63ll);
        return View::whole(a, std::move(dims));
    }

    /** Data read: charge memory, value unknown (0). */
    double load(Frame& f, const View& v, const ExprPtr& e)
    {
        if (v.mem.dram)  // registers / scratchpad: free
            touch(byte_at(v, eval_idx(f, e->idx())), v.mem.elem_bytes);
        return 0.0;
    }

    /** One write touch, for Reduce too. */
    void store(Frame& f, const View& v, const StmtPtr& s, double)
    {
        if (v.mem.dram)
            touch(byte_at(v, eval_idx(f, s->idx())), v.mem.elem_bytes);
    }

    /** Scalars live in registers. */
    void store_scalar(Binding&, const StmtPtr&, double) {}

    /** Stable addresses for loop-local allocations: the first run of
     *  an Alloc places it, later runs reuse that address. */
    View alloc(const StmtPtr& s, std::vector<int64_t> dims)
    {
        auto it = alloc_addr_.find(s.get());
        if (it == alloc_addr_.end()) {
            Addr a = place(s->type(), s->mem(), dims).mem;
            it = alloc_addr_.emplace(s.get(), a).first;
        }
        return View::whole(it->second, std::move(dims));
    }

    static double call_extern(const std::string&, const std::vector<double>&)
    {
        return 0.0;
    }

    static double scalar_arg(ScalarType, double v) { return v; }

    void instr_call(Frame& f, const StmtPtr& s)
    {
        const Proc& callee = *s->callee();
        const InstrInfo& info = *callee.instr();
        result.instr_calls++;
        result.cycles += info.cycles;
        if (info.instr_class == "config")
            result.config_writes++;
        // Charge DRAM traffic of buffer arguments.
        for (size_t i = 0; i < s->args().size(); i++) {
            if (callee.args()[i].dims.empty())
                eval(f, s->args()[i]);
            else
                touch_view(eval_view(f, s->args()[i]));
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
    std::map<const Stmt*, Addr> alloc_addr_;

    static uint64_t byte_at(const View& v, const std::vector<int64_t>& idx)
    {
        return v.mem.base +
               static_cast<uint64_t>(v.flat(idx) * v.mem.elem_bytes);
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
        if (!v.mem.dram)
            return;
        int elem = v.mem.elem_bytes;
        // Iterate rows of the innermost contiguous run.
        if (v.dims.empty()) {
            touch(byte_at(v, {}), elem);
            return;
        }
        int64_t inner = v.dims.back();
        int64_t stride = v.strides.back();
        std::vector<int64_t> idx(v.dims.size(), 0);
        for (;;) {
            uint64_t row = byte_at(v, idx);
            if (stride == 1) {
                touch(row, static_cast<int>(inner * elem));
            } else {
                for (int64_t k = 0; k < inner; k++)
                    touch(row + static_cast<uint64_t>(k * stride * elem), elem);
            }
            // Advance the outer dims like an odometer.
            size_t d = v.dims.size() - 1;
            while (d > 0 && ++idx[d - 1] >= v.dims[d - 1])
                idx[--d] = 0;
            if (d == 0)
                return;
        }
    }
};

// -- Result memoization (see cost_sim.h) -------------------------------

CostSimCacheStats g_cache_stats;

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

}  // namespace

CostSimCacheStats
cost_sim_cache_stats()
{
    return g_cache_stats;
}

void
reset_cost_sim_cache_stats()
{
    g_cache_stats = CostSimCacheStats();
}

void
clear_cost_sim_cache()
{
    cost_cache().clear();
}

CostResult
simulate_cost(const ProcPtr& p, const std::vector<CostArg>& args,
              const CostConfig& cfg)
{
    uint64_t key = cost_key(p, args, cfg);
    auto it = cost_cache().find(key);
    if (it != cost_cache().end()) {
        g_cache_stats.hits++;
        return it->second;
    }
    g_cache_stats.misses++;
    // Spanned only on a memo miss: hits are a hash probe, far below
    // span granularity, and the tuner scores thousands of them.
    EXO2_SPAN("cost.simulate", {{"proc", p->name()}});
    using Binding = CostPolicy::Binding;
    CostPolicy sim(cfg);
    CostPolicy::Frame frame;
    size_t ai = 0;
    for (const auto& formal : p->args()) {
        if (!formal.dims.empty())
            continue;
        if (ai >= args.size())
            throw InternalError("simulate_cost: missing argument for " +
                                formal.name);
        const CostArg& a = args[ai++];
        if (formal.is_size || formal.type == ScalarType::Index)
            frame[formal.name] = Binding::of_index(
                a.is_scalar ? static_cast<int64_t>(a.scalar) : a.size);
        else
            frame[formal.name] = Binding::of_scalar(
                a.is_scalar ? a.scalar : static_cast<double>(a.size));
    }
    // Second pass: buffers sized by (now bound) size args.
    for (const auto& formal : p->args()) {
        if (formal.dims.empty())
            continue;
        frame[formal.name] = Binding::of_view(sim.place(
            formal.type, formal.mem, sim.eval_idx(frame, formal.dims)));
    }
    if (cfg.warm) {
        sim.run(p, frame);
        sim.result = CostResult();
    }
    sim.result.cycles += cfg.dispatch_cycles;
    sim.run(p, std::move(frame));
    cost_cache()[key] = sim.result;
    return sim.result;
}

CostResult
simulate_cost_named(const ProcPtr& p,
                    const std::map<std::string, int64_t>& sizes,
                    const CostConfig& cfg)
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
    return simulate_cost(p, args, cfg);
}

}  // namespace exo2
