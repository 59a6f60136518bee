#include "src/machine/cost_sim.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
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
