#include "src/interp/interp.h"

#include <algorithm>
#include <cmath>

#include "src/interp/walk.h"
#include "src/ir/errors.h"

namespace exo2 {

Buffer::Buffer(ScalarType type, std::vector<int64_t> dims)
    : type_(type), dims_(std::move(dims))
{
    int64_t n = 1;
    for (int64_t d : dims_) {
        if (d < 0)
            throw InternalError("negative buffer dimension");
        n *= d;
    }
    if (dims_.empty())
        n = 1;
    data_.assign(static_cast<size_t>(n), 0.0);
}

namespace {

/** Round-to-storage conversion mirroring C assignment semantics. */
double
convert(ScalarType t, double v)
{
    switch (t) {
      case ScalarType::F32:
        return static_cast<double>(static_cast<float>(v));
      case ScalarType::F64:
        return v;
      case ScalarType::I8:
        return static_cast<double>(
            static_cast<int8_t>(static_cast<int64_t>(v)));
      case ScalarType::I32:
        return static_cast<double>(
            static_cast<int32_t>(static_cast<int64_t>(v)));
      default:
        return v;
    }
}

}  // namespace

void
Buffer::set(int64_t flat, double v)
{
    data_.at(static_cast<size_t>(flat)) = convert(type_, v);
}

void
Buffer::fill_random(uint64_t seed)
{
    uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
    for (auto& v : data_) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        double u = static_cast<double>((s >> 16) & 0xFFFFFF) /
                   static_cast<double>(0xFFFFFF);
        v = convert(type_, 2.0 * u - 1.0);
    }
}

void
Buffer::fill(double v)
{
    for (auto& x : data_)
        x = convert(type_, v);
}

namespace {

std::map<std::string, ExternFn>&
extern_registry()
{
    static std::map<std::string, ExternFn> reg = [] {
        std::map<std::string, ExternFn> r;
        r["relu"] = [](const std::vector<double>& a) {
            return a.at(0) > 0 ? a.at(0) : 0.0;
        };
        r["clamp_i8"] = [](const std::vector<double>& a) {
            return std::max(-128.0, std::min(127.0, std::round(a.at(0))));
        };
        r["acc_scale"] = [](const std::vector<double>& a) {
            return a.at(0) * a.at(1);
        };
        r["select"] = [](const std::vector<double>& a) {
            // select(cond_ge, x, y): x if cond >= 0 else y
            return a.at(0) >= 0 ? a.at(1) : a.at(2);
        };
        r["sqrt"] = [](const std::vector<double>& a) {
            return std::sqrt(a.at(0));
        };
        r["abs"] = [](const std::vector<double>& a) {
            return std::fabs(a.at(0));
        };
        return r;
    }();
    return reg;
}

/** Real data: the reference semantics every schedule must preserve. */
class ValuePolicy : public Walker<ValuePolicy, Buffer*>
{
  public:
    static constexpr const char* kName = "interp";
    static constexpr bool kShortCircuit = true;
    static constexpr bool kRoundF32 = true;
    static constexpr bool kTotalFloatDiv = false;
    static constexpr bool kCheckWindows = true;
    static constexpr bool kScopeBlocks = true;
    static constexpr bool kCheckAsserts = true;
    static constexpr bool kPriceInstrs = false;

    explicit ValuePolicy(const Proc& p) : Walker(p) {}

    double load(Frame f, const View& v, const LExpr& e)
    {
        return v.mem->at(checked_offset(f, v, e.kids));
    }

    void store(Frame f, const View& v, const LStmt& s, double x)
    {
        int64_t flat = checked_offset(f, v, s.kids);
        if (s.kind == StmtKind::Reduce)
            x += v.mem->at(flat);
        v.mem->set(flat, x);
    }

    void store_scalar(Binding& b, const LStmt& s, double x)
    {
        if (b.kind != Binding::Kind::Scalar)
            fail("writing a loop index");
        if (s.kids.count != 0)
            fail("indexing a scalar");
        if (s.kind == StmtKind::Reduce)
            x += b.scalar;
        b.scalar = convert(s.src->type(), x);
    }

    View alloc(const LStmt& s, const int64_t* dims, size_t rank)
    {
        locals_.push_back(std::make_unique<Buffer>(
            s.src->type(), std::vector<int64_t>(dims, dims + rank)));
        return View::whole(locals_.back().get(), dims, rank);
    }

    size_t locals_mark() const { return locals_.size(); }
    void release_locals(size_t mark) { locals_.resize(mark); }

    double call_extern(const std::string& fn, const std::vector<double>& args)
    {
        auto& reg = extern_registry();
        auto it = reg.find(fn);
        if (it == reg.end())
            fail("unknown extern '" + fn + "'");
        return it->second(args);
    }

    /** Scalars round to the formal's type at the call boundary, as C
     *  parameter passing does. */
    static double scalar_arg(ScalarType formal, double v)
    {
        return convert(formal, v);
    }

  private:
    std::vector<std::unique_ptr<Buffer>> locals_;

    /** `offset`, with the arity and every index checked. */
    int64_t checked_offset(Frame f, const View& v, NodeRange idx)
    {
        if (idx.count != v.rank) {
            fail("access arity mismatch on view (" +
                 std::to_string(idx.count) + " vs " +
                 std::to_string(v.rank) + ")");
        }
        int64_t at = v.offset;
        for (size_t d = 0; d < v.rank; d++) {
            int64_t i = eval_int(f, idx.first + d);
            if (i < 0 || i >= v.dims[d]) {
                fail("out-of-bounds access: index " + std::to_string(i) +
                     " not in [0, " + std::to_string(v.dims[d]) + ")");
            }
            at += i * v.strides[d];
        }
        if (at < 0 || at >= v.mem->size())
            fail("absolute access out of the underlying buffer");
        return at;
    }
};

}  // namespace

void
register_extern(const std::string& name, ExternFn fn)
{
    extern_registry()[name] = std::move(fn);
}

void
interp_run(const ProcPtr& p, const std::vector<RunArg>& args)
{
    using Binding = ValuePolicy::Binding;
    const auto& formals = p->args();
    if (formals.size() != args.size())
        throw InternalError("interp_run: arity mismatch");
    ValuePolicy interp(*p);
    std::vector<Binding> frame = interp.entry_frame();
    for (size_t i = 0; i < formals.size(); i++) {
        const RunArg& a = args[i];
        Binding& b = interp.formal(frame, i);
        if (a.kind == RunArg::Kind::Size)
            b = Binding::of_index(a.size);
        else if (a.kind == RunArg::Kind::Scalar)
            b = Binding::of_scalar(
                ValuePolicy::scalar_arg(formals[i].type, a.scalar));
        else
            b = Binding::of_view(ValuePolicy::View::whole(
                a.buf, a.buf->dims().data(), a.buf->dims().size()));
    }
    interp.run(frame);
}

}  // namespace exo2
