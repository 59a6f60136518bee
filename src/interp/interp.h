#ifndef EXO2_INTERP_INTERP_H_
#define EXO2_INTERP_INTERP_H_

/**
 * @file
 * Reference interpreter for the object language.
 *
 * Executes procedures over real buffers, including windows, hardware
 * instruction calls (interpreted through their semantics bodies),
 * configuration state, and extern scalar functions. The test suite
 * uses it for randomized equivalence checking: every scheduling
 * primitive must preserve the interpreter-observable behaviour. It is
 * the value policy of the IR walker it shares with the cost simulator
 * (src/interp/walk.h, DESIGN.md §11).
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/ir/proc.h"

namespace exo2 {

/** A dense buffer of element type `type` with logical shape `dims`. */
class Buffer
{
  public:
    Buffer(ScalarType type, std::vector<int64_t> dims);

    ScalarType type() const { return type_; }
    const std::vector<int64_t>& dims() const { return dims_; }
    int64_t size() const { return static_cast<int64_t>(data_.size()); }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    double at(int64_t flat) const { return data_.at(static_cast<size_t>(flat)); }
    void set(int64_t flat, double v);

    /** Fill with deterministic pseudo-random values in [-1, 1]. */
    void fill_random(uint64_t seed);

    /** Fill with a constant. */
    void fill(double v);

  private:
    ScalarType type_;
    std::vector<int64_t> dims_;
    std::vector<double> data_;
};

/** An argument passed to `run`: a size, a scalar, or a buffer. */
struct RunArg
{
    enum class Kind { Size, Scalar, Buf } kind = Kind::Size;
    int64_t size = 0;
    double scalar = 0.0;
    Buffer* buf = nullptr;

    static RunArg make_size(int64_t v)
    {
        RunArg a;
        a.kind = Kind::Size;
        a.size = v;
        return a;
    }
    static RunArg make_scalar(double v)
    {
        RunArg a;
        a.kind = Kind::Scalar;
        a.scalar = v;
        return a;
    }
    static RunArg make_buffer(Buffer* b)
    {
        RunArg a;
        a.kind = Kind::Buf;
        a.buf = b;
        return a;
    }
};

/** Extern scalar function semantics (e.g. relu). */
using ExternFn = std::function<double(const std::vector<double>&)>;

/** Register an extern function available to all interpretations. */
void register_extern(const std::string& name, ExternFn fn);

/**
 * Execute `p` with positional `args`. Throws InternalError on
 * malformed programs (out-of-bounds access, unbound names), making the
 * interpreter double as a dynamic checker, and on buffers of more than
 * `kMaxRank` (8) dimensions.
 */
void interp_run(const ProcPtr& p, const std::vector<RunArg>& args);

}  // namespace exo2

#endif  // EXO2_INTERP_INTERP_H_
