#include "src/verify/oracle.h"

#include <cmath>
#include <sstream>

#include "src/ir/errors.h"
#include "src/obs/trace.h"
#include "src/verify/cjit.h"

namespace exo2 {
namespace verify {

namespace {

/** Deterministic scalar stream in [-1, 1] (same generator family as
 *  Buffer::fill_random). */
struct ScalarStream
{
    uint64_t s;
    explicit ScalarStream(uint64_t seed)
        : s(seed * 6364136223846793005ull + 1442695040888963407ull) {}
    double next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        double u = static_cast<double>((s >> 16) & 0xFFFFFF) /
                   static_cast<double>(0xFFFFFF);
        return 2.0 * u - 1.0;
    }
};

bool
values_close(double a, double b, ScalarType t, double tol_scale)
{
    if (!is_float(t))
        return a == b;
    double atol = (t == ScalarType::F32 ? 1e-4 : 1e-9) * tol_scale;
    double rtol = (t == ScalarType::F32 ? 1e-3 : 1e-8) * tol_scale;
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::fabs(a - b) <=
           atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

/** Deep copy of generated inputs (each oracle runs on fresh state). */
OracleInputs
clone_inputs(const ProcPtr& p, const OracleInputs& in)
{
    OracleInputs out;
    size_t bi = 0;
    (void)p;
    for (const RunArg& a : in.args) {
        if (a.kind == RunArg::Kind::Buf) {
            auto b = std::make_unique<Buffer>(a.buf->type(),
                                              a.buf->dims());
            for (int64_t i = 0; i < a.buf->size(); i++)
                b->set(i, a.buf->at(i));
            out.args.push_back(RunArg::make_buffer(b.get()));
            out.buffers.push_back(std::move(b));
            bi++;
        } else {
            out.args.push_back(a);
        }
    }
    return out;
}

std::string
fmt_double(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

}  // namespace

SizeEnv
parse_sizes(const std::string& text)
{
    SizeEnv env;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        std::string pair = text.substr(pos, comma - pos);
        size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ConfigError("sizes '" + text +
                              "': expected name=value pairs");
        try {
            size_t used = 0;
            int64_t v = std::stoll(pair.substr(eq + 1), &used);
            if (used != pair.size() - eq - 1 || v <= 0)
                throw std::invalid_argument(pair);
            env[pair.substr(0, eq)] = v;
        } catch (const std::exception&) {
            throw ConfigError("sizes '" + text + "': bad value in '" +
                              pair + "'");
        }
        pos = comma + 1;
    }
    return env;
}

int64_t
eval_index_expr(const ExprPtr& e, const SizeEnv& env)
{
    switch (e->kind()) {
      case ExprKind::Const:
        return static_cast<int64_t>(e->const_value());
      case ExprKind::Read: {
        if (!e->idx().empty())
            throw VerifyError("eval_index_expr: buffer read in size expr");
        auto it = env.find(e->name());
        if (it == env.end())
            throw VerifyError("eval_index_expr: unbound size '" +
                              e->name() + "'");
        return it->second;
      }
      case ExprKind::USub:
        return -eval_index_expr(e->lhs(), env);
      case ExprKind::BinOp: {
        int64_t l = eval_index_expr(e->lhs(), env);
        if (e->op() == BinOpKind::And)
            return (l != 0 && eval_index_expr(e->rhs(), env) != 0) ? 1 : 0;
        if (e->op() == BinOpKind::Or)
            return (l != 0 || eval_index_expr(e->rhs(), env) != 0) ? 1 : 0;
        int64_t r = eval_index_expr(e->rhs(), env);
        switch (e->op()) {
          case BinOpKind::Add: return l + r;
          case BinOpKind::Sub: return l - r;
          case BinOpKind::Mul: return l * r;
          case BinOpKind::Div: {
            if (r == 0)
                throw VerifyError("eval_index_expr: division by zero");
            int64_t q = l / r;
            if ((l % r != 0) && ((l < 0) != (r < 0)))
                q -= 1;
            return q;
          }
          case BinOpKind::Mod: {
            if (r == 0)
                throw VerifyError("eval_index_expr: modulo by zero");
            int64_t m = l % r;
            if (m != 0 && ((l < 0) != (r < 0)))
                m += r;
            return m;
          }
          case BinOpKind::Lt: return l < r ? 1 : 0;
          case BinOpKind::Le: return l <= r ? 1 : 0;
          case BinOpKind::Gt: return l > r ? 1 : 0;
          case BinOpKind::Ge: return l >= r ? 1 : 0;
          case BinOpKind::Eq: return l == r ? 1 : 0;
          case BinOpKind::Ne: return l != r ? 1 : 0;
          default:
            throw VerifyError("eval_index_expr: unsupported operator");
        }
      }
      default:
        throw VerifyError("eval_index_expr: unsupported expression kind");
    }
}

bool
preds_hold(const ProcPtr& p, const SizeEnv& env)
{
    for (const auto& pred : p->preds()) {
        if (eval_index_expr(pred, env) == 0)
            return false;
    }
    return true;
}

OracleInputs
make_inputs(const ProcPtr& p, const SizeEnv& env, uint64_t seed)
{
    OracleInputs out;
    ScalarStream scalars(seed ^ 0x5DEECE66Dull);
    size_t arg_i = 0;
    for (const ProcArg& a : p->args()) {
        arg_i++;
        if (a.dims.empty()) {
            if (a.is_size || a.type == ScalarType::Index) {
                auto it = env.find(a.name);
                if (it == env.end()) {
                    throw VerifyError("make_inputs: no size provided for '" +
                                      a.name + "'");
                }
                out.args.push_back(RunArg::make_size(it->second));
            } else {
                out.args.push_back(RunArg::make_scalar(scalars.next()));
            }
            continue;
        }
        if (a.is_window) {
            throw VerifyError(
                "make_inputs: top-level window argument '" + a.name +
                "' is not supported by the oracle harness");
        }
        std::vector<int64_t> dims;
        for (const auto& d : a.dims) {
            int64_t v = eval_index_expr(d, env);
            if (v < 0)
                throw VerifyError("make_inputs: negative dimension for '" +
                                  a.name + "'");
            dims.push_back(v);
        }
        auto buf = std::make_unique<Buffer>(a.type, dims);
        buf->fill_random(seed * 1000003ull + arg_i * 7919ull);
        out.args.push_back(RunArg::make_buffer(buf.get()));
        out.buffers.push_back(std::move(buf));
    }
    return out;
}

TriOracleReport
tri_oracle_check(const ProcPtr& original, const ProcPtr& scheduled,
                 const SizeEnv& env, uint64_t seed, double tol_scale)
{
    EXO2_SPAN("verify.tri_oracle", {{"proc", scheduled->name()}});
    TriOracleReport rep;

    if (!preds_hold(original, env)) {
        throw VerifyError(
            "tri_oracle_check: sizes violate the original's assertions "
            "(pick sizes satisfying " +
            original->name() + "'s preds)");
    }
    if (!preds_hold(scheduled, env)) {
        rep.ok = false;
        rep.detail = "scheduled proc acquired an assertion the original "
                     "does not have (fails under the chosen sizes)";
        return rep;
    }

    OracleInputs master = make_inputs(original, env, seed);

    // Oracle 3: reference = interpreter on the unscheduled original.
    OracleInputs ref = clone_inputs(original, master);
    try {
        interp_run(original, ref.args);
    } catch (const std::exception& e) {
        throw VerifyError(std::string("reference interpretation of '") +
                          original->name() + "' failed: " + e.what());
    }

    // Oracle 1: interpreter on the scheduled proc.
    OracleInputs it = clone_inputs(original, master);
    try {
        interp_run(scheduled, it.args);
    } catch (const std::exception& e) {
        rep.ok = false;
        rep.detail = std::string("interpreter diverged on the scheduled "
                                 "proc (dynamic check): ") +
                     e.what();
        return rep;
    }

    // Oracle 2: compiled C for the scheduled proc. The candidate is
    // untrusted generated code: it executes in the fault sandbox
    // (forked child, rlimits, watchdog) so a miscompiled kernel that
    // crashes or never terminates becomes a structured fault in the
    // report instead of killing the driver.
    OracleInputs cc = clone_inputs(original, master);
    try {
        CompiledProc compiled(scheduled);
        SandboxOutcome so = compiled.run_sandboxed(cc.args);
        if (!so.ok) {
            rep.ok = false;
            rep.fault = so.fault;
            rep.detail = "C oracle faulted on the scheduled proc: " +
                         so.fault.to_string();
            return rep;
        }
    } catch (const FaultError& e) {
        // Build-phase fault: the compiler failed/hung or the object
        // would not load. Structured, recoverable.
        rep.ok = false;
        rep.fault = e.fault();
        rep.detail = "C oracle faulted on the scheduled proc: " +
                     e.fault().to_string();
        return rep;
    } catch (const std::exception& e) {
        rep.ok = false;
        rep.detail =
            std::string("C backend diverged on the scheduled proc: ") +
            e.what();
        return rep;
    }

    // Compare every buffer argument across the three runs.
    const auto& formals = original->args();
    size_t bi = 0;
    for (size_t i = 0; i < formals.size(); i++) {
        if (master.args[i].kind != RunArg::Kind::Buf)
            continue;
        const Buffer* rb = ref.buffers[bi].get();
        const Buffer* ib = it.buffers[bi].get();
        const Buffer* cb = cc.buffers[bi].get();
        bi++;
        ScalarType t = formals[i].type;
        for (int64_t k = 0; k < rb->size(); k++) {
            double rv = rb->at(k);
            double iv = ib->at(k);
            double cv = cb->at(k);
            const char* which = nullptr;
            if (!values_close(iv, rv, t, tol_scale)) {
                which = "interp(scheduled) vs reference";
            } else if (!values_close(cv, rv, t, tol_scale)) {
                which = "codegen-C(scheduled) vs reference";
            } else if (!values_close(cv, iv, t, tol_scale)) {
                which = "codegen-C(scheduled) vs interp(scheduled)";
            }
            if (which) {
                rep.ok = false;
                rep.detail = std::string(which) + " at '" +
                             formals[i].name + "'[" + std::to_string(k) +
                             "]: reference=" + fmt_double(rv) +
                             " interp=" + fmt_double(iv) +
                             " cc=" + fmt_double(cv);
                return rep;
            }
        }
    }
    return rep;
}

}  // namespace verify
}  // namespace exo2
