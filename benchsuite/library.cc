#include <stdexcept>

#include "benchsuite/suite.h"
#include "src/frontend/parser.h"
#include "src/ir/printer.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/obs/trace.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"

namespace exo2 {
namespace suite {

const std::vector<LibKernel>&
library()
{
    static const std::vector<LibKernel> lib = [] {
        std::vector<LibKernel> out;
        auto add = [&](const std::string& name, const std::string& family,
                       ScalarType prec, const std::string& loop,
                       const ProcPtr& p) {
            out.push_back({name, family, prec, loop, print_proc(p)});
        };
        for (const auto& k : kernels::blas_level1())
            add(k.name, "l1", k.prec, k.main_loop, k.proc);
        for (const auto& k : kernels::blas_level2())
            add(k.name, "l2", k.prec, k.main_loop, k.proc);
        add("sgemm", "sgemm", ScalarType::F32, "", kernels::sgemm());
        add("blur", "blur", ScalarType::F32, "", kernels::blur());
        add("unsharp", "unsharp", ScalarType::F32, "", kernels::unsharp());
        return out;
    }();
    return lib;
}

std::vector<ProcPtr>
load_library(std::vector<double>* parse_ms)
{
    double t0 = now_s();
    std::vector<ProcPtr> procs;
    for (const LibKernel& k : library())
        procs.push_back(parse_proc(k.source));
    parse_ms->push_back((now_s() - t0) * 1e3);
    return procs;
}

size_t
library_index(const std::string& name)
{
    const std::vector<LibKernel>& lib = library();
    for (size_t i = 0; i < lib.size(); i++) {
        if (lib[i].name == name)
            return i;
    }
    throw std::runtime_error("no library kernel named " + name);
}

ProcPtr
schedule_kernel(const LibKernel& k, const ProcPtr& naive)
{
    const Machine& m = machine_avx2();
    if (k.family == "l1") {
        EXO2_SPAN("sched.l1");
        return sched::optimize_level_1(naive, naive->find_loop(k.main_loop),
                                       k.prec, m, 2);
    }
    if (k.family == "l2") {
        EXO2_SPAN("sched.l2");
        return sched::optimize_level_2_general(
            naive, naive->find_loop(k.main_loop), k.prec, m, 4, 2);
    }
    if (k.family == "sgemm") {
        EXO2_SPAN("sched.gemm");
        return sched::schedule_sgemm(sched::sgemm_with_asserts(naive, m), m);
    }
    EXO2_SPAN("sched.halide");
    return k.family == "blur"
               ? sched::schedule_blur_like_halide(naive, m)
               : sched::schedule_unsharp_like_halide(naive, m);
}

namespace {

verify::SizeEnv
sizes(const LibKernel& k, const ProcPtr& p, int64_t vec, int64_t mat,
      int64_t gemm_mn, int64_t gemm_k, int64_t img_h, int64_t img_w)
{
    if (k.family == "l1")
        return {{"n", vec}};
    if (k.family == "l2") {
        verify::SizeEnv env;
        for (const char* d : {"M", "N"}) {
            if (p->find_arg(d))
                env[d] = mat;
        }
        return env;
    }
    if (k.family == "sgemm")
        return {{"M", gemm_mn}, {"N", gemm_mn}, {"K", gemm_k}};
    return {{"H", img_h}, {"W", img_w}};
}

/** Arithmetic operations of one evaluation of `e` (index arithmetic and
 *  predicates excluded). */
int64_t
expr_ops(const ExprPtr& e)
{
    if (!e)
        return 0;
    int64_t n = 0;
    bool numeric = is_numeric(e->type());
    if ((e->kind() == ExprKind::BinOp && numeric &&
         !is_predicate_op(e->op())) ||
        (e->kind() == ExprKind::USub && numeric) ||
        e->kind() == ExprKind::Extern)
        n = 1;
    if (e->kind() == ExprKind::Read)
        return 0;  // indices are address arithmetic
    for (const ExprPtr& c : e->children())
        n += expr_ops(c);
    return n;
}

bool
reads_var(const ExprPtr& e, const std::string& var)
{
    if (!e)
        return false;
    if (e->kind() == ExprKind::Read && e->idx().empty() && e->name() == var)
        return true;
    for (const ExprPtr& c : e->children()) {
        if (reads_var(c, var))
            return true;
    }
    return false;
}

/** Whether any loop bound or condition nested in `body` reads `var`
 *  (then the body's work depends on the iteration). */
bool
trips_depend_on(const std::vector<StmtPtr>& body, const std::string& var)
{
    for (const StmtPtr& s : body) {
        if (s->kind() == StmtKind::For &&
            (reads_var(s->lo(), var) || reads_var(s->hi(), var) ||
             trips_depend_on(s->body(), var)))
            return true;
        if (s->kind() == StmtKind::If &&
            (reads_var(s->cond(), var) || trips_depend_on(s->body(), var) ||
             trips_depend_on(s->orelse(), var)))
            return true;
    }
    return false;
}

double
body_ops(const std::vector<StmtPtr>& body, verify::SizeEnv& env)
{
    double n = 0;
    for (const StmtPtr& s : body) {
        switch (s->kind()) {
          case StmtKind::Assign:
          case StmtKind::Reduce:
            // A copy still moves an element: count it as one operation.
            n += static_cast<double>(std::max<int64_t>(
                1, expr_ops(s->rhs()) +
                       (s->kind() == StmtKind::Reduce ? 1 : 0)));
            break;
          case StmtKind::For: {
            int64_t lo = verify::eval_index_expr(s->lo(), env);
            int64_t hi = verify::eval_index_expr(s->hi(), env);
            if (hi <= lo)
                break;
            if (!trips_depend_on(s->body(), s->iter())) {
                env[s->iter()] = lo;
                n += static_cast<double>(hi - lo) * body_ops(s->body(), env);
            } else {
                for (int64_t i = lo; i < hi; i++) {
                    env[s->iter()] = i;
                    n += body_ops(s->body(), env);
                }
            }
            env.erase(s->iter());
            break;
          }
          case StmtKind::If:
            n += verify::eval_index_expr(s->cond(), env) != 0
                     ? body_ops(s->body(), env)
                     : body_ops(s->orelse(), env);
            break;
          default:
            break;
        }
    }
    return n;
}

}  // namespace

verify::SizeEnv
check_sizes(const LibKernel& k, const ProcPtr& p)
{
    // Ragged sizes (not multiples of the vector width) exercise tails.
    return sizes(k, p, 37, 13, 16, 5, 32, 256);
}

verify::SizeEnv
sim_sizes(const LibKernel& k, const ProcPtr& p)
{
    return sizes(k, p, 1024, 64, 48, 48, 32, 256);
}

verify::SizeEnv
bench_sizes(const LibKernel& k, const ProcPtr& p)
{
    return sizes(k, p, 16384, 256, 96, 96, 64, 512);
}

double
kernel_flops(const ProcPtr& naive, const verify::SizeEnv& env)
{
    verify::SizeEnv e = env;
    return body_ops(naive->body_stmts(), e);
}

double
check_tolerance(const LibKernel& k)
{
    bool f64 = k.prec == ScalarType::F64;
    // Triangular solves amplify rounding (tests/test_blas_l2.cc).
    if (k.name.find("trsv") != std::string::npos)
        return f64 ? 1e-6 : 2e-2;
    return f64 ? 1e-9 : 5e-4;
}

}  // namespace suite
}  // namespace exo2
