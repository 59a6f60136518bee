#include "src/kernels/blas.h"

#include <map>

#include "src/frontend/parser.h"
#include "src/ir/errors.h"
#include "src/kernels/image.h"

namespace exo2 {
namespace kernels {

namespace {

std::string
fmt(std::string tpl, const std::string& key, const std::string& value)
{
    for (;;) {
        auto pos = tpl.find(key);
        if (pos == std::string::npos)
            return tpl;
        tpl.replace(pos, key.size(), value);
    }
}

KernelDef
make(const std::string& name, ScalarType prec, const char* tpl,
     const std::string& main_loop, bool triangular = false)
{
    std::string proc_name;
    for (char c : name) {
        proc_name +=
            isalnum(static_cast<unsigned char>(c)) ? c : '_';
    }
    std::string src = fmt(tpl, "{T}", type_name(prec));
    src = fmt(src, "{NAME}", proc_name);
    KernelDef d;
    d.name = name;
    d.prec = prec;
    d.proc = parse_proc(src);
    d.main_loop = main_loop;
    d.triangular = triangular;
    return d;
}

// ---- Level 1 ------------------------------------------------------------

const char* kAsum = R"(
def {NAME}(n: size, x: {T}[n] @ DRAM, res: {T}[1] @ DRAM):
    for i in seq(0, n):
        res[0] += abs(x[i])
)";

const char* kAxpy = R"(
def {NAME}(n: size, a: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        y[i] += a * x[i]
)";

const char* kDot = R"(
def {NAME}(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM, res: {T}[1] @ DRAM):
    for i in seq(0, n):
        res[0] += x[i] * y[i]
)";

const char* kSdsdot = R"(
def {NAME}(n: size, sb: f32, x: f32[n] @ DRAM, y: f32[n] @ DRAM, res: f64[1] @ DRAM):
    res[0] += sb
    for i in seq(0, n):
        res[0] += x[i] * y[i]
)";

const char* kDsdot = R"(
def {NAME}(n: size, x: f32[n] @ DRAM, y: f32[n] @ DRAM, res: f64[1] @ DRAM):
    for i in seq(0, n):
        res[0] += x[i] * y[i]
)";

const char* kCopy = R"(
def {NAME}(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        y[i] = x[i]
)";

const char* kSwap = R"(
def {NAME}(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        t: {T} @ DRAM
        t = x[i]
        x[i] = y[i]
        y[i] = t
)";

const char* kScal = R"(
def {NAME}(n: size, a: {T}, x: {T}[n] @ DRAM):
    for i in seq(0, n):
        x[i] = a * x[i]
)";

const char* kRot = R"(
def {NAME}(n: size, c: {T}, s: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xt: {T} @ DRAM
        xt = c * x[i] + s * y[i]
        y[i] = c * y[i] - s * x[i]
        x[i] = xt
)";

// Modified Givens rotations, one kernel per flag (Appendix D.1).
const char* kRotmM1 = R"(
def {NAME}(n: size, h11: {T}, h12: {T}, h21: {T}, h22: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xt: {T} @ DRAM
        xt = h11 * x[i] + h12 * y[i]
        y[i] = h21 * x[i] + h22 * y[i]
        x[i] = xt
)";

const char* kRotm0 = R"(
def {NAME}(n: size, h12: {T}, h21: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xt: {T} @ DRAM
        xt = x[i] + h12 * y[i]
        y[i] = h21 * x[i] + y[i]
        x[i] = xt
)";

const char* kRotm1 = R"(
def {NAME}(n: size, h11: {T}, h22: {T}, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        xt: {T} @ DRAM
        xt = h11 * x[i] + y[i]
        y[i] = h22 * y[i] - x[i]
        x[i] = xt
)";

const char* kRotmM2 = R"(
def {NAME}(n: size, x: {T}[n] @ DRAM, y: {T}[n] @ DRAM):
    for i in seq(0, n):
        x[i] = x[i]
)";

// ---- Level 2 ------------------------------------------------------------

const char* kGemvN = R"(
def {NAME}(M: size, N: size, A: {T}[M, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[M] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            y[i] += x[j] * A[i, j]
)";

const char* kGemvT = R"(
def {NAME}(M: size, N: size, A: {T}[M, N] @ DRAM, x: {T}[M] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            y[j] += x[i] * A[i, j]
)";

const char* kGer = R"(
def {NAME}(M: size, N: size, alpha: {T}, x: {T}[M] @ DRAM, y: {T}[N] @ DRAM, A: {T}[M, N] @ DRAM):
    for i in seq(0, M):
        for j in seq(0, N):
            A[i, j] += alpha * x[i] * y[j]
)";

const char* kSymvL = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i):
            y[i] += x[j] * A[i, j]
            y[j] += x[i] * A[i, j]
        y[i] += x[i] * A[i, i]
)";

const char* kSymvU = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i + 1, N):
            y[i] += x[j] * A[i, j]
            y[j] += x[i] * A[i, j]
        y[i] += x[i] * A[i, i]
)";

const char* kSyrL = R"(
def {NAME}(N: size, alpha: {T}, x: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            A[i, j] += alpha * x[i] * x[j]
)";

const char* kSyrU = R"(
def {NAME}(N: size, alpha: {T}, x: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            A[i, j] += alpha * x[i] * x[j]
)";

const char* kSyr2L = R"(
def {NAME}(N: size, alpha: {T}, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            A[i, j] += alpha * x[i] * y[j] + alpha * y[i] * x[j]
)";

const char* kSyr2U = R"(
def {NAME}(N: size, alpha: {T}, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM, A: {T}[N, N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            A[i, j] += alpha * x[i] * y[j] + alpha * y[i] * x[j]
)";

// Triangular matrix-vector multiply: y = op(A) * x over the triangle.
// l/u = lower/upper, n/t = (non)transposed, n/u = non-unit/unit diag.
const char* kTrmvLnn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            y[i] += A[i, j] * x[j]
)";

const char* kTrmvLnu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        y[i] += x[i]
        for j in seq(0, i):
            y[i] += A[i, j] * x[j]
)";

const char* kTrmvLtn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i + 1):
            y[j] += A[i, j] * x[i]
)";

const char* kTrmvLtu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        y[i] += x[i]
        for j in seq(0, i):
            y[j] += A[i, j] * x[i]
)";

const char* kTrmvUnn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            y[i] += A[i, j] * x[j]
)";

const char* kTrmvUnu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        y[i] += x[i]
        for j in seq(i + 1, N):
            y[i] += A[i, j] * x[j]
)";

const char* kTrmvUtn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i, N):
            y[j] += A[i, j] * x[i]
)";

const char* kTrmvUtu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM, y: {T}[N] @ DRAM):
    for i in seq(0, N):
        y[i] += x[i]
        for j in seq(i + 1, N):
            y[j] += A[i, j] * x[i]
)";

// Triangular solve: x := op(A)^-1 * x. The dot-product inner loop is
// the vectorization target; the outer recurrence is sequential.
const char* kTrsvLnn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i):
            x[i] += -(A[i, j] * x[j])
        x[i] = x[i] / A[i, i]
)";

const char* kTrsvLnu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, i):
            x[i] += -(A[i, j] * x[j])
)";

// Transposed solves walk columns; expressed with the reduction flipped.
const char* kTrsvLtn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        x[N - 1 - i] = x[N - 1 - i] / A[N - 1 - i, N - 1 - i]
        for j in seq(0, N - 1 - i):
            x[j] += -(A[N - 1 - i, j] * x[N - 1 - i])
)";

const char* kTrsvLtu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(0, N - 1 - i):
            x[j] += -(A[N - 1 - i, j] * x[N - 1 - i])
)";

const char* kTrsvUnn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(N - i, N):
            x[N - 1 - i] += -(A[N - 1 - i, j] * x[j])
        x[N - 1 - i] = x[N - 1 - i] / A[N - 1 - i, N - 1 - i]
)";

const char* kTrsvUnu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(N - i, N):
            x[N - 1 - i] += -(A[N - 1 - i, j] * x[j])
)";

const char* kTrsvUtn = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        x[i] = x[i] / A[i, i]
        for j in seq(i + 1, N):
            x[j] += -(A[i, j] * x[i])
)";

const char* kTrsvUtu = R"(
def {NAME}(N: size, A: {T}[N, N] @ DRAM, x: {T}[N] @ DRAM):
    for i in seq(0, N):
        for j in seq(i + 1, N):
            x[j] += -(A[i, j] * x[i])
)";

const char* kSgemm = R"(
def sgemm(M: size, N: size, K: size, A: f32[M, K] @ DRAM, B: f32[K, N] @ DRAM, C: f32[M, N] @ DRAM):
    for k in seq(0, K):
        for i in seq(0, M):
            for j in seq(0, N):
                C[i, j] += A[i, k] * B[k, j]
)";

std::vector<KernelDef>
build_level1()
{
    std::vector<KernelDef> out;
    for (ScalarType t : {ScalarType::F32, ScalarType::F64}) {
        std::string p = (t == ScalarType::F32) ? "s" : "d";
        out.push_back(make(p + "asum", t, kAsum, "i"));
        out.push_back(make(p + "axpy", t, kAxpy, "i"));
        out.push_back(make(p + "dot", t, kDot, "i"));
        out.push_back(make(p + "copy", t, kCopy, "i"));
        out.push_back(make(p + "swap", t, kSwap, "i"));
        out.push_back(make(p + "scal", t, kScal, "i"));
        out.push_back(make(p + "rot", t, kRot, "i"));
        out.push_back(make(p + "rotm(-1)", t, kRotmM1, "i"));
        out.push_back(make(p + "rotm(0)", t, kRotm0, "i"));
        out.push_back(make(p + "rotm(1)", t, kRotm1, "i"));
        out.push_back(make(p + "rotm(-2)", t, kRotmM2, "i"));
    }
    out.push_back(make("sdsdot", ScalarType::F32, kSdsdot, "i"));
    out.push_back(make("dsdot", ScalarType::F32, kDsdot, "i"));
    return out;
}

std::vector<KernelDef>
build_level2()
{
    std::vector<KernelDef> out;
    for (ScalarType t : {ScalarType::F32, ScalarType::F64}) {
        std::string p = (t == ScalarType::F32) ? "s" : "d";
        out.push_back(make(p + "gemv_n", t, kGemvN, "i"));
        out.push_back(make(p + "gemv_t", t, kGemvT, "i"));
        out.push_back(make(p + "ger", t, kGer, "i"));
        out.push_back(make(p + "symv_l", t, kSymvL, "i", true));
        out.push_back(make(p + "symv_u", t, kSymvU, "i", true));
        out.push_back(make(p + "syr_l", t, kSyrL, "i", true));
        out.push_back(make(p + "syr_u", t, kSyrU, "i", true));
        out.push_back(make(p + "syr2_l", t, kSyr2L, "i", true));
        out.push_back(make(p + "syr2_u", t, kSyr2U, "i", true));
        out.push_back(make(p + "trmv_lnn", t, kTrmvLnn, "i", true));
        out.push_back(make(p + "trmv_lnu", t, kTrmvLnu, "i", true));
        out.push_back(make(p + "trmv_ltn", t, kTrmvLtn, "i", true));
        out.push_back(make(p + "trmv_ltu", t, kTrmvLtu, "i", true));
        out.push_back(make(p + "trmv_unn", t, kTrmvUnn, "i", true));
        out.push_back(make(p + "trmv_unu", t, kTrmvUnu, "i", true));
        out.push_back(make(p + "trmv_utn", t, kTrmvUtn, "i", true));
        out.push_back(make(p + "trmv_utu", t, kTrmvUtu, "i", true));
        out.push_back(make(p + "trsv_lnn", t, kTrsvLnn, "i", true));
        out.push_back(make(p + "trsv_lnu", t, kTrsvLnu, "i", true));
        out.push_back(make(p + "trsv_ltn", t, kTrsvLtn, "i", true));
        out.push_back(make(p + "trsv_ltu", t, kTrsvLtu, "i", true));
        out.push_back(make(p + "trsv_unn", t, kTrsvUnn, "i", true));
        out.push_back(make(p + "trsv_unu", t, kTrsvUnu, "i", true));
        out.push_back(make(p + "trsv_utn", t, kTrsvUtn, "i", true));
        out.push_back(make(p + "trsv_utu", t, kTrsvUtu, "i", true));
    }
    return out;
}

}  // namespace

const std::vector<KernelDef>&
blas_level1()
{
    static std::vector<KernelDef> k = build_level1();
    return k;
}

const std::vector<KernelDef>&
blas_level2()
{
    static std::vector<KernelDef> k = build_level2();
    return k;
}

const KernelDef&
find_kernel(const std::string& name)
{
    for (const auto& k : blas_level1()) {
        if (k.name == name)
            return k;
    }
    for (const auto& k : blas_level2()) {
        if (k.name == name)
            return k;
    }
    // A caller-supplied lookup key, not an engine invariant.
    throw SchedulingError("unknown kernel: '" + name +
                          "' (see blas_level1()/blas_level2() for the "
                          "available variants)");
}

ProcPtr
sgemm()
{
    static ProcPtr p = parse_proc(kSgemm);
    return p;
}

ProcPtr
resolve_kernel(const std::string& name)
{
    if (name == "sgemm")
        return sgemm();
    if (name == "blur")
        return blur();
    if (name == "unsharp")
        return unsharp();
    return find_kernel(name).proc;
}

}  // namespace kernels
}  // namespace exo2
