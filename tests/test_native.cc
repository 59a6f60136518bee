/**
 * @file
 * Native SIMD lowering tests (DESIGN.md §5).
 *
 * Four layers:
 *  1. Codegen shape: native mode turns vector-register buffers into
 *     __m256/__m512 values and expands intrinsic snippets at call
 *     sites; default (scalar) mode is unchanged.
 *  2. Fallback rule: instructions without a snippet, and call sites
 *     whose operands violate a snippet's contract (strided lanes),
 *     lower through the scalar helper function — in the same unit as
 *     native expansions.
 *  3. Directed tri-oracle cases for every masked and range-masked
 *     instruction variant (f64 on both machines, f32 on AVX2), each
 *     wrapped in a proc that loads registers, issues the variant, and
 *     stores the registers back so merge semantics are observable.
 *     Run three ways: scalar C, AVX2 intrinsics, AVX-512 intrinsics
 *     (the native modes skip on CPUs without the ISA).
 *  4. End-to-end: library-scheduled kernels compiled with intrinsics
 *     agree with the interpreter.
 *  5. The precompiled intrinsics header (DESIGN.md §7): GCC loads it
 *     under cjit's flags, the object is byte-identical with and without
 *     it, and a compiler it was not built by never gets it.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/codegen/c_codegen.h"
#include "src/frontend/parser.h"
#include "src/ir/builder.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/machine.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/util/env.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace {

using verify::cjit_cpu_supports;
using verify::CompiledProc;
using verify::NativeIsa;
using verify::SizeEnv;
using verify::tri_oracle_check;

/** Scoped override of one environment variable (restored on
 *  destruction). */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        const char* old = std::getenv(name);
        had_old_ = old != nullptr;
        if (had_old_)
            old_ = old;
        setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_old_)
            setenv(name_, old_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char* name_;
    bool had_old_ = false;
    std::string old_;
};

/** Scoped override of EXO2_NATIVE_ISA. */
struct ScopedIsaEnv : ScopedEnv
{
    explicit ScopedIsaEnv(const char* value)
        : ScopedEnv("EXO2_NATIVE_ISA", value) {}
};

ExprPtr
full_window(const std::string& name, const ExprPtr& hi, ScalarType t)
{
    return Expr::make_window(name, {WindowDim{idx_const(0), hi}}, t);
}

/**
 * Wrap one instruction in a standalone proc: every vector-register
 * formal gets a DRAM io buffer, a register alloc, a load before the
 * call, and a store after it (so lanes the mask keeps *and* lanes it
 * skips are both observable); DRAM formals bind to windows of io
 * buffers; size formals become size args of the same name.
 */
ProcPtr
wrap_instr(const Machine& machine, ScalarType t, const ProcPtr& instr)
{
    const VecInstrSet& set = machine.instrs(t);
    int w = machine.vec_width(t);
    std::vector<ProcArg> args;
    std::vector<StmtPtr> pre, post;
    std::vector<ExprPtr> call_args;
    int reg = 0;
    for (const ProcArg& f : instr->args()) {
        if (f.dims.empty()) {
            if (f.is_size || f.type == ScalarType::Index) {
                args.push_back(size_arg(f.name));
                call_args.push_back(var(f.name));
            } else {
                args.push_back(scalar_arg(f.name, f.type));
                call_args.push_back(read(f.name, {}, f.type));
            }
            continue;
        }
        std::string io = f.name + "_io" + std::to_string(reg);
        args.push_back(buffer_arg(io, t, {idx_const(w)}));
        if (f.mem && f.mem->is_vector()) {
            std::string r = "reg" + std::to_string(reg++);
            pre.push_back(
                Stmt::make_alloc(r, t, {idx_const(w)}, machine.mem_type()));
            pre.push_back(Stmt::make_call(
                set.load, {full_window(r, idx_const(w), t),
                           full_window(io, idx_const(w), t)}));
            post.push_back(Stmt::make_call(
                set.store, {full_window(io, idx_const(w), t),
                            full_window(r, idx_const(w), t)}));
            call_args.push_back(full_window(r, idx_const(w), t));
        } else {
            // DRAM formal: window of the io buffer with the formal's
            // own extent expression ([W], [m], or [1]).
            call_args.push_back(full_window(io, f.dims.at(0), t));
        }
    }
    std::vector<StmtPtr> body = pre;
    body.push_back(Stmt::make_call(instr, call_args));
    body.insert(body.end(), post.begin(), post.end());
    return Proc::make("wrap_" + instr->name(), std::move(args), {},
                      std::move(body));
}

/** All masked and range-masked variants of one instruction set. */
std::vector<std::pair<std::string, ProcPtr>>
masked_variants(const VecInstrSet& s)
{
    std::vector<std::pair<std::string, ProcPtr>> out;
    auto add = [&](const char* label, const ProcPtr& p) {
        if (p)
            out.emplace_back(label, p);
    };
    add("load_pred", s.load_pred);
    add("store_pred", s.store_pred);
    add("m_broadcast", s.m_broadcast);
    add("m_add", s.m_add);
    add("m_sub", s.m_sub);
    add("m_mul", s.m_mul);
    add("m_fma", s.m_fma);
    add("m_abs", s.m_abs);
    add("m_neg", s.m_neg);
    add("m_acc", s.m_acc);
    add("r_load", s.r_load);
    add("r_store", s.r_store);
    add("r_broadcast", s.r_broadcast);
    add("r_add", s.r_add);
    add("r_sub", s.r_sub);
    add("r_mul", s.r_mul);
    add("r_fma", s.r_fma);
    add("r_abs", s.r_abs);
    add("r_neg", s.r_neg);
    add("r_acc", s.r_acc);
    return out;
}

/** Tri-oracle every masked/range-masked variant of (machine, t) under
 *  the current EXO2_NATIVE_ISA setting. `m` is chosen to keep some
 *  lanes masked off on every width, `l` makes the range two-sided. */
void
check_masked_variants(const Machine& machine, ScalarType t)
{
    for (const auto& [label, instr] : masked_variants(machine.instrs(t))) {
        ProcPtr p = wrap_instr(machine, t, instr);
        SizeEnv env;
        if (instr->find_arg("m"))
            env["m"] = 3;
        if (instr->find_arg("l"))
            env["l"] = 1;
        auto rep = tri_oracle_check(p, p, env, 77001);
        EXPECT_TRUE(rep.ok)
            << machine.name() << " " << type_name(t) << " " << label
            << ": " << rep.detail;
    }
}

// ---- 1 & 2. Codegen shape and the fallback rule --------------------------

TEST(NativeCodegen, VectorAllocsBecomeRegisterValues)
{
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 2);

    CodegenOpts native;
    native.native_vector_bytes = 32;
    std::string unit = codegen_c_unit(opt, native);
    EXPECT_NE(unit.find("#include <immintrin.h>"), std::string::npos);
    EXPECT_NE(unit.find("__m256 "), std::string::npos);
    EXPECT_NE(unit.find("_mm256_fmadd_ps("), std::string::npos);
    EXPECT_NE(unit.find("_mm256_loadu_ps("), std::string::npos);
    // Masked tail: blend-emulated masked ops and vmaskmov memory ops.
    EXPECT_NE(unit.find("_mm256_maskload_ps("), std::string::npos);
    EXPECT_NE(unit.find("_mm256_maskstore_ps("), std::string::npos);
    // No scalar register arrays, no scalar instr helpers left behind.
    EXPECT_EQ(unit.find("float var0["), std::string::npos) << unit;
    EXPECT_EQ(unit.find("void mm256_fmadd_ps("), std::string::npos);

    // Default mode is untouched: helpers with scalar reference loops.
    std::string scalar = codegen_c_unit(opt);
    EXPECT_EQ(scalar.find("immintrin"), std::string::npos);
    EXPECT_NE(scalar.find("void mm256_fmadd_ps("), std::string::npos);
}

TEST(NativeCodegen, InsufficientIsaBudgetStaysScalar)
{
    // An AVX-512-scheduled kernel under a 32-byte budget must compile
    // fully scalar rather than half-native.
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx512(), 2);
    EXPECT_EQ(codegen_max_vector_bytes(opt), 64);
    CodegenOpts avx2_only;
    avx2_only.native_vector_bytes = 32;
    std::string unit = codegen_c_unit(opt, avx2_only);
    EXPECT_EQ(unit.find("immintrin"), std::string::npos);
    EXPECT_NE(unit.find("void mm512_fmadd_ps("), std::string::npos);
}

TEST(NativeCodegen, InstrWithoutTemplateFallsBackToScalarHelper)
{
    // A user-defined instruction that never got an intrinsic snippet:
    // native mode must emit its scalar helper and call it with an
    // element-pointer view of the __m256 register.
    ProcPtr body = parse_proc(R"(
def my_rot8(dst: [f32][8] @ AVX2, src: [f32][8] @ AVX2):
    for i in seq(0, 8):
        dst[i] = src[i] * 2.0
)");
    InstrInfo info;
    info.c_template = "my_rot8_impl";
    ProcPtr instr = Proc::make("my_rot8", body->args(), body->preds(),
                               body->body_stmts(), info);
    EXPECT_FALSE(instr->instr()->has_native_template());

    ProcPtr p = wrap_instr(machine_avx2(), ScalarType::F32, instr);
    CodegenOpts native;
    native.native_vector_bytes = 32;
    std::string unit = codegen_c_unit(p, native);
    // Scalar helper emitted and invoked on casted register pointers...
    EXPECT_NE(unit.find("void my_rot8_impl("), std::string::npos) << unit;
    EXPECT_NE(unit.find("my_rot8_impl((((float*)&"), std::string::npos)
        << unit;
    // ...while the machine's own load/store still expand natively.
    EXPECT_NE(unit.find("_mm256_loadu_ps("), std::string::npos);
    EXPECT_NE(unit.find("_mm256_storeu_ps("), std::string::npos);

    // And the mixed unit is semantically right under every mode.
    ScopedIsaEnv scalar("scalar");
    auto rep = tri_oracle_check(p, p, {}, 5150);
    EXPECT_TRUE(rep.ok) << rep.detail;
    if (cjit_cpu_supports(NativeIsa::Avx2)) {
        ScopedIsaEnv native_env("avx2");
        auto rep2 = tri_oracle_check(p, p, {}, 5151);
        EXPECT_TRUE(rep2.ok) << rep2.detail;
    }
}

TEST(NativeCodegen, StridedLaneOperandFallsBackPerCallSite)
{
    // Loading a matrix *column* violates the unit-stride lane contract
    // of _mm256_loadu_ps; that call site must use the scalar helper
    // while unit-stride sites in the same proc stay native.
    const VecInstrSet& s = machine_avx2().instrs(ScalarType::F32);
    std::vector<ProcArg> args = {
        buffer_arg("A", ScalarType::F32, {idx_const(8), idx_const(8)}),
        buffer_arg("y", ScalarType::F32, {idx_const(8)}),
    };
    StmtPtr alloc = Stmt::make_alloc("v", ScalarType::F32, {idx_const(8)},
                                     machine_avx2().mem_type());
    // v = A[0:8, 2]  (stride-8 lanes)
    ExprPtr col = Expr::make_window(
        "A", {WindowDim{idx_const(0), idx_const(8)},
              WindowDim{idx_const(2), nullptr}},
        ScalarType::F32);
    StmtPtr load_col = Stmt::make_call(s.load,
                                       {full_window("v", idx_const(8),
                                                    ScalarType::F32),
                                        col});
    StmtPtr store_row = Stmt::make_call(
        s.store, {full_window("y", idx_const(8), ScalarType::F32),
                  full_window("v", idx_const(8), ScalarType::F32)});
    ProcPtr p = Proc::make("col_copy", args, {},
                           {alloc, load_col, store_row});

    CodegenOpts native;
    native.native_vector_bytes = 32;
    std::string unit = codegen_c_unit(p, native);
    EXPECT_NE(unit.find("void mm256_loadu_ps("), std::string::npos)
        << unit;  // helper for the strided site
    EXPECT_NE(unit.find("_mm256_storeu_ps("), std::string::npos)
        << unit;  // native store on the unit-stride site

    ScopedIsaEnv scalar("scalar");
    auto rep = tri_oracle_check(p, p, {}, 5152);
    EXPECT_TRUE(rep.ok) << rep.detail;
    if (cjit_cpu_supports(NativeIsa::Avx2)) {
        ScopedIsaEnv native_env("avx2");
        auto rep2 = tri_oracle_check(p, p, {}, 5153);
        EXPECT_TRUE(rep2.ok) << rep2.detail;
    }
}

TEST(NativeCodegen, ResidualLaneAccessReadsRegisterLanes)
{
    // A scalar statement touching a vector register (not every schedule
    // replaces every op) must still lower: lanes are addressed through
    // an element-pointer cast of the register value.
    const VecInstrSet& s = machine_avx2().instrs(ScalarType::F32);
    std::vector<ProcArg> args = {
        buffer_arg("x", ScalarType::F32, {idx_const(8)}),
        buffer_arg("y", ScalarType::F32, {idx_const(8)}),
    };
    StmtPtr alloc = Stmt::make_alloc("v", ScalarType::F32, {idx_const(8)},
                                     machine_avx2().mem_type());
    StmtPtr load = Stmt::make_call(
        s.load, {full_window("v", idx_const(8), ScalarType::F32),
                 full_window("x", idx_const(8), ScalarType::F32)});
    StmtPtr pick = Stmt::make_assign(
        "y", {idx_const(0)},
        read("v", {idx_const(3)}) * num_const(2.0), ScalarType::F32);
    ProcPtr p = Proc::make("lane_pick", args, {}, {alloc, load, pick});

    CodegenOpts native;
    native.native_vector_bytes = 32;
    std::string unit = codegen_c_unit(p, native);
    EXPECT_NE(unit.find("((float*)&v)[(3)]"), std::string::npos) << unit;

    ScopedIsaEnv scalar("scalar");
    auto rep = tri_oracle_check(p, p, {}, 5154);
    EXPECT_TRUE(rep.ok) << rep.detail;
    if (cjit_cpu_supports(NativeIsa::Avx2)) {
        ScopedIsaEnv native_env("avx2");
        auto rep2 = tri_oracle_check(p, p, {}, 5155);
        EXPECT_TRUE(rep2.ok) << rep2.detail;
    }
}

// ---- 3. Directed masked / range-masked variant parity --------------------

TEST(NativeDirected, MaskedVariantsScalarBackend)
{
    ScopedIsaEnv env("scalar");
    check_masked_variants(machine_avx2(), ScalarType::F64);
    check_masked_variants(machine_avx512(), ScalarType::F64);
}

TEST(NativeDirected, MaskedVariantsAvx2Intrinsics)
{
    if (!cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    ScopedIsaEnv env("avx2");
    check_masked_variants(machine_avx2(), ScalarType::F64);
    check_masked_variants(machine_avx2(), ScalarType::F32);
}

TEST(NativeDirected, MaskedVariantsAvx512Intrinsics)
{
    if (!cjit_cpu_supports(NativeIsa::Avx512))
        GTEST_SKIP() << "CPU has no AVX-512F";
    ScopedIsaEnv env("avx512");
    check_masked_variants(machine_avx512(), ScalarType::F64);
    check_masked_variants(machine_avx512(), ScalarType::F32);
}

// ---- 4. End-to-end intrinsics vs interpreter on scheduled kernels --------

TEST(NativeEndToEnd, Level1KernelsMatchInterpreterUnderAvx2)
{
    if (!cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    ScopedIsaEnv env("avx2");
    for (const char* name : {"saxpy", "sdot", "sasum", "dscal", "drot"}) {
        const auto& k = kernels::find_kernel(name);
        ProcPtr opt = sched::optimize_level_1(
            k.proc, k.proc->find_loop(k.main_loop), k.prec,
            machine_avx2(), 2);
        // 19 exercises the masked ragged tail.
        auto rep = tri_oracle_check(k.proc, opt, {{"n", 19}}, 90210);
        EXPECT_TRUE(rep.ok) << name << ": " << rep.detail;
    }
}

TEST(NativeEndToEnd, CompiledProcReportsNativeMode)
{
    if (!cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = sched::optimize_level_1(
        k.proc, k.proc->find_loop("i"), k.prec, machine_avx2(), 2);
    CompiledProc scalar(opt, NativeIsa::Scalar);
    EXPECT_FALSE(scalar.is_native());
    EXPECT_EQ(scalar.source().find("immintrin"), std::string::npos);
    CompiledProc native(opt, NativeIsa::Avx2);
    EXPECT_TRUE(native.is_native());
    EXPECT_NE(native.source().find("_mm256_fmadd_ps("), std::string::npos);
}

// ---- 5. Precompiled intrinsics header ------------------------------------

/** A fresh directory under the test temp dir, removed on destruction. */
verify::TempDir
fresh_dir()
{
    std::string tmpl = ::testing::TempDir() + "exo2_pch_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* d = mkdtemp(buf.data());
    EXPECT_NE(d, nullptr);
    return verify::TempDir(d ? d : "");
}

std::string
read_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** The `#include` lines of a C text, in order. */
std::vector<std::string>
include_lines(const std::string& text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("#include", 0) == 0)
            out.push_back(line);
    }
    return out;
}

/** saxpy scheduled for `m`, the smallest native unit. */
ProcPtr
scheduled_saxpy(const Machine& m)
{
    const auto& k = kernels::find_kernel("saxpy");
    return sched::optimize_level_1(k.proc, k.proc->find_loop(k.main_loop),
                                   k.prec, m, 2);
}

/** Compile `c_path` to `so_path` the way cjit does for `flag_set`, with
 *  `extra` flags before the outputs; returns the compiler's output. */
std::string
cjit_compile(NativeIsa flag_set, const std::vector<std::string>& extra,
             const std::string& so_path, const std::string& c_path)
{
    std::vector<std::string> argv = {verify::cjit_cc()};
    for (const std::string& f : verify::cjit_flags(flag_set))
        argv.push_back(f);
    argv.insert(argv.end(), extra.begin(), extra.end());
    argv.insert(argv.end(), {"-o", so_path, c_path});
    std::string out_path = so_path + ".out";
    verify::SpawnResult r = verify::run_command(argv, out_path, 120);
    std::string out = read_bytes(out_path);
    EXPECT_TRUE(r.ok()) << out;
    return out;
}

/** The build makes the PCH with the default compiler, so with CC unset
 *  a missing one is a failure; under another CC the tests skip. */
#define PCH_OR_SKIP(pch, isa)                                             \
    std::string pch = verify::cjit_pch_header(isa, verify::cjit_cc());    \
    if (pch.empty()) {                                                    \
        ASSERT_NE(util::env_string("CC", ""), "")                         \
            << "no precompiled header for "                               \
            << verify::native_isa_name(isa);                              \
        GTEST_SKIP() << "no precompiled header for CC="                   \
                     << verify::cjit_cc();                                \
    }

TEST(NativePch, GccLoadsThePchUnderCjitFlags)
{
    verify::TempDir dir = fresh_dir();
    for (NativeIsa isa : {NativeIsa::Avx2, NativeIsa::Avx512}) {
        PCH_OR_SKIP(pch, isa);
        bool wide = isa == NativeIsa::Avx512;
        CodegenOpts opts;
        opts.native_vector_bytes = wide ? 64 : 32;
        std::string c_path = dir.path() + "/kernel.c";
        std::ofstream(c_path) << codegen_c_unit(
            scheduled_saxpy(wide ? machine_avx512() : machine_avx2()), opts);
        // -H lists every header as it is read; a loaded PCH comes first,
        // marked "!".
        std::string out = cjit_compile(isa, {"-include", pch, "-H"},
                                       dir.path() + "/kernel.so", c_path);
        EXPECT_EQ(out.substr(0, out.find('\n')), "! " + pch + ".gch")
            << verify::native_isa_name(isa) << ":\n" << out;
    }
}

TEST(NativePch, ObjectIsByteIdenticalWithAndWithoutThePch)
{
    PCH_OR_SKIP(pch, NativeIsa::Avx2);
    const Machine& m = machine_avx2();
    const auto& gemv = kernels::find_kernel("sgemv_n");
    std::vector<std::pair<std::string, ProcPtr>> units = {
        {"saxpy", scheduled_saxpy(m)},
        {"sgemv_n", sched::optimize_level_2_general(
                        gemv.proc, gemv.proc->find_loop(gemv.main_loop),
                        gemv.prec, m, 4, 2)},
        {"sgemm", sched::schedule_sgemm(
                      sched::sgemm_with_asserts(kernels::sgemm(), m), m)},
        {"blur", sched::schedule_blur_like_halide(kernels::blur(), m)},
    };
    verify::TempDir dir = fresh_dir();
    std::string c_path = dir.path() + "/kernel.c";
    std::string with = dir.path() + "/with.so";
    std::string without = dir.path() + "/without.so";
    CodegenOpts opts;
    opts.native_vector_bytes = 32;
    for (const auto& [name, p] : units) {
        std::string unit = codegen_c_unit(p, opts);
        // The header holds exactly the includes the unit starts with.
        EXPECT_EQ(include_lines(read_bytes(pch)), include_lines(unit))
            << name;
        std::ofstream(c_path) << unit;
        cjit_compile(NativeIsa::Avx2, {"-include", pch}, with, c_path);
        cjit_compile(NativeIsa::Avx2, {}, without, c_path);
        std::string a = read_bytes(with);
        EXPECT_FALSE(a.empty()) << name;
        EXPECT_TRUE(a == read_bytes(without)) << name << ": objects differ";
    }
}

TEST(NativePch, ForeignCompilerBuildsWithoutThePch)
{
    if (!cjit_cpu_supports(NativeIsa::Avx2))
        GTEST_SKIP() << "CPU has no AVX2+FMA";
    const auto& k = kernels::find_kernel("saxpy");
    ProcPtr opt = scheduled_saxpy(machine_avx2());
    std::string cc = verify::cjit_cc();
    if (util::env_string("CC", "").empty()) {
        CompiledProc cp(opt, NativeIsa::Avx2);
        EXPECT_TRUE(cp.used_pch());
    }

    // Same compiler behind another name: a different identity, so the
    // PCH stamp does not match and the unit compiles as it did before.
    verify::TempDir dir = fresh_dir();
    std::string wrapper = dir.path() + "/cc-wrapper";
    std::ofstream(wrapper) << "#!/bin/sh\nexec '" << cc << "' \"$@\"\n";
    ASSERT_EQ(chmod(wrapper.c_str(), 0755), 0);
    ScopedEnv cc_env("CC", wrapper.c_str());
    EXPECT_NE(cache::compiler_identity(wrapper),
              cache::compiler_identity(cc));
    EXPECT_EQ(verify::cjit_pch_header(NativeIsa::Avx2, wrapper), "");

    CompiledProc cp(opt, NativeIsa::Avx2);
    EXPECT_TRUE(cp.is_native());
    EXPECT_FALSE(cp.used_pch());
    ScopedIsaEnv isa("avx2");
    auto rep = tri_oracle_check(k.proc, opt, {{"n", 19}}, 4711);
    EXPECT_TRUE(rep.ok) << rep.detail;
}

}  // namespace
}  // namespace exo2
