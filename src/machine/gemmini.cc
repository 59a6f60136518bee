#include "src/machine/gemmini.h"

#include "src/frontend/parser.h"

namespace exo2 {

std::vector<ProcPtr>
GemminiInstrSet::all() const
{
    std::vector<ProcPtr> out;
    for (const ProcPtr& p :
         {config_ld_id1, config_ld_id2, config_st_acc, config_matmul,
          config_zero, do_ld_block_id1, do_ld_block_id2, do_matmul_acc,
          do_zero_acc, do_st_acc}) {
        if (p)
            out.push_back(p);
    }
    return out;
}

namespace {

ProcPtr
make_instr(const std::string& name, const std::string& src, double cycles,
           const std::string& cls)
{
    ProcPtr body = parse_proc(src);
    InstrInfo info;
    info.c_template = name;
    info.cycles = cycles;
    info.instr_class = cls;
    return Proc::make(name, body->args(), body->preds(),
                      body->body_stmts(), info);
}

GemminiInstrSet
build()
{
    GemminiInstrSet g;

    // Configuration instructions: writes to accelerator state. The
    // state is semantically unobservable in this model (DESIGN.md);
    // their cost models the pipeline flush of reconfiguration.
    g.config_ld_id1 = make_instr("config_ld_i8_id1", R"(
def config_ld_i8_id1(stride: size):
    gcfg.ld1_stride = stride
)",
                                 50.0, "config");
    g.config_ld_id2 = make_instr("config_ld_i8_id2", R"(
def config_ld_i8_id2(stride: size):
    gcfg.ld2_stride = stride
)",
                                 50.0, "config");
    g.config_st_acc = make_instr("config_st_acc_i8", R"(
def config_st_acc_i8(stride: size):
    gcfg.st_stride = stride
)",
                                 50.0, "config");
    g.config_matmul = make_instr("config_matmul", R"(
def config_matmul(dataflow: size):
    gcfg.mm_dataflow = dataflow
)",
                                 50.0, "config");
    g.config_zero = make_instr("config_zero", R"(
def config_zero(acc: size):
    gcfg.zero_acc = acc
)",
                               50.0, "config");

    // A 4-block (16x64) row-major DMA load into the scratchpad.
    g.do_ld_block_id1 = make_instr("do_ld_i8_block_id1", R"(
def do_ld_i8_block_id1(src: [i8][16, 64] @ DRAM, dst: [i8][4, 16, 16] @ GEMM_SCRATCH):
    for b in seq(0, 4):
        for r in seq(0, 16):
            for c in seq(0, 16):
                dst[b, r, c] = src[r, 16 * b + c]
)",
                                   64.0, "load");
    // A 4-block (64x16) column-panel DMA load.
    g.do_ld_block_id2 = make_instr("do_ld_i8_block_id2", R"(
def do_ld_i8_block_id2(src: [i8][64, 16] @ DRAM, dst: [i8][4, 16, 16] @ GEMM_SCRATCH):
    for b in seq(0, 4):
        for r in seq(0, 16):
            for c in seq(0, 16):
                dst[b, r, c] = src[16 * b + r, c]
)",
                                   64.0, "load");
    // 16x16x16 systolic matmul-accumulate.
    g.do_matmul_acc = make_instr("do_matmul_acc_i8", R"(
def do_matmul_acc_i8(A: [i8][16, 16] @ GEMM_SCRATCH, B: [i8][16, 16] @ GEMM_SCRATCH, C: [i32][16, 16] @ GEMM_ACCUM):
    for i in seq(0, 16):
        for j in seq(0, 16):
            for k in seq(0, 16):
                C[i, j] += A[i, k] * B[k, j]
)",
                                 16.0, "fma");
    g.do_zero_acc = make_instr("do_zero_acc_i32", R"(
def do_zero_acc_i32(dst: [i32][16, 16] @ GEMM_ACCUM):
    for i in seq(0, 16):
        for j in seq(0, 16):
            dst[i, j] = 0.0
)",
                               4.0, "arith");
    // Scale, clamp, and store an accumulator tile to DRAM.
    g.do_st_acc = make_instr("do_st_acc_i8", R"(
def do_st_acc_i8(scale: f32, src: [i32][16, 16] @ GEMM_ACCUM, dst: [i8][16, 16] @ DRAM):
    for i in seq(0, 16):
        for j in seq(0, 16):
            dst[i, j] = clamp_i8(acc_scale(src[i, j], scale))
)",
                             32.0, "store");
    return g;
}

}  // namespace

const GemminiInstrSet&
gemmini_instrs()
{
    static GemminiInstrSet g = build();
    return g;
}

}  // namespace exo2
