#ifndef EXO2_MACHINE_GEMMINI_H_
#define EXO2_MACHINE_GEMMINI_H_

/**
 * @file
 * The Gemmini accelerator model (Section 6.1.2, Appendix B): a 16x16
 * int8 systolic array with a 256 KiB software-managed scratchpad, a
 * 16 KiB accumulator, blocked DMA loads, and *stateful configuration
 * registers* that make configuration hoisting profitable.
 *
 * The paper measured on FireSim/FPGA; here the same instruction set is
 * defined as instr-procs (semantics bodies + cycle costs) executed on
 * the cost simulator — the substitution documented in DESIGN.md.
 */

#include <vector>

#include "src/ir/proc.h"

namespace exo2 {

/** The Gemmini instruction set. */
struct GemminiInstrSet
{
    // Configuration instructions (expensive, stateful).
    ProcPtr config_ld_id1;
    ProcPtr config_ld_id2;
    ProcPtr config_st_acc;
    ProcPtr config_matmul;
    ProcPtr config_zero;

    // Compute / data movement (do_* read the configuration state).
    ProcPtr do_ld_block_id1;   ///< DMA 4 16x16 i8 blocks into scratchpad
    ProcPtr do_ld_block_id2;
    ProcPtr do_matmul_acc;     ///< 16x16x16 MAC into the accumulator
    ProcPtr do_zero_acc;
    ProcPtr do_st_acc;         ///< scale/activate/store accumulator tile

    // Fused _v2 variants: configuration write + do_* (Appendix B).
    ProcPtr ld_block_id1_v2;
    ProcPtr ld_block_id2_v2;
    ProcPtr matmul_acc_v2;
    ProcPtr zero_acc_v2;
    ProcPtr st_acc_v2;

    std::vector<ProcPtr> all() const;
};

/** The singleton Gemmini instruction set. */
const GemminiInstrSet& gemmini_instrs();

}  // namespace exo2

#endif  // EXO2_MACHINE_GEMMINI_H_
