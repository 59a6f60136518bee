/**
 * @file
 * Bit-identity golden test for the IR evaluator (DESIGN.md §11).
 *
 * For the naive and the library-scheduled form of every level-1 and
 * level-2 BLAS kernel, SGEMM (`sgemm_with_asserts` + `schedule_sgemm`)
 * and blur/unsharp, at the sizes and seeds the tri-oracle parity tests
 * in test_verify.cc use, this records:
 *   - all six CostResult fields of `simulate_cost_named` (default
 *     CostConfig, warm), plus the cold-cache cycle count, which
 *     exercises the LRU miss path the small warm runs never reach, and
 *   - an FNV-1a 64 hash over the bits of every buffer argument after
 *     `interp_run` on the oracle's seeded inputs.
 * Any drift in either evaluator policy fails the test; a missing or
 * extra corpus entry fails it too.
 *
 * The table is the evaluator's contract with the tuner (cached winners
 * embed its cost ranking) and with the tri-oracle (the interpreter is
 * the reference). A deliberate change to the cost model bumps
 * `kCostModelVersion` (src/machine/cost_sim.h) and regenerates the
 * table: every mismatch prints the replacement row, ready to paste.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/cache/cache.h"
#include "src/kernels/blas.h"
#include "src/kernels/image.h"
#include "src/machine/cost_sim.h"
#include "src/sched/blas.h"
#include "src/sched/gemm.h"
#include "src/sched/halide.h"
#include "src/verify/verify.h"

namespace exo2 {
namespace {

struct Golden
{
    const char* name;
    double cycles;
    int64_t instr_calls;
    int64_t config_writes;
    int64_t dram_accesses;
    int64_t l1_misses;
    int64_t l2_misses;
    double cold_cycles;
    uint64_t interp_hash;
};

// clang-format off
const Golden kGolden[] = {
    {"sasum.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.0bp+8, 0x2ab7cedb4456f1b3ull},
    {"sasum.sched", 0x1.98p+4, 13, 0, 5, 0, 0, 0x1.d7p+7, 0xbfbb342aed8c4d53ull},
    {"saxpy.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.51p+8, 0x32ff6d20189dc60eull},
    {"saxpy.sched", 0x1.78p+4, 15, 0, 9, 0, 0, 0x1.2f8p+8, 0x32ff6d20189dc60eull},
    {"sdot.naive", 0x1.0ap+6, 0, 0, 57, 0, 0, 0x1.a08p+8, 0xe182a0eb36f3cd99ull},
    {"sdot.sched", 0x1.ap+4, 13, 0, 8, 0, 0, 0x1.78p+8, 0x5d2de4539163af0eull},
    {"scopy.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.51p+8, 0x4545e768f8085551ull},
    {"scopy.sched", 0x1.6p+3, 6, 0, 6, 0, 0, 0x1.23p+8, 0x4545e768f8085551ull},
    {"sswap.naive", 0x1.c8p+6, 0, 0, 76, 0, 0, 0x1.8ap+8, 0xe36369532d6ae17dull},
    {"sswap.sched", 0x1.4p+4, 12, 0, 12, 0, 0, 0x1.2cp+8, 0xe36369532d6ae17dull},
    {"sscal.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.8ap+7, 0xf9e60e9b8f3d9ca5ull},
    {"sscal.sched", 0x1.3p+4, 12, 0, 6, 0, 0, 0x1.3ep+7, 0xf9e60e9b8f3d9ca5ull},
    {"srot.naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.9dp+8, 0x0f55e8cc313c85a7ull},
    {"srot.sched", 0x1.14p+6, 48, 0, 18, 0, 0, 0x1.5dp+8, 0x0f55e8cc313c85a7ull},
    {"srotm(-1).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.9dp+8, 0x6d620adfa0cf74efull},
    {"srotm(-1).sched", 0x1.14p+6, 48, 0, 18, 0, 0, 0x1.5dp+8, 0x6d620adfa0cf74efull},
    {"srotm(0).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.9dp+8, 0xbfdff065f8d71359ull},
    {"srotm(0).sched", 0x1.a8p+5, 36, 0, 18, 0, 0, 0x1.4dp+8, 0xbfdff065f8d71359ull},
    {"srotm(1).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.9dp+8, 0x5903b2f5a8249f43ull},
    {"srotm(1).sched", 0x1.a8p+5, 36, 0, 18, 0, 0, 0x1.4dp+8, 0x5903b2f5a8249f43ull},
    {"srotm(-2).naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.8ap+7, 0xa24f9929009e0c75ull},
    {"srotm(-2).sched", 0x1.6p+3, 6, 0, 6, 0, 0, 0x1.2ep+7, 0xa24f9929009e0c75ull},
    {"dasum.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.51p+8, 0xd90a6ca0659d8370ull},
    {"dasum.sched", 0x1.0cp+5, 19, 0, 7, 0, 0, 0x1.398p+8, 0xd90a6ca0659d8370ull},
    {"daxpy.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.ddp+8, 0x967cb743b2e47289ull},
    {"daxpy.sched", 0x1.2cp+5, 25, 0, 15, 0, 0, 0x1.c98p+8, 0x967cb743b2e47289ull},
    {"ddot.naive", 0x1.0ap+6, 0, 0, 57, 0, 0, 0x1.164p+9, 0x3caa70ba92bb92c0ull},
    {"ddot.sched", 0x1.18p+5, 19, 0, 12, 0, 0, 0x1.068p+9, 0x3caa70ba92bb92c0ull},
    {"dcopy.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.ddp+8, 0x943468874e37eaa1ull},
    {"dcopy.sched", 0x1.2p+4, 10, 0, 10, 0, 0, 0x1.b6p+8, 0x943468874e37eaa1ull},
    {"dswap.naive", 0x1.c8p+6, 0, 0, 76, 0, 0, 0x1.0bp+9, 0x28b601a5e3689f49ull},
    {"dswap.sched", 0x1.08p+5, 20, 0, 20, 0, 0, 0x1.c5p+8, 0x28b601a5e3689f49ull},
    {"dscal.naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.0bp+8, 0x5e7b5b4b4fe4a836ull},
    {"dscal.sched", 0x1.ep+4, 20, 0, 10, 0, 0, 0x1.ep+7, 0x5e7b5b4b4fe4a836ull},
    {"drot.naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.148p+9, 0x0afcb36f7f878d57ull},
    {"drot.sched", 0x1.bp+6, 80, 0, 30, 0, 0, 0x1.08p+9, 0x0afcb36f7f878d57ull},
    {"drotm(-1).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.148p+9, 0x8fda44fe8b6188abull},
    {"drotm(-1).sched", 0x1.bp+6, 80, 0, 30, 0, 0, 0x1.08p+9, 0x8fda44fe8b6188abull},
    {"drotm(0).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.148p+9, 0xc824df32c4bf0b48ull},
    {"drotm(0).sched", 0x1.5p+6, 60, 0, 30, 0, 0, 0x1.f8p+8, 0xc824df32c4bf0b48ull},
    {"drotm(1).naive", 0x1.0ap+7, 0, 0, 114, 0, 0, 0x1.148p+9, 0x446be8e20d05e6a6ull},
    {"drotm(1).sched", 0x1.5p+6, 60, 0, 30, 0, 0, 0x1.f8p+8, 0x446be8e20d05e6a6ull},
    {"drotm(-2).naive", 0x1.c8p+5, 0, 0, 38, 0, 0, 0x1.0bp+8, 0x6153df035e2f263dull},
    {"drotm(-2).sched", 0x1.2p+4, 10, 0, 10, 0, 0, 0x1.c8p+7, 0x6153df035e2f263dull},
    {"sdsdot.naive", 0x1.1p+6, 0, 0, 58, 0, 0, 0x1.a2p+8, 0x98cfd2ab7eb0e6ccull},
    {"sdsdot.sched", 0x1.64p+6, 4, 0, 22, 0, 0, 0x1.b7p+8, 0x98cfd2ab7eb0e6ccull},
    {"dsdot.naive", 0x1.0ap+6, 0, 0, 57, 0, 0, 0x1.a08p+8, 0x3367261244badfedull},
    {"dsdot.sched", 0x1.5ep+6, 4, 0, 21, 0, 0, 0x1.b58p+8, 0x3367261244badfedull},
    {"sgemv_n.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.18ap+10, 0x5da07b4a9c98a62cull},
    {"sgemv_n.sched", 0x1.07p+8, 118, 0, 66, 0, 0, 0x1.e18p+9, 0x5da07b4a9c98a62cull},
    {"sgemv_t.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.18ap+10, 0x65252f6016a93b85ull},
    {"sgemv_t.sched", 0x1.cap+7, 130, 0, 104, 0, 0, 0x1.d08p+9, 0x65252f6016a93b85ull},
    {"sger.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.18ap+10, 0xc5187e27b1bf935dull},
    {"sger.sched", 0x1.21p+8, 170, 0, 92, 0, 0, 0x1.ee8p+9, 0xc5187e27b1bf935dull},
    {"ssymv_l.naive", 0x1.efp+7, 0, 0, 243, 0, 0, 0x1.93cp+9, 0xaf73f0dd5ad79cb7ull},
    {"ssymv_l.sched", 0x1.2ep+8, 27, 0, 186, 0, 0, 0x1.afp+9, 0x1acfc0cf9a12965eull},
    {"ssymv_u.naive", 0x1.efp+7, 0, 0, 243, 0, 0, 0x1.93cp+9, 0x34e6d477b45d27e7ull},
    {"ssymv_u.sched", 0x1.4c8p+8, 34, 0, 171, 0, 0, 0x1.be4p+9, 0x34e6d477b45d27e7ull},
    {"ssyr_l.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.484p+9, 0xa75e448bdededf49ull},
    {"ssyr_l.sched", 0x1.76p+7, 14, 0, 98, 0, 0, 0x1.528p+9, 0xa75e448bdededf49ull},
    {"ssyr_u.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.484p+9, 0x8e51325bb92ec179ull},
    {"ssyr_u.sched", 0x1.cbp+7, 21, 0, 96, 0, 0, 0x1.8acp+9, 0x8e51325bb92ec179ull},
    {"ssyr2_l.naive", 0x1.a7p+7, 0, 0, 225, 0, 0, 0x1.81cp+9, 0xa7b82fe7206aa2ccull},
    {"ssyr2_l.sched", 0x1.eap+7, 28, 0, 162, 0, 0, 0x1.928p+9, 0xa7b82fe7206aa2ccull},
    {"ssyr2_u.naive", 0x1.a7p+7, 0, 0, 225, 0, 0, 0x1.81cp+9, 0xe73bab4617813ef7ull},
    {"ssyr2_u.sched", 0x1.36p+8, 42, 0, 158, 0, 0, 0x1.d6p+9, 0xe73bab4617813ef7ull},
    {"strmv_lnn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.6b4p+9, 0xa29787140f83349full},
    {"strmv_lnn.sched", 0x1.bap+7, 26, 0, 94, 0, 0, 0x1.868p+9, 0xa29787140f83349full},
    {"strmv_lnu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.418p+9, 0x85c2305384cf1614ull},
    {"strmv_lnu.sched", 0x1.bp+7, 23, 0, 102, 0, 0, 0x1.61p+9, 0xc43075193a38d1f4ull},
    {"strmv_ltn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.6b4p+9, 0x3527e31375d65409ull},
    {"strmv_ltn.sched", 0x1.66p+7, 10, 0, 98, 0, 0, 0x1.718p+9, 0x3527e31375d65409ull},
    {"strmv_ltu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.418p+9, 0x82e56bd461cc9d5aull},
    {"strmv_ltu.sched", 0x1.54p+7, 5, 0, 106, 0, 0, 0x1.4ap+9, 0x82e56bd461cc9d5aull},
    {"strmv_unn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.6b4p+9, 0xa20591aeedc920f6ull},
    {"strmv_unn.sched", 0x1.f5p+7, 29, 0, 92, 0, 0, 0x1.b84p+9, 0xa20591aeedc920f6ull},
    {"strmv_unu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.418p+9, 0x49cc17aac5e04a55ull},
    {"strmv_unu.sched", 0x1.fp+7, 26, 0, 94, 0, 0, 0x1.71p+9, 0x9ffe9b75634fef35ull},
    {"strmv_utn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.6b4p+9, 0x18298bacfd61cb17ull},
    {"strmv_utn.sched", 0x1.adp+7, 15, 0, 96, 0, 0, 0x1.a64p+9, 0x18298bacfd61cb17ull},
    {"strmv_utu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.418p+9, 0xe339faa6857139d7ull},
    {"strmv_utu.sched", 0x1.9dp+7, 10, 0, 95, 0, 0, 0x1.5c4p+9, 0xe339faa6857139d7ull},
    {"strsv_lnn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.43cp+9, 0x2721b9fa38a116edull},
    {"strsv_lnn.sched", 0x1.bdp+7, 25, 0, 111, 0, 0, 0x1.644p+9, 0x2721b9fa38a116edull},
    {"strsv_lnu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.158p+9, 0xe6064f28272c052cull},
    {"strsv_lnu.sched", 0x1.9p+7, 25, 0, 84, 0, 0, 0x1.36p+9, 0xe6064f28272c052cull},
    {"strsv_ltn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.43cp+9, 0xf7e8dff665a8ef07ull},
    {"strsv_ltn.sched", 0x1.75p+7, 7, 0, 115, 0, 0, 0x1.524p+9, 0xf7e8dff665a8ef07ull},
    {"strsv_ltu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.158p+9, 0x222581f26bb2adceull},
    {"strsv_ltu.sched", 0x1.48p+7, 7, 0, 88, 0, 0, 0x1.24p+9, 0x222581f26bb2adceull},
    {"strsv_unn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.43cp+9, 0x5027e7a2143a4c99ull},
    {"strsv_unn.sched", 0x1.068p+8, 30, 0, 103, 0, 0, 0x1.784p+9, 0x5027e7a2143a4c99ull},
    {"strsv_unu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.158p+9, 0x4dd7389c210be4e1ull},
    {"strsv_unu.sched", 0x1.ep+7, 30, 0, 76, 0, 0, 0x1.4ap+9, 0x4dd7389c210be4e1ull},
    {"strsv_utn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.43cp+9, 0xb2bad6306ce14018ull},
    {"strsv_utn.sched", 0x1.bap+7, 14, 0, 104, 0, 0, 0x1.638p+9, 0xb2bad6306ce14018ull},
    {"strsv_utu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.158p+9, 0xbffbfe83bc1a2defull},
    {"strsv_utu.sched", 0x1.8dp+7, 14, 0, 77, 0, 0, 0x1.354p+9, 0xbffbfe83bc1a2defull},
    {"dgemv_n.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.b62p+10, 0x03a4295f013acc5cull},
    {"dgemv_n.sched", 0x1.32p+8, 151, 0, 86, 0, 0, 0x1.99p+10, 0x21d69cd29e3c3319ull},
    {"dgemv_t.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.b62p+10, 0xc8236e40704718f8ull},
    {"dgemv_t.sched", 0x1.4p+8, 195, 0, 156, 0, 0, 0x1.9c8p+10, 0xc8236e40704718f8ull},
    {"dger.naive", 0x1.a68p+8, 0, 0, 351, 0, 0, 0x1.b62p+10, 0x3051079788d802f6ull},
    {"dger.sched", 0x1.8dp+8, 255, 0, 138, 0, 0, 0x1.afcp+10, 0x3051079788d802f6ull},
    {"dsymv_l.naive", 0x1.efp+7, 0, 0, 243, 0, 0, 0x1.446p+10, 0x4a8099629d42604cull},
    {"dsymv_l.sched", 0x1.118p+8, 48, 0, 169, 0, 0, 0x1.4aep+10, 0xd64424458324fda5ull},
    {"dsymv_u.naive", 0x1.efp+7, 0, 0, 243, 0, 0, 0x1.32ep+10, 0xdd8d56576a519bd3ull},
    {"dsymv_u.sched", 0x1.528p+8, 62, 0, 171, 0, 0, 0x1.49ap+10, 0x2cb175f0390a59ccull},
    {"dsyr_l.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.0d2p+10, 0x9d7ebfdabb43b1b4ull},
    {"dsyr_l.sched", 0x1.79p+7, 42, 0, 93, 0, 0, 0x1.12ap+10, 0x9d7ebfdabb43b1b4ull},
    {"dsyr_u.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.f74p+9, 0x58a034e918ebae7aull},
    {"dsyr_u.sched", 0x1.108p+8, 63, 0, 102, 0, 0, 0x1.392p+10, 0x58a034e918ebae7aull},
    {"dsyr2_l.naive", 0x1.a7p+7, 0, 0, 225, 0, 0, 0x1.3b6p+10, 0x71ab7c38ebef9bd9ull},
    {"dsyr2_l.sched", 0x1.278p+8, 84, 0, 151, 0, 0, 0x1.506p+10, 0x71ab7c38ebef9bd9ull},
    {"dsyr2_u.naive", 0x1.a7p+7, 0, 0, 225, 0, 0, 0x1.29ep+10, 0xa791094a9ef88f02ull},
    {"dsyr2_u.sched", 0x1.c4p+8, 126, 0, 164, 0, 0, 0x1.89p+10, 0xa791094a9ef88f02ull},
    {"dtrmv_lnn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.302p+10, 0x508b36d7c38f7f13ull},
    {"dtrmv_lnn.sched", 0x1.84p+7, 38, 0, 88, 0, 0, 0x1.37p+10, 0xb23a71ca842cbbbeull},
    {"dtrmv_lnu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.09cp+10, 0x6d8f171a25df742eull},
    {"dtrmv_lnu.sched", 0x1.7ep+7, 32, 0, 92, 0, 0, 0x1.134p+10, 0xcd82875cb9e804a6ull},
    {"dtrmv_ltn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.302p+10, 0x4c06425cf880cf7cull},
    {"dtrmv_ltn.sched", 0x1.49p+7, 30, 0, 93, 0, 0, 0x1.2fap+10, 0x4c06425cf880cf7cull},
    {"dtrmv_ltu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.09cp+10, 0x987c70b3e9b8bd75ull},
    {"dtrmv_ltu.sched", 0x1.3p+7, 20, 0, 94, 0, 0, 0x1.098p+10, 0x987c70b3e9b8bd75ull},
    {"dtrmv_unn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.1eap+10, 0xb5d85ec318d965feull},
    {"dtrmv_unn.sched", 0x1.d9p+7, 47, 0, 92, 0, 0, 0x1.532p+10, 0xe887d2241a28e158ull},
    {"dtrmv_unu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.09cp+10, 0xb5ddf94c5e5112f4ull},
    {"dtrmv_unu.sched", 0x1.cep+7, 38, 0, 92, 0, 0, 0x1.1d4p+10, 0xecd6132888c38a84ull},
    {"dtrmv_utn.naive", 0x1.4dp+7, 0, 0, 135, 0, 0, 0x1.1eap+10, 0x9f84b5e9537675a9ull},
    {"dtrmv_utn.sched", 0x1.c7p+7, 45, 0, 102, 0, 0, 0x1.50ep+10, 0x9f84b5e9537675a9ull},
    {"dtrmv_utu.naive", 0x1.32p+7, 0, 0, 126, 0, 0, 0x1.09cp+10, 0x52ab8a4d2005be6aull},
    {"dtrmv_utu.sched", 0x1.9ep+7, 30, 0, 96, 0, 0, 0x1.174p+10, 0x52ab8a4d2005be6aull},
    {"dtrsv_lnn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.0aep+10, 0xb471a159d820778dull},
    {"dtrsv_lnn.sched", 0x1.9fp+7, 40, 0, 101, 0, 0, 0x1.176p+10, 0xe40497c5ca3fe2a7ull},
    {"dtrsv_lnu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.c48p+9, 0xa977392ffe852e16ull},
    {"dtrsv_lnu.sched", 0x1.72p+7, 40, 0, 74, 0, 0, 0x1.dd8p+9, 0xa977392ffe852e16ull},
    {"dtrsv_ltn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.0aep+10, 0x7c8535003e0b0809ull},
    {"dtrsv_ltn.sched", 0x1.65p+7, 28, 0, 103, 0, 0, 0x1.102p+10, 0x7c8535003e0b0809ull},
    {"dtrsv_ltu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.c48p+9, 0x1d90f39d7912937eull},
    {"dtrsv_ltu.sched", 0x1.38p+7, 28, 0, 76, 0, 0, 0x1.cfp+9, 0x1d90f39d7912937eull},
    {"dtrsv_unn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.f2cp+9, 0x6cdfaea02d847e17ull},
    {"dtrsv_unn.sched", 0x1.098p+8, 50, 0, 101, 0, 0, 0x1.146p+10, 0xf1e2c1db181b39c9ull},
    {"dtrsv_unu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.c48p+9, 0x0e8c14110448d8a7ull},
    {"dtrsv_unu.sched", 0x1.e6p+7, 50, 0, 74, 0, 0, 0x1.fa8p+9, 0xa5b62eade15b3a11ull},
    {"dtrsv_utn.naive", 0x1.3bp+7, 0, 0, 135, 0, 0, 0x1.f2cp+9, 0x0d5a5e6a32617860ull},
    {"dtrsv_utn.sched", 0x1.e3p+7, 42, 0, 105, 0, 0, 0x1.0e6p+10, 0x0d5a5e6a32617860ull},
    {"dtrsv_utu.naive", 0x1.0ep+7, 0, 0, 108, 0, 0, 0x1.c48p+9, 0xe7bbb9ff0368c3d0ull},
    {"dtrsv_utu.sched", 0x1.b6p+7, 42, 0, 78, 0, 0, 0x1.ee8p+9, 0xe7bbb9ff0368c3d0ull},
    {"sgemm.naive", 0x1.1dap+11, 0, 0, 1920, 0, 0, 0x1.a9ap+11, 0x116f9dd2fd406da1ull},
    {"sgemm.sched", 0x1.7ep+8, 272, 0, 192, 0, 0, 0x1.778p+10, 0x116f9dd2fd406da1ull},
    {"blur.naive", 0x1.5c34p+16, 0, 0, 67584, 2149, 0, 0x1.6a3p+17, 0x8f8a670bb220690eull},
    {"blur.sched", 0x1.5decp+15, 16896, 0, 8448, 2149, 0, 0x1.1391p+17, 0x8f8a670bb220690eull},
    {"unsharp.naive", 0x1.0443p+17, 0, 0, 92160, 3690, 0, 0x1.fc59p+17, 0x2437a436431eaebdull},
    {"unsharp.sched", 0x1.0d48p+16, 23040, 0, 11520, 3690, 0, 0x1.7ebap+17, 0x2437a436431eaebdull},
};
// clang-format on

struct Case
{
    std::string name;
    ProcPtr proc;
    verify::SizeEnv env;
    uint64_t seed;
};

std::vector<Case>
corpus()
{
    std::vector<Case> out;
    for (const auto& k : kernels::blas_level1()) {
        ProcPtr opt = sched::optimize_level_1(
            k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx2(),
            2);
        out.push_back({k.name + ".naive", k.proc, {{"n", 19}}, 1019});
        out.push_back({k.name + ".sched", opt, {{"n", 19}}, 1019});
    }
    for (const auto& k : kernels::blas_level2()) {
        ProcPtr opt = sched::optimize_level_2_general(
            k.proc, k.proc->find_loop(k.main_loop), k.prec, machine_avx2(),
            2, 2);
        verify::SizeEnv env;
        if (k.proc->find_arg("M"))
            env["M"] = 13;
        if (k.proc->find_arg("N"))
            env["N"] = 9;
        out.push_back({k.name + ".naive", k.proc, env, 2029});
        out.push_back({k.name + ".sched", opt, env, 2029});
    }
    ProcPtr sgemm = sched::sgemm_with_asserts(kernels::sgemm(), machine_avx2());
    verify::SizeEnv gemm_env = {{"M", 8}, {"N", 16}, {"K", 5}};
    out.push_back({"sgemm.naive", sgemm, gemm_env, 3031});
    out.push_back({"sgemm.sched", sched::schedule_sgemm(sgemm, machine_avx2()),
                   gemm_env, 3031});
    verify::SizeEnv img_env = {{"H", 32}, {"W", 256}};
    ProcPtr blur = kernels::blur();
    out.push_back({"blur.naive", blur, img_env, 4051});
    out.push_back({"blur.sched",
                   sched::schedule_blur_like_halide(blur, machine_avx2()),
                   img_env, 4051});
    ProcPtr unsharp = kernels::unsharp();
    out.push_back({"unsharp.naive", unsharp, img_env, 4051});
    out.push_back({"unsharp.sched",
                   sched::schedule_unsharp_like_halide(unsharp, machine_avx2()),
                   img_env, 4051});
    return out;
}

uint64_t
interp_hash(const Case& c)
{
    verify::OracleInputs in = verify::make_inputs(c.proc, c.env, c.seed);
    interp_run(c.proc, in.args);
    uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
    for (const auto& b : in.buffers) {
        h = cache::fnv1a64(b->data(),
                           static_cast<size_t>(b->size()) * sizeof(double), h);
    }
    return h;
}

std::string
row(const Golden& g)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\", %a, %" PRId64 ", %" PRId64 ", %" PRId64
                  ", %" PRId64 ", %" PRId64 ", %a, 0x%016" PRIx64 "ull},",
                  g.name, g.cycles, g.instr_calls, g.config_writes,
                  g.dram_accesses, g.l1_misses, g.l2_misses, g.cold_cycles,
                  g.interp_hash);
    return buf;
}

TEST(EvalGolden, CostAndInterpBitIdentical)
{
    EXPECT_EQ(kCostModelVersion, 1)
        << "cost model version changed: regenerate kGolden";
    std::map<std::string, const Golden*> table;
    for (const Golden& g : kGolden)
        table[g.name] = &g;
    std::vector<Case> cases = corpus();
    // 24 L1 + 50 L2 kernels, SGEMM, blur and unsharp; naive + scheduled.
    EXPECT_EQ(cases.size(), 2u * (24 + 50 + 3));
    std::string fresh;
    CostConfig cold;
    cold.warm = false;
    for (const Case& c : cases) {
        CostResult r = simulate_cost_named(c.proc, c.env);
        Golden got{c.name.c_str(),   r.cycles,        r.instr_calls,
                   r.config_writes,  r.dram_accesses, r.l1_misses,
                   r.l2_misses,
                   simulate_cost_named(c.proc, c.env, cold).cycles,
                   interp_hash(c)};
        fresh += row(got) + "\n";
        auto it = table.find(c.name);
        if (it == table.end()) {
            ADD_FAILURE() << "no golden entry for " << c.name;
            continue;
        }
        const Golden& g = *it->second;
        table.erase(it);
        bool same = g.cycles == got.cycles &&
                    g.instr_calls == got.instr_calls &&
                    g.config_writes == got.config_writes &&
                    g.dram_accesses == got.dram_accesses &&
                    g.l1_misses == got.l1_misses &&
                    g.l2_misses == got.l2_misses &&
                    g.cold_cycles == got.cold_cycles &&
                    g.interp_hash == got.interp_hash;
        if (!same) {
            ADD_FAILURE() << c.name << " drifted from its golden entry:\n"
                          << "  want " << row(g) << "\n  got  " << row(got);
        }
    }
    for (const auto& [name, g] : table)
        ADD_FAILURE() << "golden entry " << name << " not in the corpus";
    if (HasFailure())
        std::printf("Regenerated kGolden rows:\n%s", fresh.c_str());
}

}  // namespace
}  // namespace exo2
