/*
 * The system headers every native (AVX2/AVX-512) cjit unit starts with,
 * in the order codegen_c_unit emits them. The build precompiles this
 * header once per native flag set (cmake/exo2_pch.cmake) and cjit
 * passes `-include <dir>/exo2_native.h` for native units, so GCC loads
 * the precompiled immintrin.h instead of parsing it for every kernel.
 * The unit's own #includes then hit the headers' include guards; the
 * generated source and the built object are unchanged (DESIGN.md §7).
 */
#ifndef EXO2_NATIVE_H
#define EXO2_NATIVE_H

#include <stdbool.h>
#include <stdint.h>
#include <immintrin.h>

#endif
