// Compile-time and runtime gates for the batched decoder's AVX-512 vector
// fast path (core/decoder.hpp, KernelBatchDecoder::run_vector).
//
// GAPLAN_AVX512_DECODE is 1 when the toolchain can *compile* the vector step
// (x86-64 + GCC/Clang function-level target attributes); whether the running
// CPU can *execute* it is a separate runtime check, has_avx512_decode(), so
// one binary serves both AVX-512 and older x86-64 machines.
//
// Domain kernels that expose the 8-lane hooks (see HanoiKernel::lut_index8)
// include this header instead of <immintrin.h> directly so every vector
// function in the tree agrees on the same ISA subset list.
#pragma once

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GAPLAN_AVX512_DECODE 1
#include <immintrin.h>

// The exact subset list the vector decode step needs: F (core ops + gathers
// and scatters), DQ (u64<->double converts, 64-bit mullo, movm), CD (per-lane
// lzcnt), VPOPCNTDQ (per-lane popcount). Functions carrying this attribute
// may use those ISAs freely but MUST only be called behind
// util::has_avx512_decode().
#define GAPLAN_AVX512_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512cd,avx512vpopcntdq")))

// GCC 12 reports -Wmaybe-uninitialized, or -Wuninitialized when it is sure,
// inside <avx512fintrin.h> itself (the self-initialised `__Y` of
// _mm512_undefined_epi32) wherever a vector function inlines an intrinsic
// built on it, so no -Werror build could compile the vector step. The vector
// step and the kernels' 8-lane hooks sit between these two; nothing else is
// exempt.
#if defined(__GNUC__) && !defined(__clang__)
#define GAPLAN_AVX512_WARNINGS_BEGIN                               \
  _Pragma("GCC diagnostic push")                                   \
      _Pragma("GCC diagnostic ignored \"-Wuninitialized\"")        \
          _Pragma("GCC diagnostic ignored \"-Wmaybe-uninitialized\"")
#define GAPLAN_AVX512_WARNINGS_END _Pragma("GCC diagnostic pop")
#else
#define GAPLAN_AVX512_WARNINGS_BEGIN
#define GAPLAN_AVX512_WARNINGS_END
#endif

namespace gaplan::util {

/// True when the running CPU supports every AVX-512 subset named in
/// GAPLAN_AVX512_TARGET. Resolved once, then a load.
inline bool has_avx512_decode() noexcept {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512dq") &&
                         __builtin_cpu_supports("avx512cd") &&
                         __builtin_cpu_supports("avx512vpopcntdq");
  return ok;
}

}  // namespace gaplan::util

#else
#define GAPLAN_AVX512_DECODE 0

namespace gaplan::util {

inline bool has_avx512_decode() noexcept { return false; }

}  // namespace gaplan::util

#endif
