// Raw GEMM tiles behind ops::gemm, exposed for the kernel oracle tests.
//
// Every tile computes C(m,n) = A(m,k) * B(k,n) on row-major buffers into a
// zero-filled C, with the exact arithmetic of the plain ikj loop: each
// c[i][j] starts at +0.0f and adds a[i][kk] * b[kk][j] in increasing kk,
// skipping terms whose a[i][kk] is zero. Only the order in which
// *different* outputs are computed changes, so results are bit-identical
// to the ikj loop (given no FP contraction; the library builds with
// -ffp-contract=off).
#pragma once

#include <cstddef>

namespace advh::ops::detail {

using gemm_fn = void (*)(const float* a, const float* b, float* c,
                         std::size_t m, std::size_t n, std::size_t k);

/// 4x8 register tile over 16-byte GCC vectors; any x86-64 or other target.
void gemm_portable(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t n, std::size_t k);

/// 4x16 register tile over 32-byte vectors, compiled for AVX2 (without
/// FMA). Call only when cpu_has_avx2().
void gemm_avx2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k);

/// CPUID check; false on non-x86 targets.
bool cpu_has_avx2() noexcept;

/// The tile ops::gemm uses on this CPU, chosen once.
gemm_fn selected_gemm() noexcept;

}  // namespace advh::ops::detail
