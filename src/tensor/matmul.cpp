#include "tensor/matmul.hpp"

#include <cstring>

#include "common/error.hpp"
#include "tensor/matmul_detail.hpp"

namespace advh::ops {

namespace {
void check_rank2(const tensor& t, const char* name) {
  ADVH_CHECK_MSG(t.dims().rank() == 2, std::string(name) + " must be rank 2");
}

// Rows [0, m) x columns [j0, n) of C in ikj order: the tiles' right edge.
void gemm_ikj(const float* a, const float* b, float* c, std::size_t m,
              std::size_t n, std::size_t k, std::size_t j0) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;  // sparsity fast-path (post-ReLU inputs)
      const float* brow = b + kk * n;
      for (std::size_t j = j0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// An MR x NR block of C held in vector registers for the whole k loop.
// Each lane adds its products in increasing kk exactly as gemm_ikj does,
// so only the order across outputs differs. B's NR-wide panel is loaded
// once per kk and shared by the MR rows.
template <class V, std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void tile(const float* a, const float* b,
                                        float* c, std::size_t n,
                                        std::size_t k, std::size_t i0,
                                        std::size_t j0) {
  constexpr std::size_t lanes = sizeof(V) / sizeof(float);
  constexpr std::size_t nv = NR / lanes;
  static_assert(NR % lanes == 0);
  V acc[MR][nv] = {};
  const float* arow = a + i0 * k;
  for (std::size_t kk = 0; kk < k; ++kk) {
    V bv[nv];
    const float* brow = b + kk * n + j0;
#pragma GCC unroll 8
    for (std::size_t v = 0; v < nv; ++v) {
      std::memcpy(&bv[v], brow + v * lanes, sizeof(V));
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = arow[r * k + kk];
      if (av == 0.0f) continue;
#pragma GCC unroll 8
      for (std::size_t v = 0; v < nv; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::size_t v = 0; v < nv; ++v) {
      std::memcpy(crow + v * lanes, &acc[r][v], sizeof(V));
    }
  }
}

// Rows [i0, i1) of one column panel: MR-row tiles, then halving tile
// heights for the leftover rows.
template <class V, std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void row_blocks(const float* a, const float* b,
                                              float* c, std::size_t n,
                                              std::size_t k, std::size_t i0,
                                              std::size_t i1, std::size_t j0) {
  for (; i0 + MR <= i1; i0 += MR) tile<V, MR, NR>(a, b, c, n, k, i0, j0);
  if constexpr (MR > 1) row_blocks<V, MR / 2, NR>(a, b, c, n, k, i0, i1, j0);
}

// Column panels outermost so one k x NR panel of B stays in L1 while every
// row block of A passes over it. Returns the first column left to the ikj
// edge loop.
template <class V, std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline std::size_t panels(const float* a,
                                                 const float* b, float* c,
                                                 std::size_t m, std::size_t n,
                                                 std::size_t k) {
  const std::size_t n_full = n - n % NR;
  for (std::size_t j0 = 0; j0 < n_full; j0 += NR) {
    row_blocks<V, MR, NR>(a, b, c, n, k, 0, m, j0);
  }
  return n_full;
}

using v4f = float __attribute__((vector_size(16)));
#if defined(__x86_64__) || defined(__i386__)
using v8f = float __attribute__((vector_size(32)));
#endif
}  // namespace

namespace detail {

void gemm_portable(const float* a, const float* b, float* c, std::size_t m,
                   std::size_t n, std::size_t k) {
  gemm_ikj(a, b, c, m, n, k, panels<v4f, 4, 8>(a, b, c, m, n, k));
}

#if defined(__x86_64__) || defined(__i386__)
namespace {
// target("avx2") only: adding "fma" would let the compiler fuse the
// multiply-add and round once instead of twice.
__attribute__((target("avx2"))) std::size_t avx2_panels(
    const float* a, const float* b, float* c, std::size_t m, std::size_t n,
    std::size_t k) {
  const std::size_t n_full = panels<v8f, 4, 16>(a, b, c, m, n, k);
  // GCC emits no vzeroupper for this target-attribute function; dirty
  // upper ymm halves would slow every SSE instruction that runs after it.
  __builtin_ia32_vzeroupper();
  return n_full;
}
}  // namespace

void gemm_avx2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k) {
  gemm_ikj(a, b, c, m, n, k, avx2_panels(a, b, c, m, n, k));
}

bool cpu_has_avx2() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#else
void gemm_avx2(const float* a, const float* b, float* c, std::size_t m,
               std::size_t n, std::size_t k) {
  gemm_portable(a, b, c, m, n, k);
}

bool cpu_has_avx2() noexcept { return false; }
#endif

gemm_fn selected_gemm() noexcept {
  static const gemm_fn fn = cpu_has_avx2() ? gemm_avx2 : gemm_portable;
  return fn;
}

}  // namespace detail

void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t n, std::size_t k) {
  detail::selected_gemm()(a, b, c, m, n, k);
}

tensor matmul(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[0] == k, "inner dimensions must agree");
  const std::size_t n = b.dims()[1];

  tensor c(shape{m, n});
  gemm(a.data().data(), b.data().data(), c.data().data(), m, n, k);
  return c;
}

tensor matmul_at_b(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[0] == m, "outer dimensions must agree");
  const std::size_t n = b.dims()[1];

  tensor c(shape{k, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* crow = pc + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

tensor matmul_a_bt(const tensor& a, const tensor& b) {
  check_rank2(a, "a");
  check_rank2(b, "b");
  const std::size_t m = a.dims()[0];
  const std::size_t k = a.dims()[1];
  ADVH_CHECK_MSG(b.dims()[1] == k, "inner dimensions must agree");
  const std::size_t n = b.dims()[0];

  tensor c(shape{m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * brow[kk];
      }
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace advh::ops
