#include "nn/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

// The AVX2 clone needs GCC's target attribute and cpuid builtins on x86.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define MIRAS_KERNELS_AVX2 1
#else
#define MIRAS_KERNELS_AVX2 0
#endif

namespace miras::nn::kern {
namespace {

// Each body is written once and inlined into one wrapper per build; the
// wrappers below differ only in their target attribute and in V, the
// vector of consecutive output elements their lanes span: two doubles
// (one SSE2 register) in the baseline build, four (one AVX register) in the
// AVX2 clone. Lanes only ever span output columns and every lane
// multiplies and adds on its own, so the lane count cannot change a bit.
using v2d = double __attribute__((vector_size(16)));
using v2i = long long __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));
using v4i = long long __attribute__((vector_size(32)));

// The v4d helpers inline into the AVX2 clone only; no AVX vector ever
// crosses a call, so the ABI note GCC attaches to them does not apply.
#pragma GCC diagnostic ignored "-Wpsabi"

template <class V>
inline constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

template <class V>
[[gnu::always_inline]] inline V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// In place: r[q] becomes column q of the square block whose rows were r.
[[gnu::always_inline]] inline void transpose(v2d (&r)[2]) {
  const v2d t0 = __builtin_shuffle(r[0], r[1], v2i{0, 2});
  const v2d t1 = __builtin_shuffle(r[0], r[1], v2i{1, 3});
  r[0] = t0;
  r[1] = t1;
}

[[gnu::always_inline]] inline void transpose(v4d (&r)[4]) {
  const v4d even01 = __builtin_shuffle(r[0], r[1], v4i{0, 4, 2, 6});
  const v4d odd01 = __builtin_shuffle(r[0], r[1], v4i{1, 5, 3, 7});
  const v4d even23 = __builtin_shuffle(r[2], r[3], v4i{0, 4, 2, 6});
  const v4d odd23 = __builtin_shuffle(r[2], r[3], v4i{1, 5, 3, 7});
  r[0] = __builtin_shuffle(even01, even23, v4i{0, 1, 4, 5});
  r[1] = __builtin_shuffle(odd01, odd23, v4i{0, 1, 4, 5});
  r[2] = __builtin_shuffle(even01, even23, v4i{2, 3, 6, 7});
  r[3] = __builtin_shuffle(odd01, odd23, v4i{2, 3, 6, 7});
}

// The zero-skip runs once per reduction step, not once per column block:
// each chunk of p first lists the steps that are not skipped (without a
// branch), and every column block then walks that list. The same steps are
// skipped, in the same ascending order, as a per-step `continue` would.
constexpr std::size_t kChunk = 128;

template <class V>
[[gnu::always_inline]] inline void gemv_body(const double* a, const double* w,
                                             double* out, std::size_t k,
                                             std::size_t n) {
  // Sixteen columns at a time accumulate in registers over a chunk; the
  // columns left over accumulate in `out` directly.
  constexpr std::size_t kBlock = 16;
  constexpr std::size_t kVectors = kBlock / kLanes<V>;
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  std::uint32_t live[kChunk];
  for (std::size_t p0 = 0; p0 < k; p0 += kChunk) {
    const std::size_t p1 = std::min(k, p0 + kChunk);
    std::size_t count = 0;
    for (std::size_t p = p0; p < p1; ++p) {
      // ReLU activations zero whole input columns often enough to pay.
      live[count] = static_cast<std::uint32_t>(p);
      count += a[p] != 0.0;
    }
    std::size_t j0 = 0;
    for (; j0 + kBlock <= n; j0 += kBlock) {
      V c[kVectors];
      for (std::size_t q = 0; q < kVectors; ++q)
        c[q] = load<V>(out + j0 + q * kLanes<V>);
      for (std::size_t e = 0; e < count; ++e) {
        const std::size_t p = live[e];
        const double* w_row = w + p * n + j0;
        for (std::size_t q = 0; q < kVectors; ++q)
          c[q] += a[p] * load<V>(w_row + q * kLanes<V>);
      }
      for (std::size_t q = 0; q < kVectors; ++q)
        store(out + j0 + q * kLanes<V>, c[q]);
    }
    for (std::size_t e = 0; e < count && j0 < n; ++e) {
      const std::size_t p = live[e];
      const double* w_row = w + p * n;
      for (std::size_t j = j0; j < n; ++j) out[j] += a[p] * w_row[j];
    }
  }
}

template <class V, auto Gemv>
[[gnu::always_inline]] inline void gemm_body(const double* a, const double* b,
                                             double* out, std::size_t m,
                                             std::size_t k, std::size_t n) {
  // Four rows of A advance together, so each streamed row of B is loaded
  // once and reused four times; two vectors of columns per row accumulate
  // in registers over a chunk, the columns left over in `out` directly.
  // Per-element accumulation still runs p ascending, so results are
  // bit-identical to the plain i-k-j loop (batch results must not depend
  // on layout).
  constexpr std::size_t kL = kLanes<V>;
  std::uint32_t live[kChunk];
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + (i + 0) * k;
    const double* a1 = a + (i + 1) * k;
    const double* a2 = a + (i + 2) * k;
    const double* a3 = a + (i + 3) * k;
    double* o0 = out + (i + 0) * n;
    double* o1 = out + (i + 1) * n;
    double* o2 = out + (i + 2) * n;
    double* o3 = out + (i + 3) * n;
    for (std::size_t j = 0; j < 4 * n; ++j) o0[j] = 0.0;  // rows i..i+3
    for (std::size_t p0 = 0; p0 < k; p0 += kChunk) {
      const std::size_t p1 = std::min(k, p0 + kChunk);
      std::size_t count = 0;
      for (std::size_t p = p0; p < p1; ++p) {
        // ReLU activations zero whole columns often enough to pay.
        live[count] = static_cast<std::uint32_t>(p);
        count += !(a0[p] == 0.0 && a1[p] == 0.0 && a2[p] == 0.0 &&
                   a3[p] == 0.0);
      }
      std::size_t j0 = 0;
      for (; j0 + 2 * kL <= n; j0 += 2 * kL) {
        V c00 = load<V>(o0 + j0), c01 = load<V>(o0 + j0 + kL);
        V c10 = load<V>(o1 + j0), c11 = load<V>(o1 + j0 + kL);
        V c20 = load<V>(o2 + j0), c21 = load<V>(o2 + j0 + kL);
        V c30 = load<V>(o3 + j0), c31 = load<V>(o3 + j0 + kL);
        for (std::size_t e = 0; e < count; ++e) {
          const std::size_t p = live[e];
          const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
          const V b0 = load<V>(b + p * n + j0);
          const V b1 = load<V>(b + p * n + j0 + kL);
          c00 += v0 * b0;
          c01 += v0 * b1;
          c10 += v1 * b0;
          c11 += v1 * b1;
          c20 += v2 * b0;
          c21 += v2 * b1;
          c30 += v3 * b0;
          c31 += v3 * b1;
        }
        store(o0 + j0, c00);
        store(o0 + j0 + kL, c01);
        store(o1 + j0, c10);
        store(o1 + j0 + kL, c11);
        store(o2 + j0, c20);
        store(o2 + j0 + kL, c21);
        store(o3 + j0, c30);
        store(o3 + j0 + kL, c31);
      }
      for (std::size_t e = 0; e < count && j0 < n; ++e) {
        const std::size_t p = live[e];
        const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
        const double* b_row = b + p * n;
        for (std::size_t j = j0; j < n; ++j) {
          const double bv = b_row[j];
          o0[j] += v0 * bv;
          o1[j] += v1 * bv;
          o2[j] += v2 * bv;
          o3[j] += v3 * bv;
        }
      }
    }
  }
  // Leftover rows (all of them when m < 4) run the GEMV, which zeroes its
  // own row, so no output row is written twice before accumulation.
  for (; i < m; ++i) Gemv(a + i * k, b, out + i * n, k, n);
}

[[gnu::always_inline]] inline void gemm_tn_body(const double* a,
                                                const double* b, double* out,
                                                std::size_t k, std::size_t m,
                                                std::size_t n) {
  // Eight reduction steps (p) advance together so each pass over the m x n
  // output does eight accumulations' worth of work — the output matrix is
  // the large operand here (dW is in_dim x out_dim), so sweeping it once
  // per p would be pure memory traffic. Each element still accumulates its
  // p-contributions in ascending order.
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const double* a0 = a + (p + 0) * m;
    const double* a1 = a + (p + 1) * m;
    const double* a2 = a + (p + 2) * m;
    const double* a3 = a + (p + 3) * m;
    const double* a4 = a + (p + 4) * m;
    const double* a5 = a + (p + 5) * m;
    const double* a6 = a + (p + 6) * m;
    const double* a7 = a + (p + 7) * m;
    const double* b0 = b + (p + 0) * n;
    const double* b1 = b + (p + 1) * n;
    const double* b2 = b + (p + 2) * n;
    const double* b3 = b + (p + 3) * n;
    const double* b4 = b + (p + 4) * n;
    const double* b5 = b + (p + 5) * n;
    const double* b6 = b + (p + 6) * n;
    const double* b7 = b + (p + 7) * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
      const double v4 = a4[i], v5 = a5[i], v6 = a6[i], v7 = a7[i];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 && v4 == 0.0 &&
          v5 == 0.0 && v6 == 0.0 && v7 == 0.0) {
        continue;
      }
      double* out_row = out + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        double acc = out_row[j];
        acc += v0 * b0[j];
        acc += v1 * b1[j];
        acc += v2 * b2[j];
        acc += v3 * b3[j];
        acc += v4 * b4[j];
        acc += v5 * b5[j];
        acc += v6 * b6[j];
        acc += v7 * b7[j];
        out_row[j] = acc;
      }
    }
  }
  for (; p < k; ++p) {
    const double* a_row = a + p * m;
    const double* b_row = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double v = a_row[i];
      if (v == 0.0) continue;
      double* out_row = out + i * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += v * b_row[j];
    }
  }
}

[[gnu::always_inline]] inline double dot(const double* a_row,
                                         const double* b_row, std::size_t k) {
  double acc = 0.0;
  for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
  return acc;
}

template <class V>
[[gnu::always_inline]] inline void gemm_nt_body(const double* a,
                                                const double* b, double* out,
                                                std::size_t m, std::size_t k,
                                                std::size_t n) {
  // 4x4 register blocking: four rows of A against four rows of B (columns
  // of B^T) at once, so each B row loaded from cache feeds four output
  // rows — without it every output row re-streams the whole B matrix (for
  // dX = grad * W^T that is the full weight matrix per batch row). B
  // arrives as square kL x kL blocks transposed in registers, so the lanes
  // are output columns and each of the 16 dot products still sums from
  // zero in ascending p, bit-identical to the scalar loop.
  constexpr std::size_t kL = kLanes<V>;
  constexpr std::size_t kG = 4 / kL;  // vectors per four output columns
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a_rows[4];
    double* o_rows[4];
    for (std::size_t r = 0; r < 4; ++r) {
      a_rows[r] = a + (i + r) * k;
      o_rows[r] = out + (i + r) * n;
    }
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      V c[4][kG] = {};  // c[r][g]: row i + r, columns j + g * kL onwards
      std::size_t p = 0;
      for (; p + kL <= k; p += kL) {
        V t[kG][kL];  // after the transpose, t[g][q] holds column p + q
        for (std::size_t g = 0; g < kG; ++g) {
          for (std::size_t q = 0; q < kL; ++q)
            t[g][q] = load<V>(b + (j + g * kL + q) * k + p);
          transpose(t[g]);
        }
        for (std::size_t q = 0; q < kL; ++q)
          for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t g = 0; g < kG; ++g)
              c[r][g] += a_rows[r][p + q] * t[g][q];
      }
      for (; p < k; ++p) {
        for (std::size_t g = 0; g < kG; ++g) {
          V t{};
          for (std::size_t q = 0; q < kL; ++q)
            t[q] = b[(j + g * kL + q) * k + p];
          for (std::size_t r = 0; r < 4; ++r) c[r][g] += a_rows[r][p] * t;
        }
      }
      for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t g = 0; g < kG; ++g)
          store(o_rows[r] + j + g * kL, c[r][g]);
    }
    for (; j < n; ++j)
      for (std::size_t r = 0; r < 4; ++r)
        o_rows[r][j] = dot(a_rows[r], b + j * k, k);
  }
  for (; i < m; ++i) {
    const double* a_row = a + i * k;
    double* out_row = out + i * n;
    for (std::size_t j = 0; j < n; ++j) out_row[j] = dot(a_row, b + j * k, k);
  }
}

// The baseline build. gemv is out of line on purpose: inlined into gemm's
// row tail, GCC 12 -O3 compiles its loop ~1.5x slower (measured on a
// 1x256x256 product).
[[gnu::noinline]] void gemv_baseline(const double* a, const double* w,
                                     double* out, std::size_t k,
                                     std::size_t n) {
  gemv_body<v2d>(a, w, out, k, n);
}
void gemm_baseline(const double* a, const double* b, double* out,
                   std::size_t m, std::size_t k, std::size_t n) {
  gemm_body<v2d, gemv_baseline>(a, b, out, m, k, n);
}
void gemm_tn_baseline(const double* a, const double* b, double* out,
                      std::size_t k, std::size_t m, std::size_t n) {
  gemm_tn_body(a, b, out, k, m, n);
}
void gemm_nt_baseline(const double* a, const double* b, double* out,
                      std::size_t m, std::size_t k, std::size_t n) {
  gemm_nt_body<v2d>(a, b, out, m, k, n);
}

constexpr KernelSet kBaseline{"baseline", gemv_baseline, gemm_baseline,
                              gemm_tn_baseline, gemm_nt_baseline};

#if MIRAS_KERNELS_AVX2
// The AVX2 clone: "avx2" alone leaves FMA off, and this file is compiled
// with -ffp-contract=off, so every multiply and add rounds on its own.
[[gnu::noinline, gnu::target("avx2")]] void gemv_avx2(const double* a,
                                                      const double* w,
                                                      double* out,
                                                      std::size_t k,
                                                      std::size_t n) {
  gemv_body<v4d>(a, w, out, k, n);
}
[[gnu::target("avx2")]] void gemm_avx2(const double* a, const double* b,
                                       double* out, std::size_t m,
                                       std::size_t k, std::size_t n) {
  gemm_body<v4d, gemv_avx2>(a, b, out, m, k, n);
}
[[gnu::target("avx2")]] void gemm_tn_avx2(const double* a, const double* b,
                                          double* out, std::size_t k,
                                          std::size_t m, std::size_t n) {
  gemm_tn_body(a, b, out, k, m, n);
}
[[gnu::target("avx2")]] void gemm_nt_avx2(const double* a, const double* b,
                                          double* out, std::size_t m,
                                          std::size_t k, std::size_t n) {
  gemm_nt_body<v4d>(a, b, out, m, k, n);
}

constexpr KernelSet kAvx2{"avx2", gemv_avx2, gemm_avx2, gemm_tn_avx2,
                          gemm_nt_avx2};

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

}  // namespace

const KernelSet& baseline_kernels() { return kBaseline; }

const KernelSet* avx2_kernels() {
#if MIRAS_KERNELS_AVX2
  static const bool supported = cpu_has_avx2();
  return supported ? &kAvx2 : nullptr;
#else
  return nullptr;
#endif
}

const KernelSet& active_kernels() {
  static const KernelSet& active =
      avx2_kernels() != nullptr ? *avx2_kernels() : kBaseline;
  return active;
}

void gemv(const double* a, const double* w, double* out, std::size_t k,
          std::size_t n) {
  active_kernels().gemv(a, w, out, k, n);
}

void gemm(const double* a, const double* b, double* out, std::size_t m,
          std::size_t k, std::size_t n) {
  active_kernels().gemm(a, b, out, m, k, n);
}

void gemm_tn(const double* a, const double* b, double* out, std::size_t k,
             std::size_t m, std::size_t n) {
  active_kernels().gemm_tn(a, b, out, k, m, n);
}

void gemm_nt(const double* a, const double* b, double* out, std::size_t m,
             std::size_t k, std::size_t n) {
  active_kernels().gemm_nt(a, b, out, m, k, n);
}

}  // namespace miras::nn::kern
