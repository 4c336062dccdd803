#include "nn/kernels.h"

namespace miras::nn::kern {

// Out of line on purpose: inlined into gemm's row tail, GCC 12 -O3 compiles
// this loop ~1.5x slower (measured on a 1x256x256 product).
[[gnu::noinline]] void gemv(const double* a, const double* w, double* out,
                            std::size_t k, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    const double v = a[p];
    // ReLU activations zero whole input columns often enough to pay for this.
    if (v == 0.0) continue;
    const double* w_row = w + p * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += v * w_row[j];
  }
}

void gemm(const double* a, const double* b, double* out, std::size_t m,
          std::size_t k, std::size_t n) {
  // Register-blocked inner loop: four rows of A advance together, so each
  // streamed row of B is loaded once and reused four times. Per-element
  // accumulation still runs p ascending, so results are bit-identical to
  // the plain i-k-j loop (batch results must not depend on layout).
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
    for (std::size_t p = 0; p < k; ++p) {
      const double v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      // ReLU activations zero whole columns often enough to pay for this.
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      const double* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        const double bv = b_row[j];
        o0[j] += v0 * bv;
        o1[j] += v1 * bv;
        o2[j] += v2 * bv;
        o3[j] += v3 * bv;
      }
    }
  }
  // Leftover rows (all of them when m < 4) run the GEMV, which zeroes its
  // own row, so no output row is written twice before accumulation.
  for (; i < m; ++i) gemv(a + i * k, b, out + i * n, k, n);
}

}  // namespace miras::nn::kern
