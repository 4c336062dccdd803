// Raw matmul microkernels behind Tensor::matmul_into.
//
// One kernel family, one reduction order: `gemv` (one row) and the
// row-blocked `gemm` both accumulate every output element's contributions
// in ascending reduction-index (p) order, so a GEMM row is bit-identical
// to that row pushed through the GEMV alone and to the plain i-k-j loop.
// `gemm` advances four rows of A together (wider row blocking was
// measured and rejected: at 512-wide layers an 8-row block's output
// working set alone fills a 32 KB L1 and runs ~2.7x slower than 4-row)
// and hands its leftover rows to `gemv`. DESIGN.md §5 has the measurement
// any split-accumulator kernel must beat.
//
// Both kernels assume finite inputs (the zero-skip fast paths drop
// 0 * non-finite terms that a skipless kernel would propagate as NaN);
// serve::require_finite_observation enforces this for outside requests.
// `out` must not alias `a` or `w`/`b` and is fully written; callers need
// not zero it.
#pragma once

#include <cstddef>

namespace miras::nn::kern {

/// out[j] = sum_p a[p] * w[p * n + j], p ascending. a is 1 x k, w is k x n.
void gemv(const double* a, const double* w, double* out, std::size_t k,
          std::size_t n);

/// out = a * b with a m x k, b k x n; 4-row register blocking, ascending
/// per-element accumulation, row for row bit-identical to gemv().
void gemm(const double* a, const double* b, double* out, std::size_t m,
          std::size_t k, std::size_t n);

}  // namespace miras::nn::kern
