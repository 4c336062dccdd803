// Raw matmul microkernels behind Tensor's products: one dispatch point for
// the four contractions the network stack runs.
//
//   gemv     out = a w          one row (single-request inference)
//   gemm     out = a b          4-row blocked (batched forward)
//   gemm_tn  out += a^T b       the weight gradient dW = X^T dY
//   gemm_nt  out = a b^T        the input gradient dX = dY W^T
//
// One reduction order: every output element accumulates its contributions
// in ascending reduction-index (p) order, so a GEMM row is bit-identical to
// that row pushed through the GEMV alone and to the plain i-k-j loop.
// `gemm` advances four rows of A together (wider row blocking was measured
// and rejected: at 512-wide layers an 8-row block's output working set
// alone fills a 32 KB L1 and runs ~2.7x slower than 4-row) and hands its
// leftover rows to `gemv`. DESIGN.md §5 has the measurement any
// split-accumulator kernel must beat.
//
// Two builds of the same source, one cpuid check. Every contraction is
// compiled twice from one body: the baseline build (SSE2 on x86-64) and an
// AVX2 clone compiled without FMA and with -ffp-contract=off. Vectors only
// ever span output elements, each lane keeps its own ascending-p chain of
// separately rounded multiplies and adds, and the zero-skips test the same
// inputs, so the two builds agree bit for bit. A fused multiply-add rounds
// once where the pair rounds twice and would change the bits; the build
// fails a test if one appears in this object. The set the free functions
// run is chosen once, on first use, by cpuid alone.
//
// The kernels assume finite inputs (the zero-skip fast paths drop
// 0 * non-finite terms that a skipless kernel would propagate as NaN);
// serve::require_finite_observation enforces this for outside requests.
// `out` must not alias the inputs.
#pragma once

#include <cstddef>

namespace miras::nn::kern {

/// out[j] = sum_p a[p] * w[p * n + j], p ascending. a is 1 x k, w is k x n.
/// `out` is fully written; callers need not zero it.
void gemv(const double* a, const double* w, double* out, std::size_t k,
          std::size_t n);

/// out = a * b with a m x k, b k x n; 4-row register blocking, ascending
/// per-element accumulation, row for row bit-identical to gemv(). `out` is
/// fully written.
void gemm(const double* a, const double* b, double* out, std::size_t m,
          std::size_t k, std::size_t n);

/// out += a^T * b with a k x m, b k x n and out m x n: each element adds
/// its products onto its prior value in ascending p. Zero `out` first for
/// the plain product.
void gemm_tn(const double* a, const double* b, double* out, std::size_t k,
             std::size_t m, std::size_t n);

/// out = a * b^T with a m x k, b n x k and out m x n: each element is one
/// dot product summed in ascending p from zero. `out` is fully written.
void gemm_nt(const double* a, const double* b, double* out, std::size_t m,
             std::size_t k, std::size_t n);

/// One build of the four contractions, with the signatures above.
struct KernelSet {
  const char* name;
  void (*gemv)(const double*, const double*, double*, std::size_t,
               std::size_t);
  void (*gemm)(const double*, const double*, double*, std::size_t,
               std::size_t, std::size_t);
  void (*gemm_tn)(const double*, const double*, double*, std::size_t,
                  std::size_t, std::size_t);
  void (*gemm_nt)(const double*, const double*, double*, std::size_t,
                  std::size_t, std::size_t);
};

/// The baseline build, which every CPU of the target runs (SSE2 on x86-64).
const KernelSet& baseline_kernels();

/// The AVX2 (no FMA) clone, or nullptr when this CPU or build has none.
const KernelSet* avx2_kernels();

/// The set the free functions run: the AVX2 clone where cpuid reports AVX2,
/// else the baseline. Resolved once.
const KernelSet& active_kernels();

}  // namespace miras::nn::kern
