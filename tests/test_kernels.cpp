// Parity tests for the matmul microkernels (nn/kernels.h).
//
// The load-bearing property: there is one kernel family with one
// reduction order. Every GEMM row and the GEMV on that row equal a plain
// ascending i-k-j loop bit for bit, zero-skip rows included, so batched
// inference is bitwise equal to row-at-a-time inference (the tensor.h
// invariant) and every golden file holds in every build.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace miras::nn {
namespace {

struct Shape {
  std::size_t m, k, n;
};

// Ragged shapes exercising every tail path: m%4 row tails (including
// m < 4, which is all tail), k and n tails, degenerate singletons.
const Shape kShapes[] = {
    {1, 1, 1},   {1, 3, 5},   {1, 4, 8},    {1, 5, 7},   {1, 129, 40},
    {2, 8, 16},  {3, 5, 7},   {4, 17, 9},   {5, 31, 33}, {7, 64, 12},
    {8, 129, 40}, {9, 24, 12}, {16, 33, 31}, {13, 7, 3},
};

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.normal() * 2.0;
  // Sprinkle exact zeros: the kernels have zero-skip fast paths and parity
  // must hold through them.
  for (std::size_t i = 0; i < m.size(); i += 7) m[i] = 0.0;
  return m;
}

/// The reference order: out[i][j] = sum_p a[i][p] * b[p][j], p ascending,
/// with no skips and no blocking.
std::vector<double> ascending_ikj(const std::vector<double>& a,
                                  const std::vector<double>& b, std::size_t m,
                                  std::size_t k, std::size_t n) {
  std::vector<double> out(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t p = 0; p < k; ++p)
      for (std::size_t j = 0; j < n; ++j)
        out[i * n + j] += a[i * k + p] * b[p * n + j];
  return out;
}

struct Case {
  std::vector<double> a, w, expected;
};

/// Random operands for one shape, with the zero-skip paths forced: a zero
/// column makes the GEMM's whole-block skip fire at p = 0, and an all-zero
/// row makes the GEMV skip every term of that row.
Case make_case(const Shape& s, Rng& rng) {
  Case c;
  c.a = random_matrix(s.m, s.k, rng);
  for (std::size_t r = 0; r < s.m; ++r) c.a[r * s.k] = 0.0;
  if (s.m >= 2)
    for (std::size_t p = 0; p < s.k; ++p) c.a[1 * s.k + p] = 0.0;
  c.w = random_matrix(s.k, s.n, rng);
  c.expected = ascending_ikj(c.a, c.w, s.m, s.k, s.n);
  return c;
}

// Every build runs the one kernel family; the GEMV that Tensor::matmul_into
// reaches for single rows equals the ascending loop on every row.
TEST(Kernels, DispatchMatchesScalarBitwiseInDefaultBuild) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const Case c = make_case(s, rng);
    for (std::size_t r = 0; r < s.m; ++r) {
      // NaN-filled outputs prove the kernel writes every element.
      std::vector<double> row(s.n, std::nan(""));
      kern::gemv(c.a.data() + r * s.k, c.w.data(), row.data(), s.k, s.n);
      for (std::size_t j = 0; j < s.n; ++j)
        EXPECT_EQ(row[j], c.expected[r * s.n + j])
            << "gemv k=" << s.k << " n=" << s.n << " row " << r << " col "
            << j;
    }
  }
}

// The 4-row-blocked GEMM, its m%4 row tail included, equals the ascending
// loop and the GEMV on every row.
TEST(Kernels, Rows4MatchesRowwiseScalarBitwise) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const Case c = make_case(s, rng);
    std::vector<double> batched(s.m * s.n, std::nan(""));
    kern::gemm(c.a.data(), c.w.data(), batched.data(), s.m, s.k, s.n);
    for (std::size_t r = 0; r < s.m; ++r) {
      std::vector<double> row(s.n);
      kern::gemv(c.a.data() + r * s.k, c.w.data(), row.data(), s.k, s.n);
      for (std::size_t j = 0; j < s.n; ++j) {
        EXPECT_EQ(batched[r * s.n + j], c.expected[r * s.n + j])
            << "gemm m=" << s.m << " k=" << s.k << " n=" << s.n << " row "
            << r << " col " << j;
        EXPECT_EQ(batched[r * s.n + j], row[j])
            << "gemm vs gemv m=" << s.m << " row " << r << " col " << j;
      }
    }
  }
}

TEST(Kernels, MatmulIntoDispatchesGemvForSingleRow) {
  // Tensor::matmul_into with m == 1 must agree bitwise with the GEMV —
  // the serving fast path relies on it — across k and n tails.
  Rng rng(17);
  const Shape single_rows[] = {{1, 1, 1}, {1, 33, 12}, {1, 129, 40}};
  for (const Shape& s : single_rows) {
    const auto a = random_matrix(1, s.k, rng);
    const auto w = random_matrix(s.k, s.n, rng);
    Tensor ta(1, s.k), tw(s.k, s.n), out;
    for (std::size_t p = 0; p < s.k; ++p) ta(0, p) = a[p];
    for (std::size_t p = 0; p < s.k; ++p)
      for (std::size_t j = 0; j < s.n; ++j) tw(p, j) = w[p * s.n + j];
    ta.matmul_into(tw, out);
    ASSERT_EQ(out.rows(), 1u);
    ASSERT_EQ(out.cols(), s.n);
    std::vector<double> direct(s.n);
    kern::gemv(a.data(), w.data(), direct.data(), s.k, s.n);
    for (std::size_t j = 0; j < s.n; ++j)
      EXPECT_EQ(out(0, j), direct[j]) << "k=" << s.k << " n=" << s.n;
  }
}

}  // namespace
}  // namespace miras::nn
