// Parity tests for the matmul microkernels (nn/kernels.h).
//
// The load-bearing property: there is one kernel family with one
// reduction order. Every GEMM row and the GEMV on that row equal a plain
// ascending i-k-j loop bit for bit, zero-skip rows included, so batched
// inference is bitwise equal to row-at-a-time inference (the tensor.h
// invariant) and every golden file holds in every build. Both builds of
// the kernels (the baseline and, where the CPU has it, the AVX2 clone)
// run here directly, whichever one cpuid selects for the program.
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

// ---- Every build of every contraction ----------------------------------
//
// The AVX2 clone and the baseline build run one body each; both must equal
// a plain loop bit for bit on ragged shapes, through the zero-skips.

/// The builds this host can run: the baseline always, the AVX2 clone where
/// cpuid reports AVX2 (a test that needs it says so when it is absent).
std::vector<const kern::KernelSet*> host_kernel_sets() {
  std::vector<const kern::KernelSet*> sets{&kern::baseline_kernels()};
  if (kern::avx2_kernels() != nullptr) sets.push_back(kern::avx2_kernels());
  return sets;
}

const std::size_t kDims[] = {1, 3, 4, 5, 9, 96, 97};
// Reduction lengths add 257: three of the kernels' 128-step skip chunks.
const std::size_t kDepths[] = {1, 3, 4, 5, 9, 96, 97, 257};
const std::size_t kRows[] = {1, 3, 6, 17};  // no multiple of 4: a row tail

/// k x n operand with normal entries, every third column zeroed, and,
/// when `zero_row` is in range, that row zeroed too.
std::vector<double> ragged_matrix(std::size_t rows, std::size_t cols,
                                  std::size_t zero_row, Rng& rng) {
  std::vector<double> v(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      v[r * cols + c] =
          (c % 3 == 1 || r == zero_row) ? 0.0 : rng.normal() * 2.0;
  return v;
}

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what,
                    const kern::KernelSet& set, std::size_t m, std::size_t k,
                    std::size_t n) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t e = 0; e < got.size(); ++e)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[e]),
              std::bit_cast<std::uint64_t>(want[e]))
        << what << " (" << set.name << ") m=" << m << " k=" << k
        << " n=" << n << " element " << e;
}

TEST(KernelBuilds, AllFourContractionsMatchThePlainLoopBitwise) {
  Rng rng(31);
  for (const kern::KernelSet* set : host_kernel_sets()) {
    for (const std::size_t m : kRows) {
      for (const std::size_t k : kDepths) {
        for (const std::size_t n : kDims) {
          // gemm and gemv: out = a * b, a m x k, b k x n.
          const auto a = ragged_matrix(m, k, 1, rng);
          const auto b = ragged_matrix(k, n, k / 2, rng);
          const auto want = ascending_ikj(a, b, m, k, n);
          std::vector<double> got(m * n, std::nan(""));
          set->gemm(a.data(), b.data(), got.data(), m, k, n);
          expect_bitwise(got, want, "gemm", *set, m, k, n);
          std::vector<double> rows(m * n, std::nan(""));
          for (std::size_t r = 0; r < m; ++r)
            set->gemv(a.data() + r * k, b.data(), rows.data() + r * n, k, n);
          expect_bitwise(rows, want, "gemv", *set, m, k, n);

          // gemm_tn: out += x^T * y, x k x m, y k x n, onto a prior value.
          const auto x = ragged_matrix(k, m, 0, rng);
          const auto y = ragged_matrix(k, n, k - 1, rng);
          const auto prior = ragged_matrix(m, n, m, rng);
          std::vector<double> tn_want = prior;
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
              for (std::size_t p = 0; p < k; ++p)
                tn_want[i * n + j] += x[p * m + i] * y[p * n + j];
          std::vector<double> tn_got = prior;
          set->gemm_tn(x.data(), y.data(), tn_got.data(), k, m, n);
          expect_bitwise(tn_got, tn_want, "gemm_tn", *set, m, k, n);

          // gemm_nt: out = a * w^T, a m x k, w n x k.
          const auto w = ragged_matrix(n, k, n / 2, rng);
          std::vector<double> nt_want(m * n, 0.0);
          for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
              for (std::size_t p = 0; p < k; ++p)
                nt_want[i * n + j] += a[i * k + p] * w[j * k + p];
          std::vector<double> nt_got(m * n, std::nan(""));
          set->gemm_nt(a.data(), w.data(), nt_got.data(), m, k, n);
          expect_bitwise(nt_got, nt_want, "gemm_nt", *set, m, k, n);
        }
      }
    }
  }
}

TEST(KernelBuilds, Avx2CloneMatchesTheBaselineBitwise) {
  const kern::KernelSet* avx2 = kern::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "this CPU has no AVX2; clone not run";
  const kern::KernelSet& base = kern::baseline_kernels();
  Rng rng(37);
  // Layer shapes of the LIGO actor and a training block of 16 rows.
  const Shape shapes[] = {{1, 9, 96}, {1, 96, 96}, {1, 96, 9},
                          {16, 96, 96}, {16, 9, 96}, {16, 96, 9}};
  for (const Shape& s : shapes) {
    const auto a = ragged_matrix(s.m, s.k, 2, rng);
    const auto b = ragged_matrix(s.k, s.n, 5, rng);
    std::vector<double> want(s.m * s.n), got(s.m * s.n);
    base.gemm(a.data(), b.data(), want.data(), s.m, s.k, s.n);
    avx2->gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
    expect_bitwise(got, want, "gemm", *avx2, s.m, s.k, s.n);

    const auto x = ragged_matrix(s.m, s.k, 3, rng);  // batch x in
    const auto dy = ragged_matrix(s.m, s.n, 1, rng);  // batch x out
    std::vector<double> dw_want(s.k * s.n, 0.0), dw_got(s.k * s.n, 0.0);
    base.gemm_tn(x.data(), dy.data(), dw_want.data(), s.m, s.k, s.n);
    avx2->gemm_tn(x.data(), dy.data(), dw_got.data(), s.m, s.k, s.n);
    expect_bitwise(dw_got, dw_want, "gemm_tn", *avx2, s.k, s.m, s.n);

    std::vector<double> dx_want(s.m * s.k), dx_got(s.m * s.k);
    base.gemm_nt(dy.data(), b.data(), dx_want.data(), s.m, s.n, s.k);
    avx2->gemm_nt(dy.data(), b.data(), dx_got.data(), s.m, s.n, s.k);
    expect_bitwise(dx_got, dx_want, "gemm_nt", *avx2, s.m, s.n, s.k);
  }
}

TEST(KernelBuilds, FreeFunctionsRunTheCpuidChosenSet) {
  const kern::KernelSet& active = kern::active_kernels();
  EXPECT_EQ(&active, kern::avx2_kernels() != nullptr
                         ? kern::avx2_kernels()
                         : &kern::baseline_kernels());
  EXPECT_EQ(&kern::active_kernels(), &active) << "resolved once";
}

}  // namespace
}  // namespace miras::nn
