#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"

namespace miras::nn {
namespace {

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor out;
  a.matmul_into(b, out);
  return out;
}

Tensor transpose(const Tensor& a) {
  Tensor out(a.cols(), a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  return out;
}

TEST(Tensor, ZeroInitialised) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(t(r, c), 0.0);
}

TEST(Tensor, FillConstructor) {
  Tensor t(2, 2, 3.5);
  EXPECT_EQ(t(0, 0), 3.5);
  EXPECT_EQ(t(1, 1), 3.5);
}

TEST(Tensor, FromRowsAndAccessors) {
  const Tensor t = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(t(0, 1), 2.0);
  EXPECT_EQ(t(1, 0), 3.0);
  EXPECT_EQ(t.row(1), (std::vector<double>{3.0, 4.0}));
}

TEST(Tensor, FromRowsRejectsRagged) {
  EXPECT_THROW(Tensor::from_rows({{1.0}, {1.0, 2.0}}), ContractViolation);
}

TEST(Tensor, RowVector) {
  const Tensor t = Tensor::row_vector({7.0, 8.0, 9.0});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t(0, 2), 9.0);
}

TEST(Tensor, SetRow) {
  Tensor t(2, 2);
  t.set_row(1, {5.0, 6.0});
  EXPECT_EQ(t(1, 0), 5.0);
  EXPECT_EQ(t(1, 1), 6.0);
  EXPECT_THROW(t.set_row(1, {1.0}), ContractViolation);
  EXPECT_THROW(t.set_row(2, {1.0, 2.0}), ContractViolation);
}

TEST(Tensor, OutOfBoundsAccessThrows) {
  Tensor t(2, 2);
  EXPECT_THROW(t(2, 0), ContractViolation);
  EXPECT_THROW(t(0, 2), ContractViolation);
}

TEST(Tensor, MatmulKnownValues) {
  const Tensor a = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  const Tensor b = Tensor::from_rows({{5.0, 6.0}, {7.0, 8.0}});
  const Tensor c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3), b(2, 3), out;
  EXPECT_THROW(a.matmul_into(b, out), ContractViolation);
}

TEST(Tensor, MatmulRectangular) {
  const Tensor a = Tensor::from_rows({{1.0, 0.0, 2.0}});          // 1x3
  const Tensor b = Tensor::from_rows({{1.0}, {2.0}, {3.0}});      // 3x1
  const Tensor c = matmul(a, b);                                  // 1x1
  EXPECT_DOUBLE_EQ(c(0, 0), 7.0);
}

TEST(Tensor, TransposedMatmulEqualsExplicitTranspose) {
  const Tensor a = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const Tensor b = Tensor::from_rows({{1.0, -1.0, 2.0},
                                      {0.5, 0.0, -2.0},
                                      {3.0, 1.0, 1.0}});
  const Tensor expected = matmul(transpose(a), b);
  Tensor actual;
  a.transposed_matmul_into(b, actual);
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t c = 0; c < expected.cols(); ++c)
      EXPECT_NEAR(actual(r, c), expected(r, c), 1e-12);
}

TEST(Tensor, MatmulTransposedEqualsExplicitTranspose) {
  const Tensor a = Tensor::from_rows({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Tensor b = Tensor::from_rows({{1.0, 0.0, 1.0},
                                      {-1.0, 2.0, 0.5},
                                      {2.0, 2.0, 2.0},
                                      {0.0, 1.0, 0.0}});
  const Tensor expected = matmul(a, transpose(b));
  Tensor actual;
  a.matmul_transposed_into(b, actual);
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::size_t r = 0; r < expected.rows(); ++r)
    for (std::size_t c = 0; c < expected.cols(); ++c)
      EXPECT_NEAR(actual(r, c), expected(r, c), 1e-12);
}

TEST(Tensor, ElementwiseArithmetic) {
  const Tensor a = Tensor::from_rows({{1.0, 2.0}});
  const Tensor b = Tensor::from_rows({{3.0, -1.0}});
  Tensor sum = a;
  sum += b;
  Tensor diff = a;
  diff -= b;
  Tensor scaled = a;
  scaled *= 2.0;
  EXPECT_DOUBLE_EQ(sum(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sum(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(diff(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(scaled(0, 1), 4.0);
}

TEST(Tensor, ArithmeticShapeMismatchThrows) {
  Tensor a(1, 2), b(2, 1);
  EXPECT_THROW(a += b, ContractViolation);
  EXPECT_THROW(a -= b, ContractViolation);
}

TEST(Tensor, RowBroadcastAdd) {
  Tensor t = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  t.add_row_broadcast(Tensor::row_vector({10.0, 20.0}));
  EXPECT_DOUBLE_EQ(t(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(t(1, 1), 24.0);
}

TEST(Tensor, RowBroadcastShapeChecked) {
  Tensor t(2, 3);
  EXPECT_THROW(t.add_row_broadcast(Tensor(1, 2)), ContractViolation);
  EXPECT_THROW(t.add_row_broadcast(Tensor(2, 3)), ContractViolation);
}

TEST(Tensor, ColumnSums) {
  const Tensor t = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  Tensor sums;
  t.column_sums_into(sums);
  EXPECT_EQ(sums.rows(), 1u);
  EXPECT_DOUBLE_EQ(sums(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(sums(0, 1), 6.0);
}

TEST(Tensor, ApplySumNorm) {
  Tensor t = Tensor::from_rows({{3.0, -4.0}});
  EXPECT_DOUBLE_EQ(t.sum(), -1.0);
  EXPECT_DOUBLE_EQ(t.norm(), 5.0);
  t.apply([](double x) { return x * x; });
  EXPECT_DOUBLE_EQ(t(0, 0), 9.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 16.0);
}

TEST(Tensor, FillOverwrites) {
  Tensor t(2, 2, 1.0);
  t.fill(7.0);
  EXPECT_EQ(t(1, 1), 7.0);
}

TEST(Tensor, SparseRowSkipInMatmulIsCorrect) {
  // Exercises the a == 0 fast path.
  const Tensor a = Tensor::from_rows({{0.0, 1.0}, {0.0, 0.0}});
  const Tensor b = Tensor::from_rows({{5.0, 5.0}, {2.0, 3.0}});
  const Tensor c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

}  // namespace
}  // namespace miras::nn
