#include "nn/tensor.h"

#include <cmath>

#include "common/contracts.h"
#include "nn/kernels.h"

namespace miras::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Tensor::Tensor(std::size_t rows, std::size_t cols, double value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Tensor Tensor::from_rows(const std::vector<std::vector<double>>& rows) {
  MIRAS_EXPECTS(!rows.empty());
  Tensor t(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    MIRAS_EXPECTS(rows[r].size() == t.cols_);
    for (std::size_t c = 0; c < t.cols_; ++c) t(r, c) = rows[r][c];
  }
  return t;
}

Tensor Tensor::row_vector(const std::vector<double>& values) {
  Tensor t(1, values.size());
  for (std::size_t c = 0; c < values.size(); ++c) t(0, c) = values[c];
  return t;
}

double& Tensor::operator()(std::size_t r, std::size_t c) {
  MIRAS_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

double Tensor::operator()(std::size_t r, std::size_t c) const {
  MIRAS_EXPECTS(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

void Tensor::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

std::vector<double> Tensor::row(std::size_t r) const {
  MIRAS_EXPECTS(r < rows_);
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

void Tensor::set_row(std::size_t r, const std::vector<double>& values) {
  MIRAS_EXPECTS(r < rows_);
  MIRAS_EXPECTS(values.size() == cols_);
  for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

void Tensor::matmul_into(const Tensor& other, Tensor& out) const {
  MIRAS_EXPECTS(cols_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  const std::size_t m = rows_, k = cols_, n = other.cols_;
  out.resize(m, n);
  // One kernel family (nn/kernels.h): every element accumulates in
  // ascending p, and a one-row product goes straight to the GEMV through
  // the GEMM's leftover-row path, so batched and single-row results share
  // one order and one set of bits.
  kern::gemm(data_.data(), other.data_.data(), out.data_.data(), m, k, n);
}

void Tensor::transposed_matmul_into(const Tensor& other, Tensor& out,
                                    bool accumulate) const {
  // (this^T) * other where this is (k x m): result is (m x n).
  MIRAS_EXPECTS(rows_ == other.rows_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  const std::size_t k = rows_, m = cols_, n = other.cols_;
  if (accumulate) {
    MIRAS_EXPECTS(out.rows_ == m && out.cols_ == n);
  } else {
    out.resize(m, n);
    out.fill(0.0);
  }
  const double* a_data = data_.data();
  const double* b_data = other.data_.data();
  double* out_data = out.data_.data();
  // Eight reduction steps (p) advance together so each pass over the m x n
  // output does eight accumulations' worth of work — the output matrix is
  // the large operand here (dW is in_dim x out_dim), so sweeping it once
  // per p would be pure memory traffic. Each element still accumulates its
  // p-contributions in ascending order.
  std::size_t p = 0;
  for (; p + 8 <= k; p += 8) {
    const double* a0 = a_data + (p + 0) * m;
    const double* a1 = a_data + (p + 1) * m;
    const double* a2 = a_data + (p + 2) * m;
    const double* a3 = a_data + (p + 3) * m;
    const double* a4 = a_data + (p + 4) * m;
    const double* a5 = a_data + (p + 5) * m;
    const double* a6 = a_data + (p + 6) * m;
    const double* a7 = a_data + (p + 7) * m;
    const double* b0 = b_data + (p + 0) * n;
    const double* b1 = b_data + (p + 1) * n;
    const double* b2 = b_data + (p + 2) * n;
    const double* b3 = b_data + (p + 3) * n;
    const double* b4 = b_data + (p + 4) * n;
    const double* b5 = b_data + (p + 5) * n;
    const double* b6 = b_data + (p + 6) * n;
    const double* b7 = b_data + (p + 7) * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
      const double v4 = a4[i], v5 = a5[i], v6 = a6[i], v7 = a7[i];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0 && v4 == 0.0 &&
          v5 == 0.0 && v6 == 0.0 && v7 == 0.0) {
        continue;
      }
      double* out_row = out_data + i * n;
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
    const double* a_row = a_data + p * m;
    const double* b_row = b_data + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double a = a_row[i];
      if (a == 0.0) continue;
      double* out_row = out_data + i * n;
      for (std::size_t j = 0; j < n; ++j) out_row[j] += a * b_row[j];
    }
  }
}

void Tensor::matmul_transposed_into(const Tensor& other, Tensor& out) const {
  // this (m x k) * other^T where other is (n x k): result is (m x n).
  MIRAS_EXPECTS(cols_ == other.cols_);
  MIRAS_EXPECTS(&out != this && &out != &other);
  const std::size_t m = rows_, k = cols_, n = other.rows_;
  out.resize(m, n);
  const double* a_data = data_.data();
  const double* b_data = other.data_.data();
  double* out_data = out.data_.data();
  // 4x4 register blocking: four rows of A against four rows of B (columns
  // of B^T) at once, so each B row loaded from cache feeds four output
  // rows — without it every output row re-streams the whole B matrix (for
  // dX = grad * W^T that is the full weight matrix per batch row). The 16
  // dot products run as independent accumulator chains, hiding the add
  // latency a single serial reduction would expose; each dot still sums p
  // ascending, so results are bit-identical to the scalar loop.
  const auto dot = [k](const double* a_row, const double* b_row) {
    double acc = 0.0;
    for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
    return acc;
  };
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a_data + (i + 0) * k;
    const double* a1 = a_data + (i + 1) * k;
    const double* a2 = a_data + (i + 2) * k;
    const double* a3 = a_data + (i + 3) * k;
    double* o0 = out_data + (i + 0) * n;
    double* o1 = out_data + (i + 1) * n;
    double* o2 = out_data + (i + 2) * n;
    double* o3 = out_data + (i + 3) * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b_data + (j + 0) * k;
      const double* b1 = b_data + (j + 1) * k;
      const double* b2 = b_data + (j + 2) * k;
      const double* b3 = b_data + (j + 3) * k;
      double c00 = 0.0, c01 = 0.0, c02 = 0.0, c03 = 0.0;
      double c10 = 0.0, c11 = 0.0, c12 = 0.0, c13 = 0.0;
      double c20 = 0.0, c21 = 0.0, c22 = 0.0, c23 = 0.0;
      double c30 = 0.0, c31 = 0.0, c32 = 0.0, c33 = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const double b0p = b0[p], b1p = b1[p], b2p = b2[p], b3p = b3[p];
        const double a0p = a0[p];
        c00 += a0p * b0p;
        c01 += a0p * b1p;
        c02 += a0p * b2p;
        c03 += a0p * b3p;
        const double a1p = a1[p];
        c10 += a1p * b0p;
        c11 += a1p * b1p;
        c12 += a1p * b2p;
        c13 += a1p * b3p;
        const double a2p = a2[p];
        c20 += a2p * b0p;
        c21 += a2p * b1p;
        c22 += a2p * b2p;
        c23 += a2p * b3p;
        const double a3p = a3[p];
        c30 += a3p * b0p;
        c31 += a3p * b1p;
        c32 += a3p * b2p;
        c33 += a3p * b3p;
      }
      o0[j] = c00, o0[j + 1] = c01, o0[j + 2] = c02, o0[j + 3] = c03;
      o1[j] = c10, o1[j + 1] = c11, o1[j + 2] = c12, o1[j + 3] = c13;
      o2[j] = c20, o2[j + 1] = c21, o2[j + 2] = c22, o2[j + 3] = c23;
      o3[j] = c30, o3[j + 1] = c31, o3[j + 2] = c32, o3[j + 3] = c33;
    }
    for (; j < n; ++j) {
      const double* b_row = b_data + j * k;
      o0[j] = dot(a0, b_row);
      o1[j] = dot(a1, b_row);
      o2[j] = dot(a2, b_row);
      o3[j] = dot(a3, b_row);
    }
  }
  for (; i < m; ++i) {
    const double* a_row = a_data + i * k;
    double* out_row = out_data + i * n;
    for (std::size_t j = 0; j < n; ++j)
      out_row[j] = dot(a_row, b_data + j * k);
  }
}

Tensor& Tensor::operator+=(const Tensor& other) {
  MIRAS_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  MIRAS_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

void Tensor::add_row_broadcast(const Tensor& bias) {
  MIRAS_EXPECTS(bias.rows_ == 1 && bias.cols_ == cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] += bias.data_[c];
}

void Tensor::column_sums_into(Tensor& out, bool accumulate) const {
  MIRAS_EXPECTS(&out != this);
  if (accumulate) {
    MIRAS_EXPECTS(out.rows_ == 1 && out.cols_ == cols_);
  } else {
    out.resize(1, cols_);
    out.fill(0.0);
  }
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c)
      out.data_[c] += data_[r * cols_ + c];
}

double Tensor::sum() const {
  double acc = 0.0;
  for (const double x : data_) acc += x;
  return acc;
}

double Tensor::norm() const {
  double acc = 0.0;
  for (const double x : data_) acc += x * x;
  return std::sqrt(acc);
}

void Tensor::fill(double value) {
  for (double& x : data_) x = value;
}

}  // namespace miras::nn
