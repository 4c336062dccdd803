// Dense row-major 2-D tensor (matrix) with the operations the network stack
// needs: a register-blocked matmul, transpose-free matmul variants,
// in-place elementwise arithmetic, row broadcasting. Batches are rows: a
// forward pass over a batch of B inputs of width D is a (B x D) Tensor.
//
// Every product kernel writes into a caller-owned output tensor (`_into`),
// reusing its heap buffer when the capacity suffices. The hot paths (DDPG
// updates, synthetic rollouts) route all intermediates through
// preallocated workspaces, so steady-state inference and training
// allocate nothing.
//
// Kernel invariant: every output element accumulates its contributions in
// ascending reduction-index order, independent of the other rows in the
// batch. This is what makes batched forward passes bit-identical to
// row-at-a-time passes (see DESIGN.md §5) — blocked kernels may reorder
// *across* output elements but never within one.
//
// The three products run nn/kernels.h's one kernel family, which keeps the
// ascending order for every shape: a one-row product (the single-request
// inference shape) is the GEMV, and every GEMM row is bit-identical to it.
#pragma once

#include <cstddef>
#include <vector>

namespace miras::nn {

class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialised (rows x cols) tensor.
  Tensor(std::size_t rows, std::size_t cols);

  /// Filled with `value`.
  Tensor(std::size_t rows, std::size_t cols, double value);

  /// From nested initialiser data; all rows must have equal length.
  static Tensor from_rows(const std::vector<std::vector<double>>& rows);

  /// A 1 x n row vector view of `values`.
  static Tensor row_vector(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c);
  double operator()(std::size_t r, std::size_t c) const;

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Reshapes to (rows x cols) without initialising the elements; existing
  /// heap capacity is reused, so repeated resizes to previously seen sizes
  /// never allocate. Element values are unspecified afterwards — callers
  /// must fill or overwrite.
  void resize(std::size_t rows, std::size_t cols);

  /// Copies row r out as a vector.
  std::vector<double> row(std::size_t r) const;

  /// Overwrites row r. `values.size()` must equal cols().
  void set_row(std::size_t r, const std::vector<double>& values);

  /// this (m x k) * other (k x n) -> (m x n), written into `out` (resized
  /// to m x n; prior contents dropped). `out` must not alias this or
  /// `other`.
  void matmul_into(const Tensor& other, Tensor& out) const;

  /// this^T (k x m -> m x k) * other (k x n) -> (m x n) into `out`,
  /// without forming the transpose: the weight gradient dW = X^T * dY. With
  /// `accumulate` the product is added onto the existing contents of `out`
  /// (which must already be m x n) — the gradient-accumulation shape
  /// dW += X^T * dY.
  void transposed_matmul_into(const Tensor& other, Tensor& out,
                              bool accumulate = false) const;

  /// this (m x k) * other^T (n x k -> k x n) -> (m x n) into `out`
  /// (resized to m x n): the input gradient dX = dY * W^T.
  void matmul_transposed_into(const Tensor& other, Tensor& out) const;

  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(double scalar);

  /// Adds `bias` (1 x cols) to every row in place.
  void add_row_broadcast(const Tensor& bias);

  /// Sums all rows into `out` (1 x cols): the bias gradient. With
  /// `accumulate` the sums are added onto the existing contents.
  void column_sums_into(Tensor& out, bool accumulate = false) const;

  /// Applies f to every element in place. Statically dispatched so the
  /// functor inlines into the loop (no per-element indirect call).
  template <typename F>
  void apply(F&& f) {
    for (double& x : data_) x = f(x);
  }

  /// Sum of all elements.
  double sum() const;

  /// Frobenius norm.
  double norm() const;

  /// Overwrites every element with `value`.
  void fill(double value);

  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace miras::nn
