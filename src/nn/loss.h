// Regression losses with analytic gradients. Values are averaged over both
// batch rows and output columns so learning rates transfer across batch
// sizes and output widths.
//
// Each loss is evaluated over one *block* of a larger batch: the caller
// passes the whole batch's element count, the gradient lands in a
// caller-owned tensor, and the block's share of the scalar loss is
// returned. The training loops reuse one gradient buffer per block across
// steps. Over a whole batch (total_elements == prediction.size()) the
// result is the plain batch loss.
#pragma once

#include <cstddef>

#include "nn/tensor.h"

namespace miras::nn {

/// Mean squared error, mean((pred - target)^2) / 2, over a block of a
/// larger batch: value and gradient carry the full batch's
/// 1/total_elements scale, and dL/d(prediction) is written into `grad`
/// (resized). The block gradients concatenate to the full-batch gradient
/// bit-identically (per-element arithmetic is unchanged); the block values
/// sum to the full-batch loss up to summation order, so the training loops
/// chain them in ascending block order to keep the reported loss
/// deterministic. `grad` must not alias the inputs.
double mse_loss_partial_into(const Tensor& prediction, const Tensor& target,
                             std::size_t total_elements, Tensor& grad);

/// Huber loss with threshold `delta` (quadratic inside, linear outside) over
/// a block of a larger batch; robust to the occasional extreme WIP
/// transition in the replay data. Same scaling contract as
/// mse_loss_partial_into.
double huber_loss_partial_into(const Tensor& prediction, const Tensor& target,
                               double delta, std::size_t total_elements,
                               Tensor& grad);

}  // namespace miras::nn
