#include "nn/loss.h"

#include <cmath>

#include "common/contracts.h"

namespace miras::nn {

double mse_loss_partial_into(const Tensor& prediction, const Tensor& target,
                             std::size_t total_elements, Tensor& grad) {
  MIRAS_EXPECTS(prediction.same_shape(target));
  MIRAS_EXPECTS(prediction.size() > 0);
  MIRAS_EXPECTS(total_elements >= prediction.size());
  MIRAS_EXPECTS(&grad != &prediction && &grad != &target);
  const double scale = 1.0 / static_cast<double>(total_elements);
  grad.resize(prediction.rows(), prediction.cols());
  double value = 0.0;
  for (std::size_t r = 0; r < prediction.rows(); ++r) {
    for (std::size_t c = 0; c < prediction.cols(); ++c) {
      const double diff = prediction(r, c) - target(r, c);
      value += 0.5 * diff * diff * scale;
      grad(r, c) = diff * scale;
    }
  }
  return value;
}

double huber_loss_partial_into(const Tensor& prediction, const Tensor& target,
                               double delta, std::size_t total_elements,
                               Tensor& grad) {
  MIRAS_EXPECTS(prediction.same_shape(target));
  MIRAS_EXPECTS(prediction.size() > 0);
  MIRAS_EXPECTS(total_elements >= prediction.size());
  MIRAS_EXPECTS(delta > 0.0);
  MIRAS_EXPECTS(&grad != &prediction && &grad != &target);
  const double scale = 1.0 / static_cast<double>(total_elements);
  grad.resize(prediction.rows(), prediction.cols());
  double value = 0.0;
  for (std::size_t r = 0; r < prediction.rows(); ++r) {
    for (std::size_t c = 0; c < prediction.cols(); ++c) {
      const double diff = prediction(r, c) - target(r, c);
      const double abs_diff = std::abs(diff);
      if (abs_diff <= delta) {
        value += 0.5 * diff * diff * scale;
        grad(r, c) = diff * scale;
      } else {
        value += delta * (abs_diff - 0.5 * delta) * scale;
        grad(r, c) = (diff > 0.0 ? delta : -delta) * scale;
      }
    }
  }
  return value;
}

}  // namespace miras::nn
