#include "nn/layer.h"

#include <cmath>

#include "common/contracts.h"

namespace miras::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim,
                       Activation activation, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      activation_(activation),
      weights_(in_dim, out_dim),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {
  MIRAS_EXPECTS(in_dim > 0 && out_dim > 0);
  const double fan_in = static_cast<double>(in_dim);
  const double fan_out = static_cast<double>(out_dim);
  const double scale = activation == Activation::kRelu
                           ? std::sqrt(2.0 / fan_in)                 // He
                           : std::sqrt(2.0 / (fan_in + fan_out));    // Glorot
  for (std::size_t i = 0; i < in_dim; ++i)
    for (std::size_t j = 0; j < out_dim; ++j)
      weights_(i, j) = rng.normal(0.0, scale);
}

DenseLayer::DenseLayer(Tensor weights, Tensor bias, Activation activation)
    : in_dim_(weights.rows()),
      out_dim_(weights.cols()),
      activation_(activation),
      weights_(std::move(weights)),
      bias_(std::move(bias)),
      weight_grad_(in_dim_, out_dim_),
      bias_grad_(1, out_dim_) {
  MIRAS_EXPECTS(in_dim_ > 0 && out_dim_ > 0);
  MIRAS_EXPECTS(bias_.rows() == 1 && bias_.cols() == out_dim_);
}

void DenseLayer::forward_into(const Tensor& x, Tensor& out) const {
  MIRAS_EXPECTS(x.cols() == in_dim_);
  x.matmul_into(weights_, out);
  out.add_row_broadcast(bias_);
  activate_inplace(activation_, out);
}

void DenseLayer::forward_shard(const Tensor& x, Tensor& pre,
                               Tensor& post) const {
  MIRAS_EXPECTS(x.cols() == in_dim_);
  MIRAS_EXPECTS(&pre != &x && &post != &x && &pre != &post);
  x.matmul_into(weights_, pre);
  pre.add_row_broadcast(bias_);
  activate_into(activation_, pre, post);
}

void DenseLayer::backward_shard(const Tensor& x, const Tensor& pre,
                                const Tensor& post, const Tensor& grad_output,
                                LayerGrad& grad, Tensor& grad_pre_scratch,
                                Tensor& grad_input) const {
  MIRAS_EXPECTS(grad_output.rows() == x.rows());
  MIRAS_EXPECTS(grad_output.cols() == out_dim_);
  MIRAS_EXPECTS(grad.weight.same_shape(weights_));
  MIRAS_EXPECTS(grad.bias.same_shape(bias_));
  // Identity gradients pass through unchanged; skip the copy and read
  // grad_output directly.
  const Tensor* grad_pre = &grad_output;
  if (activation_ != Activation::kIdentity) {
    activation_backward_into(activation_, pre, post, grad_output,
                             grad_pre_scratch);
    grad_pre = &grad_pre_scratch;
  }
  x.transposed_matmul_into(*grad_pre, grad.weight, /*accumulate=*/true);
  grad_pre->column_sums_into(grad.bias, /*accumulate=*/true);
  grad_pre->matmul_transposed_into(weights_, grad_input);
}

std::size_t DenseLayer::parameter_count() const {
  return weights_.size() + bias_.size();
}

std::size_t parameter_count(const std::vector<DenseLayer>& layers) {
  std::size_t total = 0;
  for (const auto& layer : layers) total += layer.parameter_count();
  return total;
}

std::vector<double> get_parameters(const std::vector<DenseLayer>& layers) {
  std::vector<double> flat;
  flat.reserve(parameter_count(layers));
  for (const auto& layer : layers) {
    const Tensor& w = layer.weights();
    flat.insert(flat.end(), w.data(), w.data() + w.size());
    const Tensor& b = layer.bias();
    flat.insert(flat.end(), b.data(), b.data() + b.size());
  }
  return flat;
}

void set_parameters(std::vector<DenseLayer>& layers,
                    const std::vector<double>& flat) {
  MIRAS_EXPECTS(flat.size() == parameter_count(layers));
  std::size_t offset = 0;
  for (auto& layer : layers) {
    Tensor& w = layer.weights();
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = flat[offset + i];
    offset += w.size();
    Tensor& b = layer.bias();
    for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = flat[offset + i];
    offset += b.size();
  }
}

void soft_update(std::vector<DenseLayer>& layers,
                 const std::vector<DenseLayer>& source, double tau) {
  MIRAS_EXPECTS(tau >= 0.0 && tau <= 1.0);
  MIRAS_EXPECTS(layers.size() == source.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Tensor& w = layers[l].weights();
    const Tensor& sw = source[l].weights();
    MIRAS_EXPECTS(w.same_shape(sw));
    for (std::size_t i = 0; i < w.size(); ++i)
      w.data()[i] = tau * sw.data()[i] + (1.0 - tau) * w.data()[i];
    Tensor& b = layers[l].bias();
    const Tensor& sb = source[l].bias();
    for (std::size_t i = 0; i < b.size(); ++i)
      b.data()[i] = tau * sb.data()[i] + (1.0 - tau) * b.data()[i];
  }
}

}  // namespace miras::nn
