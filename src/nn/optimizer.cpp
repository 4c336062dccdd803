#include "nn/optimizer.h"

#include <cmath>

#include "common/contracts.h"
#include "nn/serialize.h"

namespace miras::nn {

namespace {
void ensure_state(std::vector<Tensor>& weight_state,
                  std::vector<Tensor>& bias_state,
                  const std::vector<DenseLayer>& layers) {
  if (weight_state.size() == layers.size()) return;
  weight_state.clear();
  bias_state.clear();
  for (const auto& layer : layers) {
    weight_state.emplace_back(layer.weights().rows(), layer.weights().cols());
    bias_state.emplace_back(layer.bias().rows(), layer.bias().cols());
  }
}
}  // namespace

AdamOptimizer::AdamOptimizer(double learning_rate, double beta1, double beta2,
                             double epsilon)
    : learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  MIRAS_EXPECTS(learning_rate > 0.0);
  MIRAS_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  MIRAS_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  MIRAS_EXPECTS(epsilon > 0.0);
}

void AdamOptimizer::step_scaled(std::vector<DenseLayer>& layers,
                                double scale) {
  ensure_state(weight_m_, bias_m_, layers);
  ensure_state(weight_v_, bias_v_, layers);
  ++t_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t l = 0; l < layers.size(); ++l) {
    auto update = [&](Tensor& param, const Tensor& grad, Tensor& m, Tensor& v) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        // The branch (rather than an unconditional multiply) keeps the
        // unclipped path reading the exact stored gradient bits.
        const double g =
            scale == 1.0 ? grad.data()[i] : grad.data()[i] * scale;
        m.data()[i] = beta1_ * m.data()[i] + (1.0 - beta1_) * g;
        v.data()[i] = beta2_ * v.data()[i] + (1.0 - beta2_) * g * g;
        const double m_hat = m.data()[i] / bias1;
        const double v_hat = v.data()[i] / bias2;
        param.data()[i] -=
            learning_rate_ * m_hat / (std::sqrt(v_hat) + epsilon_);
      }
    };
    update(layers[l].weights(), layers[l].weight_grad(), weight_m_[l],
           weight_v_[l]);
    update(layers[l].bias(), layers[l].bias_grad(), bias_m_[l], bias_v_[l]);
  }
}

namespace {
// Moments travel as nn::write_tensor does it: shape, then the values.
void write_tensor_state(persist::BinaryWriter& out,
                        const std::vector<Tensor>& tensors) {
  out.u64(tensors.size());
  for (const Tensor& t : tensors) write_tensor(out, t);
}

std::vector<Tensor> read_tensor_state(persist::BinaryReader& in) {
  const std::uint64_t count = in.u64();
  std::vector<Tensor> tensors;
  for (std::uint64_t k = 0; k < count; ++k) tensors.push_back(read_tensor(in));
  return tensors;
}
}  // namespace

void AdamOptimizer::save_state(persist::BinaryWriter& out) const {
  out.u64(t_);
  write_tensor_state(out, weight_m_);
  write_tensor_state(out, weight_v_);
  write_tensor_state(out, bias_m_);
  write_tensor_state(out, bias_v_);
}

void AdamOptimizer::restore_state(persist::BinaryReader& in) {
  t_ = in.u64();
  weight_m_ = read_tensor_state(in);
  weight_v_ = read_tensor_state(in);
  bias_m_ = read_tensor_state(in);
  bias_v_ = read_tensor_state(in);
}

}  // namespace miras::nn
