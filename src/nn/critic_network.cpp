#include "nn/critic_network.h"

#include "common/contracts.h"

namespace miras::nn {

CriticNetwork::CriticNetwork(const CriticSpec& spec, Rng& rng)
    : state_dim_(spec.state_dim), action_dim_(spec.action_dim) {
  MIRAS_EXPECTS(spec.state_dim > 0);
  MIRAS_EXPECTS(spec.action_dim > 0);
  MIRAS_EXPECTS(spec.hidden_dims.size() >= 2);
  layers_.emplace_back(spec.state_dim, spec.hidden_dims[0],
                       spec.hidden_activation, rng);
  layers_.emplace_back(spec.hidden_dims[0] + spec.action_dim,
                       spec.hidden_dims[1], spec.hidden_activation, rng);
  std::size_t prev = spec.hidden_dims[1];
  for (std::size_t i = 2; i < spec.hidden_dims.size(); ++i) {
    layers_.emplace_back(prev, spec.hidden_dims[i], spec.hidden_activation,
                         rng);
    prev = spec.hidden_dims[i];
  }
  layers_.emplace_back(prev, 1, Activation::kIdentity, rng);
}

CriticNetwork::CriticNetwork(std::vector<DenseLayer> layers)
    : layers_(std::move(layers)) {
  MIRAS_EXPECTS(layers_.size() >= 3);
  MIRAS_EXPECTS(layers_[1].in_dim() > layers_[0].out_dim());
  state_dim_ = layers_[0].in_dim();
  action_dim_ = layers_[1].in_dim() - layers_[0].out_dim();
  for (std::size_t l = 2; l < layers_.size(); ++l)
    MIRAS_EXPECTS(layers_[l].in_dim() == layers_[l - 1].out_dim());
  MIRAS_EXPECTS(layers_.back().out_dim() == 1);
}

void CriticNetwork::concat_cols_into(const Tensor& a, const Tensor& b,
                                     Tensor& out) {
  MIRAS_EXPECTS(a.rows() == b.rows());
  MIRAS_EXPECTS(&out != &a && &out != &b);
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) out(r, c) = a(r, c);
    for (std::size_t c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b(r, c);
  }
}

Tensor CriticNetwork::predict(const Tensor& states,
                              const Tensor& actions) const {
  Workspace ws;
  Tensor out;
  predict_batch(states, actions, ws, out);
  return out;
}

void CriticNetwork::predict_batch(const Tensor& states, const Tensor& actions,
                                  Workspace& ws, Tensor& out) const {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(&out != &states && &out != &actions);
  MIRAS_EXPECTS(&out != &ws.a && &out != &ws.b && &out != &ws.concat);
  layers_[0].forward_into(states, ws.a);
  concat_cols_into(ws.a, actions, ws.concat);
  // ws.a is free again once the concat block is assembled.
  const Tensor* h = &ws.concat;
  for (std::size_t l = 1; l + 1 < layers_.size(); ++l) {
    Tensor& dst = (l % 2 == 1) ? ws.a : ws.b;
    layers_[l].forward_into(*h, dst);
    h = &dst;
  }
  layers_.back().forward_into(*h, out);
}

double CriticNetwork::predict_one(const std::vector<double>& state,
                                  const std::vector<double>& action) const {
  return predict(Tensor::row_vector(state), Tensor::row_vector(action))(0, 0);
}

const Tensor& CriticNetwork::forward_shard(const Tensor& states,
                                           const Tensor& actions,
                                           TrainPass& pass) const {
  MIRAS_EXPECTS(states.cols() == state_dim_);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(pass.pre.size() == layers_.size());
  layers_[0].forward_shard(states, pass.pre[0], pass.post[0]);
  concat_cols_into(pass.post[0], actions, pass.concat);
  const Tensor* h = &pass.concat;
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    layers_[l].forward_shard(*h, pass.pre[l], pass.post[l]);
    h = &pass.post[l];
  }
  return *h;
}

void CriticNetwork::backward_shard(const Tensor& states, const Tensor& actions,
                                   const Tensor& grad_q,
                                   TrainPass& pass) const {
  MIRAS_EXPECTS(grad_q.cols() == 1);
  MIRAS_EXPECTS(actions.cols() == action_dim_);
  MIRAS_EXPECTS(pass.grads.size() == layers_.size());
  const Tensor* grad = &grad_q;
  bool into_a = true;
  for (std::size_t l = layers_.size() - 1; l >= 2; --l) {
    Tensor& dst = into_a ? pass.bwd_a : pass.bwd_b;
    layers_[l].backward_shard(pass.post[l - 1], pass.pre[l], pass.post[l],
                              *grad, pass.grads[l], pass.grad_pre, dst);
    grad = &dst;
    into_a = !into_a;
  }
  // grad is now dL/d(h2); backprop through the joint layer and split the
  // [h1 || a] columns.
  layers_[1].backward_shard(pass.concat, pass.pre[1], pass.post[1], *grad,
                            pass.grads[1], pass.grad_pre, pass.grad_concat);
  const std::size_t h1_width = layers_[0].out_dim();
  pass.grad_h1.resize(pass.grad_concat.rows(), h1_width);
  pass.grad_actions.resize(pass.grad_concat.rows(), action_dim_);
  for (std::size_t r = 0; r < pass.grad_concat.rows(); ++r) {
    for (std::size_t c = 0; c < h1_width; ++c)
      pass.grad_h1(r, c) = pass.grad_concat(r, c);
    for (std::size_t c = 0; c < action_dim_; ++c)
      pass.grad_actions(r, c) = pass.grad_concat(r, h1_width + c);
  }
  // dQ/ds lands in the free ping-pong buffer pass.bwd_a (see the header).
  layers_[0].backward_shard(states, pass.pre[0], pass.post[0], pass.grad_h1,
                            pass.grads[0], pass.grad_pre, pass.bwd_a);
}

double CriticNetwork::sharded_update(const std::vector<TrainPass>& passes,
                                     std::size_t count, double max_norm,
                                     AdamOptimizer& optimizer) {
  return sharded_adam_step(passes, count, layers_, max_norm, optimizer);
}

std::size_t CriticNetwork::parameter_count() const {
  return nn::parameter_count(layers_);
}

std::vector<double> CriticNetwork::get_parameters() const {
  return nn::get_parameters(layers_);
}

void CriticNetwork::set_parameters(const std::vector<double>& flat) {
  nn::set_parameters(layers_, flat);
}

void CriticNetwork::soft_update_from(const CriticNetwork& source, double tau) {
  soft_update(layers_, source.layers_, tau);
}

}  // namespace miras::nn
