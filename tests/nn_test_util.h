// Helpers shared by the nn test suites. They drive the one training path
// nn/ has — forward_shard / backward_shard over gradient blocks of
// kRowsPerBlock rows, reduced in ascending block order (train_shards.h) —
// over a whole batch, so each test reads as plainly as the formula it
// checks.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "nn/critic_network.h"
#include "nn/layer.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"

namespace miras::nn::test {

/// A max_norm no gradient reaches: sharded_update then never scales.
inline constexpr double kNeverClip = std::numeric_limits<double>::max();

/// sum_ij a(i, j) * w(i, j): a scalar whose gradient w.r.t. `a` is `w`.
inline double weighted_sum(const Tensor& a, const Tensor& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a.data()[i] * w.data()[i];
  return acc;
}

/// Whole-batch mean squared loss value.
inline double mse_value(const Tensor& prediction, const Tensor& target) {
  Tensor grad;
  return mse_loss_partial_into(prediction, target, prediction.size(), grad);
}

/// Zeroes every layer's gradient buffers (reduce_gradients adds onto them).
inline void zero_gradients(std::vector<DenseLayer>& layers) {
  for (DenseLayer& layer : layers) {
    layer.weight_grad().fill(0.0);
    layer.bias_grad().fill(0.0);
  }
}

/// One forward_shard + backward_shard of `layer` over all rows of `x` with
/// the upstream gradient dL/d(output) = `grad_output`. Returns the
/// parameter gradients and writes dL/dx into `grad_input`.
inline LayerGrad layer_backward(const DenseLayer& layer, const Tensor& x,
                                const Tensor& grad_output,
                                Tensor& grad_input) {
  Tensor pre, post, grad_pre;
  layer.forward_shard(x, pre, post);
  LayerGrad grad{Tensor(layer.in_dim(), layer.out_dim()),
                 Tensor(1, layer.out_dim())};
  layer.backward_shard(x, pre, post, grad_output, grad, grad_pre, grad_input);
  return grad;
}

/// Backpropagates the upstream gradient dL/d(output) = `grad_output`
/// through `net` at input `x`, block by block. The block gradients are
/// reduced into the layers' (zeroed) gradient buffers; returns the
/// assembled dL/dx.
inline Tensor network_backward(Network& net, const Tensor& x,
                               const Tensor& grad_output) {
  const std::size_t blocks = num_row_blocks(x.rows());
  std::vector<TrainPass> passes(blocks);
  Tensor grad_input(x.rows(), x.cols());
  for (std::size_t m = 0; m < blocks; ++m) {
    const RowRange rows = row_block(x.rows(), m);
    TrainPass& pass = passes[m];
    prepare_pass(net.layers(), pass);
    copy_rows(x, rows, pass.in);
    copy_rows(grad_output, rows, pass.loss_grad);
    (void)net.forward_shard(pass.in, pass);
    paste_rows(net.backward_shard(pass.in, pass.loss_grad, pass), rows,
               grad_input);
  }
  zero_gradients(net.layers());
  reduce_gradients(passes, blocks, net.layers());
  return grad_input;
}

/// dQ/ds and dQ/da of a critic backward pass.
struct CriticGradients {
  Tensor states;
  Tensor actions;
};

/// network_backward for the critic: upstream gradient dL/dQ = `grad_q`.
/// Reduces the parameter gradients into the critic's layers and returns
/// the assembled input gradients.
inline CriticGradients critic_backward(CriticNetwork& critic,
                                       const Tensor& states,
                                       const Tensor& actions,
                                       const Tensor& grad_q) {
  const std::size_t blocks = num_row_blocks(states.rows());
  std::vector<TrainPass> passes(blocks);
  CriticGradients grads{Tensor(states.rows(), states.cols()),
                        Tensor(actions.rows(), actions.cols())};
  for (std::size_t m = 0; m < blocks; ++m) {
    const RowRange rows = row_block(states.rows(), m);
    TrainPass& pass = passes[m];
    prepare_pass(critic.layers(), pass);
    copy_rows(states, rows, pass.in);
    copy_rows(actions, rows, pass.actions);
    copy_rows(grad_q, rows, pass.loss_grad);
    (void)critic.forward_shard(pass.in, pass.actions, pass);
    critic.backward_shard(pass.in, pass.actions, pass.loss_grad, pass);
    paste_rows(pass.bwd_a, rows, grads.states);
    paste_rows(pass.grad_actions, rows, grads.actions);
  }
  zero_gradients(critic.layers());
  reduce_gradients(passes, blocks, critic.layers());
  return grads;
}

/// One Adam step of `net` on the whole batch (x, y) under the mean squared
/// loss, through gradient blocks and sharded_update with a max_norm the
/// gradients never reach. `passes` is reused across calls. Returns the
/// batch loss (block partials summed in ascending order).
inline double train_step(Network& net, const Tensor& x, const Tensor& y,
                         std::vector<TrainPass>& passes,
                         AdamOptimizer& optimizer) {
  const std::size_t blocks = num_row_blocks(x.rows());
  if (passes.size() < blocks) passes.resize(blocks);
  double loss = 0.0;
  for (std::size_t m = 0; m < blocks; ++m) {
    const RowRange rows = row_block(x.rows(), m);
    TrainPass& pass = passes[m];
    prepare_pass(net.layers(), pass);
    copy_rows(x, rows, pass.in);
    copy_rows(y, rows, pass.target);
    const Tensor& prediction = net.forward_shard(pass.in, pass);
    pass.loss = mse_loss_partial_into(prediction, pass.target, y.size(),
                                      pass.loss_grad);
    (void)net.backward_shard(pass.in, pass.loss_grad, pass);
    loss += pass.loss;
  }
  net.sharded_update(passes, blocks, kNeverClip, optimizer);
  return loss;
}

}  // namespace miras::nn::test
