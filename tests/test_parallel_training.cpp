// Deterministic data-parallel training (train_shards.h, DESIGN.md §5d):
// the sharded gradient-block path must produce bit-identical weights for
// every thread count, and the sharded backward must agree with one-row
// passes and with finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"
#include "nn/critic_network.h"
#include "nn/grad_check.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/train_shards.h"
#include "nn_test_util.h"
#include "rl/ddpg.h"

namespace miras {
namespace {

envmodel::TransitionDataset make_dataset(std::size_t state_dim,
                                         std::size_t action_dim,
                                         std::size_t count,
                                         std::uint64_t seed) {
  envmodel::TransitionDataset data(state_dim, action_dim);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    envmodel::Transition t;
    t.state.resize(state_dim);
    for (double& s : t.state) s = rng.uniform(0.0, 30.0);
    t.action.resize(action_dim);
    for (int& a : t.action) a = static_cast<int>(rng.uniform_int(0, 3));
    t.next_state.resize(state_dim);
    for (std::size_t j = 0; j < state_dim; ++j) {
      t.next_state[j] =
          0.7 * t.state[j] + 0.2 * t.state[(j + 1) % state_dim] -
          1.5 * t.action[j % action_dim] + rng.uniform(-0.3, 0.3);
      if (t.next_state[j] < 0.0) t.next_state[j] = 0.0;
    }
    t.reward = -t.state[0];
    data.add(std::move(t));
  }
  return data;
}

nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor t(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) t(i, j) = rng.uniform(-1.0, 1.0);
  return t;
}

// Fitting the dynamics model must give the same weights and the same loss
// whether it runs inline or on 1, 2, or 8 workers — on both the MSD-shaped
// ({20, 20, 20}) and LIGO-shaped ({20}) paper configurations.
TEST(ParallelTraining, FitWeightsBitIdenticalAcrossThreadsAndShards) {
  struct Case {
    const char* name;
    std::size_t dim;
    std::vector<std::size_t> hidden;
  };
  const std::vector<Case> cases = {{"msd", 3, {20, 20, 20}},
                                   {"ligo", 9, {20}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto data = make_dataset(c.dim, c.dim, 300, 41);
    envmodel::DynamicsModelConfig config;
    config.hidden_dims = c.hidden;
    config.epochs = 3;
    config.seed = 5;

    const auto run = [&](common::ThreadPool* pool) {
      envmodel::DynamicsModel model(c.dim, c.dim, config);
      model.enable_parallel_training(pool);
      const double loss = model.fit(data);
      return std::make_pair(model.network().get_parameters(), loss);
    };

    const auto [base_params, base_loss] = run(nullptr);
    for (const std::size_t threads : {1, 2, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      common::ThreadPool pool(threads);
      const auto [params, loss] = run(&pool);
      EXPECT_EQ(params, base_params);
      EXPECT_EQ(loss, base_loss);
    }
  }
}

// The full DDPG update — target stage, twin-critic TD steps, delayed actor
// ascent, soft updates — must leave every network bit-identical for every
// thread count.
TEST(ParallelTraining, DdpgUpdateBitIdenticalAcrossThreadsAndShards) {
  rl::DdpgConfig config;
  config.actor_hidden = {16, 16};
  config.critic_hidden = {16, 16};
  config.batch_size = 48;  // 3 gradient blocks per minibatch
  config.warmup = 48;
  config.seed = 3;

  const auto run = [&](common::ThreadPool* pool) {
    rl::DdpgAgent agent(4, 4, 12, config);
    agent.enable_parallel_training(pool);
    Rng rng(7);
    std::vector<double> s(4), s_next(4);
    for (std::size_t i = 0; i < 96; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        s[j] = rng.uniform(0.0, 30.0);
        s_next[j] = rng.uniform(0.0, 30.0);
      }
      const auto action = agent.act(s, /*explore=*/true);
      agent.observe(s, action, rng.uniform(-4.0, 0.0), s_next);
    }
    const double loss = agent.update(12);
    return std::make_tuple(agent.actor().get_parameters(),
                           agent.critic().get_parameters(), loss);
  };

  const auto base = run(nullptr);
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    common::ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), base);
  }
}

// Per-layer copies of the layers' reduced gradient buffers.
struct ParamGrads {
  std::vector<nn::Tensor> weight;
  std::vector<nn::Tensor> bias;
};

ParamGrads layer_grads(const std::vector<nn::DenseLayer>& layers) {
  ParamGrads g;
  for (const nn::DenseLayer& layer : layers) {
    g.weight.push_back(layer.weight_grad());
    g.bias.push_back(layer.bias_grad());
  }
  return g;
}

// Adds a block's accumulators onto `sum` (the reference's ascending chain).
void add_block_grads(const nn::TrainPass& pass, ParamGrads& sum) {
  for (std::size_t l = 0; l < pass.grads.size(); ++l) {
    sum.weight[l] += pass.grads[l].weight;
    sum.bias[l] += pass.grads[l].bias;
  }
}

ParamGrads zero_grads_like(const std::vector<nn::DenseLayer>& layers) {
  ParamGrads g;
  for (const nn::DenseLayer& layer : layers) {
    g.weight.emplace_back(layer.in_dim(), layer.out_dim());
    g.bias.emplace_back(1, layer.out_dim());
  }
  return g;
}

// Exact when the batch is one block (the block kernel adds its rows in the
// same ascending order); to 1e-12 relative otherwise (blocks regroup the
// same row contributions).
void expect_grads_match(const ParamGrads& actual, const ParamGrads& expected,
                        bool exact) {
  const auto check = [exact](double a, double e) {
    if (exact) {
      EXPECT_EQ(a, e);
    } else {
      EXPECT_NEAR(a, e, 1e-12 * std::max(1.0, std::abs(e)));
    }
  };
  for (std::size_t l = 0; l < expected.weight.size(); ++l) {
    SCOPED_TRACE("layer=" + std::to_string(l));
    for (std::size_t i = 0; i < expected.weight[l].size(); ++i)
      check(actual.weight[l].data()[i], expected.weight[l].data()[i]);
    for (std::size_t i = 0; i < expected.bias[l].size(); ++i)
      check(actual.bias[l].data()[i], expected.bias[l].data()[i]);
  }
}

// Runs the sharded forward/backward over `x`/`target` and reduces into the
// network's gradient buffers; returns the assembled dL/dx.
nn::Tensor sharded_network_backward(nn::Network& net, const nn::Tensor& x,
                                    const nn::Tensor& target) {
  const std::size_t blocks = nn::num_row_blocks(x.rows());
  std::vector<nn::TrainPass> passes(blocks);
  nn::Tensor grad_input(x.rows(), x.cols());
  for (std::size_t m = 0; m < blocks; ++m) {
    const nn::RowRange rows = nn::row_block(x.rows(), m);
    nn::TrainPass& pass = passes[m];
    nn::prepare_pass(net.layers(), pass);
    nn::copy_rows(x, rows, pass.in);
    nn::copy_rows(target, rows, pass.target);
    const nn::Tensor& prediction = net.forward_shard(pass.in, pass);
    pass.loss = nn::mse_loss_partial_into(prediction, pass.target,
                                          x.rows() * target.cols(),
                                          pass.loss_grad);
    const nn::Tensor& block_grad =
        net.backward_shard(pass.in, pass.loss_grad, pass);
    nn::paste_rows(block_grad, rows, grad_input);
  }
  nn::test::zero_gradients(net.layers());
  nn::reduce_gradients(passes, blocks, net.layers());
  return grad_input;
}

// The reference is one pass per row: dL/dx of the batch must equal the
// one-row passes' bit for bit (it never crosses rows), and the reduced
// parameter gradient must equal the ascending sum of the one-row
// gradients. dL/dx must also agree with finite differences.
TEST(ParallelTraining, ShardedNetworkBackwardMatchesSerial) {
  nn::MlpSpec spec;
  spec.input_dim = 5;
  spec.hidden_dims = {8, 7};
  spec.output_dim = 4;
  spec.hidden_activation = nn::Activation::kTanh;
  spec.output_activation = nn::Activation::kIdentity;
  Rng rng(11);
  nn::Network net(spec, rng);

  for (const std::size_t batch : {nn::kRowsPerBlock, std::size_t{40}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const nn::Tensor x = random_tensor(batch, spec.input_dim, rng);
    const nn::Tensor target = random_tensor(batch, spec.output_dim, rng);
    const std::size_t total = batch * spec.output_dim;

    nn::Tensor row_grad_input(batch, spec.input_dim);
    ParamGrads row_sum = zero_grads_like(net.layers());
    nn::TrainPass pass;
    for (std::size_t i = 0; i < batch; ++i) {
      const nn::RowRange row{i, i + 1};
      nn::prepare_pass(net.layers(), pass);
      nn::copy_rows(x, row, pass.in);
      nn::copy_rows(target, row, pass.target);
      nn::mse_loss_partial_into(net.forward_shard(pass.in, pass), pass.target,
                                total, pass.loss_grad);
      nn::paste_rows(net.backward_shard(pass.in, pass.loss_grad, pass), row,
                     row_grad_input);
      add_block_grads(pass, row_sum);
    }

    const nn::Tensor sharded_grad_input =
        sharded_network_backward(net, x, target);

    expect_grads_match(layer_grads(net.layers()), row_sum,
                       batch == nn::kRowsPerBlock);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_EQ(sharded_grad_input.data()[i], row_grad_input.data()[i]);

    const auto f = [&](const nn::Tensor& xx) {
      return nn::test::mse_value(net.predict(xx), target);
    };
    // The mean-loss scale (1 / (B * out_dim)) shrinks the true gradients,
    // so finite-difference roundoff needs the looser relative bound.
    EXPECT_LT(nn::max_gradient_error(f, x, sharded_grad_input, 1e-5), 1e-4);
  }
}

// Same contract for the critic, on its parameter gradients and on dQ/da
// (the policy-gradient signal).
TEST(ParallelTraining, ShardedCriticBackwardMatchesSerial) {
  nn::CriticSpec spec;
  spec.state_dim = 5;
  spec.action_dim = 3;
  spec.hidden_dims = {8, 7, 6};
  Rng rng(13);
  nn::CriticNetwork critic(spec, rng);

  for (const std::size_t batch : {nn::kRowsPerBlock, std::size_t{40}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    const nn::Tensor states = random_tensor(batch, spec.state_dim, rng);
    const nn::Tensor actions = random_tensor(batch, spec.action_dim, rng);
    const nn::Tensor target = random_tensor(batch, 1, rng);

    nn::Tensor row_grad_actions(batch, spec.action_dim);
    ParamGrads row_sum = zero_grads_like(critic.layers());
    nn::TrainPass row_pass;
    for (std::size_t i = 0; i < batch; ++i) {
      const nn::RowRange row{i, i + 1};
      nn::prepare_pass(critic.layers(), row_pass);
      nn::copy_rows(states, row, row_pass.in);
      nn::copy_rows(actions, row, row_pass.actions);
      nn::copy_rows(target, row, row_pass.target);
      nn::mse_loss_partial_into(
          critic.forward_shard(row_pass.in, row_pass.actions, row_pass),
          row_pass.target, batch, row_pass.loss_grad);
      critic.backward_shard(row_pass.in, row_pass.actions, row_pass.loss_grad,
                            row_pass);
      nn::paste_rows(row_pass.grad_actions, row, row_grad_actions);
      add_block_grads(row_pass, row_sum);
    }

    const std::size_t blocks = nn::num_row_blocks(batch);
    std::vector<nn::TrainPass> passes(blocks);
    nn::Tensor grad_actions(batch, spec.action_dim);
    for (std::size_t m = 0; m < blocks; ++m) {
      const nn::RowRange rows = nn::row_block(batch, m);
      nn::TrainPass& pass = passes[m];
      nn::prepare_pass(critic.layers(), pass);
      nn::copy_rows(states, rows, pass.in);
      nn::copy_rows(actions, rows, pass.actions);
      nn::copy_rows(target, rows, pass.target);
      const nn::Tensor& q = critic.forward_shard(pass.in, pass.actions, pass);
      pass.loss =
          nn::mse_loss_partial_into(q, pass.target, batch, pass.loss_grad);
      critic.backward_shard(pass.in, pass.actions, pass.loss_grad, pass);
      nn::paste_rows(pass.grad_actions, rows, grad_actions);
    }
    nn::test::zero_gradients(critic.layers());
    nn::reduce_gradients(passes, blocks, critic.layers());

    expect_grads_match(layer_grads(critic.layers()), row_sum,
                       batch == nn::kRowsPerBlock);
    for (std::size_t i = 0; i < grad_actions.size(); ++i)
      EXPECT_EQ(grad_actions.data()[i], row_grad_actions.data()[i]);

    const auto f = [&](const nn::Tensor& a) {
      return nn::test::mse_value(critic.predict(states, a), target);
    };
    EXPECT_LT(nn::max_gradient_error(f, actions, grad_actions), 1e-5);
  }
}

// The refiner's threshold fit is dimension-parallel; thresholds must not
// depend on the pool.
TEST(ParallelTraining, RefinerThresholdsBitIdenticalWithPool) {
  const auto data = make_dataset(6, 6, 400, 29);
  envmodel::DynamicsModelConfig config;
  config.epochs = 2;
  config.seed = 5;

  const auto run = [&](common::ThreadPool* pool) {
    envmodel::DynamicsModel model(6, 6, config);
    model.enable_parallel_training(pool);
    model.fit(data);
    envmodel::ModelRefiner refiner(&model, envmodel::RefinerConfig{});
    refiner.enable_parallel(pool);
    refiner.fit_thresholds(data);
    return std::make_pair(refiner.tau(), refiner.omega());
  };

  const auto base = run(nullptr);
  common::ThreadPool pool8(8);
  EXPECT_EQ(run(&pool8), base);
}

}  // namespace
}  // namespace miras
