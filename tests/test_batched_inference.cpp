// Bit-identity of the batched/workspace inference paths against their
// per-sample and allocating counterparts (the PR-wide invariant the
// lockstep rollout batching rests on). Every comparison is exact double
// equality — same bits, not tolerances.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"
#include "envmodel/synthetic_env.h"
#include "nn/critic_network.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"

namespace miras {
namespace {

nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng,
                         double lo = -1.0, double hi = 1.0) {
  nn::Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) t.data()[i] = rng.uniform(lo, hi);
  return t;
}

std::vector<double> row_of(const nn::Tensor& t, std::size_t r) {
  std::vector<double> row(t.cols());
  for (std::size_t j = 0; j < t.cols(); ++j) row[j] = t(r, j);
  return row;
}

nn::Network make_net(Rng& rng, nn::Activation output_activation =
                                   nn::Activation::kIdentity) {
  nn::MlpSpec spec;
  spec.input_dim = 5;
  spec.hidden_dims = {11, 7};
  spec.output_dim = 3;
  spec.output_activation = output_activation;
  return nn::Network(spec, rng);
}

TEST(BatchedInference, NetworkPredictBatchMatchesPredict) {
  for (const nn::Activation out_act :
       {nn::Activation::kIdentity, nn::Activation::kTanh,
        nn::Activation::kSoftmax}) {
    Rng rng(21);
    nn::Network net = make_net(rng, out_act);
    const nn::Tensor x = random_tensor(9, 5, rng);

    const nn::Tensor reference = net.predict(x);
    nn::Workspace ws;
    nn::Tensor batched;
    net.predict_batch(x, ws, batched);

    ASSERT_EQ(batched.rows(), reference.rows());
    ASSERT_EQ(batched.cols(), reference.cols());
    for (std::size_t i = 0; i < reference.size(); ++i)
      EXPECT_EQ(batched.data()[i], reference.data()[i]) << "flat index " << i;
  }
}

TEST(BatchedInference, NetworkPredictOneMatchesBatchRow) {
  // Row r of a batched forward == predict_one of row r, through both the
  // allocating and the workspace predict_one — the kernel invariant that
  // makes lockstep rollouts bit-identical to per-sample rollouts.
  Rng rng(22);
  nn::Network net = make_net(rng, nn::Activation::kSoftmax);
  const nn::Tensor x = random_tensor(6, 5, rng);

  nn::Workspace ws;
  nn::Tensor batched;
  net.predict_batch(x, ws, batched);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> allocating = net.predict_one(row_of(x, r));
    std::vector<double> reused;
    net.predict_one(row_of(x, r), ws, reused);
    EXPECT_EQ(allocating, reused) << "row " << r;
    EXPECT_EQ(row_of(batched, r), allocating) << "row " << r;
  }
}

TEST(BatchedInference, WorkspaceReuseDoesNotLeakStateAcrossCalls) {
  // A workspace that served other shapes and other networks must produce
  // exactly what a fresh one does.
  Rng rng(23);
  nn::Network net = make_net(rng);
  nn::Network other = make_net(rng, nn::Activation::kTanh);
  const nn::Tensor big = random_tensor(17, 5, rng);
  const nn::Tensor x = random_tensor(4, 5, rng);

  nn::Workspace dirty;
  nn::Tensor scratch_out;
  other.predict_batch(big, dirty, scratch_out);  // pollute buffers
  nn::Tensor from_dirty;
  net.predict_batch(x, dirty, from_dirty);

  nn::Workspace fresh;
  nn::Tensor from_fresh;
  net.predict_batch(x, fresh, from_fresh);

  ASSERT_EQ(from_dirty.size(), from_fresh.size());
  for (std::size_t i = 0; i < from_fresh.size(); ++i)
    EXPECT_EQ(from_dirty.data()[i], from_fresh.data()[i]);
}

TEST(BatchedInference, ForwardBackwardScratchReuseMatchesFreshNetwork) {
  // A TrainPass keeps its caches and gradient accumulators across
  // minibatches; after a full 16-row block, a ragged 7-row block through
  // the same pass must give exactly what a fresh pass on a never-used
  // clone computes.
  Rng rng(24);
  nn::Network net = make_net(rng, nn::Activation::kTanh);
  nn::Network clone = net;  // identical parameters

  const nn::Tensor a = random_tensor(nn::kRowsPerBlock, 5, rng);
  const nn::Tensor a_target = random_tensor(nn::kRowsPerBlock, 3, rng);
  const nn::Tensor b = random_tensor(7, 5, rng);
  const nn::Tensor b_target = random_tensor(7, 3, rng);

  const auto block = [](const nn::Network& n, const nn::Tensor& x,
                        const nn::Tensor& target, nn::TrainPass& pass) {
    nn::prepare_pass(n.layers(), pass);
    pass.loss = nn::mse_loss_partial_into(n.forward_shard(x, pass), target,
                                          target.size(), pass.loss_grad);
    return n.backward_shard(x, pass.loss_grad, pass);
  };

  nn::TrainPass reused;
  (void)block(net, a, a_target, reused);  // dirty every buffer
  const nn::Tensor grad_in_reused = block(net, b, b_target, reused);

  nn::TrainPass fresh;
  const nn::Tensor grad_in_fresh = block(clone, b, b_target, fresh);

  EXPECT_EQ(reused.loss, fresh.loss);
  ASSERT_EQ(grad_in_reused.size(), grad_in_fresh.size());
  for (std::size_t i = 0; i < grad_in_fresh.size(); ++i)
    EXPECT_EQ(grad_in_reused.data()[i], grad_in_fresh.data()[i]);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const nn::Tensor& post = reused.post[l];
    const nn::Tensor& post_fresh = fresh.post[l];
    ASSERT_TRUE(post.same_shape(post_fresh));
    for (std::size_t i = 0; i < post.size(); ++i)
      EXPECT_EQ(post.data()[i], post_fresh.data()[i]) << "layer " << l;
    const nn::Tensor& wg = reused.grads[l].weight;
    const nn::Tensor& wg_fresh = fresh.grads[l].weight;
    ASSERT_EQ(wg.size(), wg_fresh.size());
    for (std::size_t i = 0; i < wg.size(); ++i)
      EXPECT_EQ(wg.data()[i], wg_fresh.data()[i]) << "layer " << l;
    const nn::Tensor& bg = reused.grads[l].bias;
    const nn::Tensor& bg_fresh = fresh.grads[l].bias;
    ASSERT_EQ(bg.size(), bg_fresh.size());
    for (std::size_t i = 0; i < bg.size(); ++i)
      EXPECT_EQ(bg.data()[i], bg_fresh.data()[i]) << "layer " << l;
  }
}

TEST(BatchedInference, CriticPredictBatchMatchesPredict) {
  Rng rng(25);
  nn::CriticSpec spec;
  spec.state_dim = 5;
  spec.action_dim = 3;
  spec.hidden_dims = {13, 9};
  nn::CriticNetwork critic(spec, rng);
  const nn::Tensor states = random_tensor(7, 5, rng);
  const nn::Tensor actions = random_tensor(7, 3, rng, 0.0, 1.0);

  const nn::Tensor reference = critic.predict(states, actions);
  nn::Workspace ws;
  nn::Tensor batched;
  critic.predict_batch(states, actions, ws, batched);

  ASSERT_EQ(batched.rows(), reference.rows());
  ASSERT_EQ(batched.cols(), reference.cols());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(batched.data()[i], reference.data()[i]);
}

envmodel::TransitionDataset make_dataset(std::size_t state_dim,
                                         std::size_t action_dim, Rng& rng) {
  envmodel::TransitionDataset data(state_dim, action_dim);
  for (int i = 0; i < 80; ++i) {
    envmodel::Transition t;
    for (std::size_t j = 0; j < state_dim; ++j)
      t.state.push_back(rng.uniform(0, 40));
    for (std::size_t j = 0; j < action_dim; ++j)
      t.action.push_back(static_cast<int>(rng.uniform_int(0, 4)));
    for (std::size_t j = 0; j < state_dim; ++j)
      t.next_state.push_back(
          std::max(t.state[j] + rng.uniform(-3, 3), 0.0));
    data.add(std::move(t));
  }
  return data;
}

TEST(BatchedInference, DynamicsModelPredictBatchMatchesPredict) {
  Rng rng(26);
  envmodel::TransitionDataset data = make_dataset(4, 4, rng);
  envmodel::DynamicsModelConfig config;
  config.hidden_dims = {12, 12};
  config.epochs = 3;
  envmodel::DynamicsModel model(4, 4, config);
  model.fit(data);

  const std::size_t batch = 9;
  nn::Tensor states(batch, 4);
  std::vector<std::vector<int>> actions;
  for (std::size_t r = 0; r < batch; ++r) {
    states.set_row(r, data[r].state);
    actions.push_back(data[r].action);
  }

  nn::Workspace ws;
  nn::Tensor batched;
  model.predict_batch(states, actions, ws, batched);
  for (std::size_t r = 0; r < batch; ++r) {
    const std::vector<double> one = model.predict(data[r].state, actions[r]);
    EXPECT_EQ(row_of(batched, r), one) << "row " << r;
  }
}

TEST(BatchedInference, RefinerPredictBatchMatchesPerLanePredict) {
  // Lane r of predict_batch must consume exactly the rng stream a
  // sequential predict() on a reseed()ed refiner would, and produce the
  // same bits — including lanes pushed below the lend threshold.
  Rng rng(27);
  envmodel::TransitionDataset data = make_dataset(4, 4, rng);
  envmodel::DynamicsModelConfig config;
  config.hidden_dims = {12, 12};
  config.epochs = 3;
  envmodel::DynamicsModel model(4, 4, config);
  model.fit(data);
  envmodel::ModelRefiner refiner(&model, envmodel::RefinerConfig{});
  refiner.fit_thresholds(data);

  const std::size_t batch = 6;
  nn::Tensor states(batch, 4);
  std::vector<std::vector<int>> actions;
  for (std::size_t r = 0; r < batch; ++r) {
    std::vector<double> state = data[r].state;
    // Force some lanes under tau so the lend path actually fires.
    if (r % 2 == 0) state[r % 4] = 0.0;
    states.set_row(r, state);
    actions.push_back(data[r].action);
  }

  std::vector<Rng> lane_rngs;
  std::vector<Rng*> rng_ptrs;
  for (std::size_t r = 0; r < batch; ++r)
    lane_rngs.emplace_back(shard_seed(99, r));
  for (std::size_t r = 0; r < batch; ++r) rng_ptrs.push_back(&lane_rngs[r]);

  nn::Workspace ws;
  nn::Tensor batched;
  envmodel::ModelRefiner batch_refiner = refiner;
  batch_refiner.predict_batch(states, actions, rng_ptrs, ws, batched);

  for (std::size_t r = 0; r < batch; ++r) {
    envmodel::ModelRefiner sequential = refiner;
    sequential.reseed(shard_seed(99, r));
    const std::vector<double> one = sequential.predict(row_of(states, r),
                                                       actions[r]);
    EXPECT_EQ(row_of(batched, r), one) << "lane " << r;
  }
}

TEST(BatchedInference, SyntheticEnvBatchMatchesStandaloneEnv) {
  // Full lockstep trajectory identity: every lane of a SyntheticEnvBatch
  // (with refiner) must retrace the standalone SyntheticEnv that owns the
  // same seeds, step for step — regardless of which other lanes share the
  // batch.
  Rng rng(28);
  envmodel::TransitionDataset data = make_dataset(4, 4, rng);
  envmodel::DynamicsModelConfig config;
  config.hidden_dims = {12, 12};
  config.epochs = 3;
  envmodel::DynamicsModel model(4, 4, config);
  model.fit(data);
  envmodel::ModelRefiner refiner(&model, envmodel::RefinerConfig{});
  refiner.fit_thresholds(data);

  constexpr std::size_t kLanes = 5;
  constexpr std::size_t kSteps = 7;
  constexpr int kBudget = 12;
  std::vector<std::vector<int>> allocations;
  for (std::size_t r = 0; r < kLanes; ++r)
    allocations.push_back({static_cast<int>(r % 3), 3, 2,
                           static_cast<int>((r + 1) % 4)});

  envmodel::ModelRefiner batch_refiner = refiner;
  envmodel::SyntheticEnvBatch batch(&model, &batch_refiner, &data, kBudget);
  for (std::size_t r = 0; r < kLanes; ++r)
    batch.add_lane(shard_seed(5, r), shard_seed(6, r));
  batch.reset_all();

  std::vector<envmodel::ModelRefiner> lane_refiners(kLanes, refiner);
  std::vector<envmodel::SyntheticEnv> envs;
  std::vector<std::vector<double>> lane_states;
  for (std::size_t r = 0; r < kLanes; ++r) {
    lane_refiners[r].reseed(shard_seed(6, r));
    envs.emplace_back(&model, &lane_refiners[r], &data, kBudget,
                      shard_seed(5, r));
  }
  for (std::size_t r = 0; r < kLanes; ++r) lane_states.push_back(envs[r].reset());

  for (std::size_t r = 0; r < kLanes; ++r)
    ASSERT_EQ(batch.state(r), lane_states[r]) << "lane " << r << " at reset";

  for (std::size_t t = 0; t < kSteps; ++t) {
    batch.step_all(allocations);
    for (std::size_t r = 0; r < kLanes; ++r) {
      envs[r].step(allocations[r]);
      EXPECT_EQ(batch.state(r), envs[r].current_state())
          << "lane " << r << " at step " << t;
      EXPECT_EQ(batch.last_reward(r), envs[r].last_reward())
          << "lane " << r << " at step " << t;
    }
  }
}

TEST(BatchedInference, SyntheticEnvBatchWithoutRefinerMatchesStandaloneEnv) {
  Rng rng(29);
  envmodel::TransitionDataset data = make_dataset(4, 4, rng);
  envmodel::DynamicsModelConfig config;
  config.hidden_dims = {12, 12};
  config.epochs = 3;
  envmodel::DynamicsModel model(4, 4, config);
  model.fit(data);

  constexpr int kBudget = 12;
  const std::vector<std::vector<int>> allocations(3,
                                                  std::vector<int>{3, 3, 3, 3});
  envmodel::SyntheticEnvBatch batch(&model, nullptr, &data, kBudget);
  for (std::size_t r = 0; r < 3; ++r) batch.add_lane(shard_seed(8, r), 0);
  batch.reset_all();

  for (std::size_t r = 0; r < 3; ++r) {
    envmodel::SyntheticEnv env(&model, nullptr, &data, kBudget,
                               shard_seed(8, r));
    std::vector<double> state = env.reset();
    ASSERT_EQ(batch.state(r), state) << "lane " << r;
  }
  for (std::size_t t = 0; t < 4; ++t) batch.step_all(allocations);
  for (std::size_t r = 0; r < 3; ++r) {
    envmodel::SyntheticEnv env(&model, nullptr, &data, kBudget,
                               shard_seed(8, r));
    (void)env.reset();
    for (std::size_t t = 0; t < 4; ++t) env.step(allocations[r]);
    EXPECT_EQ(batch.state(r), env.current_state()) << "lane " << r;
    EXPECT_EQ(batch.last_reward(r), env.last_reward()) << "lane " << r;
  }
}

}  // namespace
}  // namespace miras
