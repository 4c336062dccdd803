#include "envmodel/synthetic_env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/contracts.h"

namespace miras::envmodel {
namespace {

TransitionDataset simple_dataset() {
  TransitionDataset data(2, 2);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> s{rng.uniform(0.0, 20.0),
                                rng.uniform(0.0, 20.0)};
    const std::vector<int> a{static_cast<int>(rng.uniform_int(0, 5)),
                             static_cast<int>(rng.uniform_int(0, 5))};
    const std::vector<double> next{
        std::max(0.0, s[0] + 3.0 - 2.0 * a[0]),
        std::max(0.0, s[1] + 3.0 - 2.0 * a[1])};
    data.add(Transition{s, a, next, 1.0 - next[0] - next[1]});
  }
  return data;
}

DynamicsModelConfig tiny_config() {
  DynamicsModelConfig config;
  config.hidden_dims = {16};
  config.epochs = 80;
  config.seed = 2;
  return config;
}

class SyntheticEnvTest : public ::testing::Test {
 protected:
  SyntheticEnvTest() : data_(simple_dataset()), model_(2, 2, tiny_config()) {
    model_.fit(data_);
  }
  TransitionDataset data_;
  DynamicsModel model_;
};

TEST_F(SyntheticEnvTest, DimensionsFromModel) {
  SyntheticEnv env(&model_, nullptr, &data_, 10, 3);
  EXPECT_EQ(env.state_dim(), 2u);
  EXPECT_EQ(env.action_dim(), 2u);
  EXPECT_EQ(env.consumer_budget(), 10);
}

TEST_F(SyntheticEnvTest, ResetSamplesDatasetStates) {
  SyntheticEnv env(&model_, nullptr, &data_, 10, 3);
  std::set<double> seen_first_dims;
  for (int i = 0; i < 20; ++i) {
    const auto state = env.reset();
    ASSERT_EQ(state.size(), 2u);
    seen_first_dims.insert(state[0]);
    // Must be an exact state from the dataset.
    bool found = false;
    for (std::size_t d = 0; d < data_.size(); ++d)
      if (data_[d].state == state) found = true;
    EXPECT_TRUE(found);
  }
  EXPECT_GT(seen_first_dims.size(), 5u);  // actually varies
}

TEST_F(SyntheticEnvTest, StepUsesModelPrediction) {
  SyntheticEnv env(&model_, nullptr, &data_, 10, 3);
  const auto state = env.reset();
  const std::vector<int> action{2, 2};
  const auto predicted = model_.predict(state, action);
  env.step(action);
  const std::vector<double>& next = env.current_state();
  for (std::size_t j = 0; j < 2; ++j)
    EXPECT_DOUBLE_EQ(next[j], std::max(predicted[j], 0.0));
  EXPECT_DOUBLE_EQ(env.last_reward(), DynamicsModel::reward_of(next));
}

TEST_F(SyntheticEnvTest, StateAdvancesAcrossSteps) {
  SyntheticEnv env(&model_, nullptr, &data_, 10, 3);
  // Each step feeds the previous step's clamped prediction back in.
  std::vector<double> expected = env.reset();
  for (int t = 0; t < 2; ++t) {
    expected = model_.predict(expected, {1, 1});
    for (double& w : expected) w = std::max(w, 0.0);
    env.step({1, 1});
    EXPECT_EQ(env.current_state(), expected) << "step " << t;
  }
}

TEST_F(SyntheticEnvTest, StatesNeverNegative) {
  SyntheticEnv env(&model_, nullptr, &data_, 10, 4);
  env.reset();
  for (int t = 0; t < 50; ++t) {
    env.step({5, 5});
    for (const double w : env.current_state()) EXPECT_GE(w, 0.0);
  }
}

TEST_F(SyntheticEnvTest, BudgetEnforced) {
  SyntheticEnv env(&model_, nullptr, &data_, 4, 3);
  env.reset();
  EXPECT_THROW(env.step({3, 3}), ContractViolation);
  EXPECT_THROW(env.step({-1, 1}), ContractViolation);
  EXPECT_THROW(env.step({1}), ContractViolation);
  EXPECT_NO_THROW(env.step({2, 2}));
}

TEST_F(SyntheticEnvTest, RefinerIsUsedWhenProvided) {
  ModelRefiner refiner(&model_, RefinerConfig{20.0, 5});
  refiner.fit_thresholds(data_);
  SyntheticEnv with(&model_, &refiner, &data_, 10, 6);
  SyntheticEnv without(&model_, nullptr, &data_, 10, 6);
  // Starting states below tau (~20th percentile) trigger rho-lending; with
  // a no-op action the refined and raw predictions differ by model error,
  // which is nonzero, so the trajectories must diverge at least sometimes.
  // (A strong drain action would clamp both paths to exactly 0 — use none.)
  int diverged = 0;
  for (int i = 0; i < 30; ++i) {
    with.reset();
    without.reset();
    with.step({0, 0});
    without.step({0, 0});
    if (with.current_state() != without.current_state()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST_F(SyntheticEnvTest, DeterministicGivenSeed) {
  SyntheticEnv a(&model_, nullptr, &data_, 10, 7);
  SyntheticEnv b(&model_, nullptr, &data_, 10, 7);
  EXPECT_EQ(a.reset(), b.reset());
  for (int t = 0; t < 10; ++t) {
    a.step({2, 1});
    b.step({2, 1});
    EXPECT_EQ(a.current_state(), b.current_state());
    EXPECT_EQ(a.last_reward(), b.last_reward());
  }
}

TEST_F(SyntheticEnvTest, NullPointersRejected) {
  EXPECT_THROW(SyntheticEnv(nullptr, nullptr, &data_, 10, 1),
               ContractViolation);
  EXPECT_THROW(SyntheticEnv(&model_, nullptr, nullptr, 10, 1),
               ContractViolation);
  EXPECT_THROW(SyntheticEnv(&model_, nullptr, &data_, 0, 1),
               ContractViolation);
}

}  // namespace
}  // namespace miras::envmodel
