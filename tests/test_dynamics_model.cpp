#include "envmodel/dynamics_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "common/rng.h"

namespace miras::envmodel {
namespace {

// Synthetic linear queue dynamics: w' = max(0, w + arrivals - drain * m),
// deterministic given (w, m), so a correct model can fit it near-exactly.
TransitionDataset linear_dynamics_dataset(std::size_t count,
                                          std::uint64_t seed) {
  TransitionDataset data(2, 2);
  Rng rng(seed);
  const double arrivals0 = 4.0, arrivals1 = 6.0;
  const double drain0 = 2.0, drain1 = 3.0;
  std::vector<double> w{10.0, 10.0};
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<int> m{static_cast<int>(rng.uniform_int(0, 6)),
                             static_cast<int>(rng.uniform_int(0, 6))};
    std::vector<double> next{
        std::max(0.0, w[0] + arrivals0 - drain0 * m[0]),
        std::max(0.0, w[1] + arrivals1 - drain1 * m[1])};
    data.add(Transition{w, m, next, 1.0 - next[0] - next[1]});
    w = next;
    if ((i + 1) % 30 == 0) w = {rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)};
  }
  return data;
}

DynamicsModelConfig small_config() {
  DynamicsModelConfig config;
  config.hidden_dims = {32, 32};
  config.epochs = 150;
  config.learning_rate = 3e-3;
  config.seed = 3;
  return config;
}

TEST(DynamicsModel, RequiresFitBeforePredict) {
  DynamicsModel model(2, 2, small_config());
  EXPECT_FALSE(model.is_fitted());
  EXPECT_THROW(model.predict({1.0, 2.0}, {1, 1}), ContractViolation);
}

TEST(DynamicsModel, FitsLinearQueueDynamics) {
  const TransitionDataset data = linear_dynamics_dataset(2000, 1);
  const auto [train, test] = data.split_tail(200);
  DynamicsModel model(2, 2, small_config());
  model.fit(train);
  // Mean squared error in raw units; states range to ~40, so 1.0 is tight.
  EXPECT_LT(model.evaluate(test), 1.5);
}

TEST(DynamicsModel, PredictionTracksActionEffect) {
  const TransitionDataset data = linear_dynamics_dataset(2000, 2);
  DynamicsModel model(2, 2, small_config());
  model.fit(data);
  // More consumers on queue 0 must predict lower next WIP for queue 0.
  const std::vector<double> state{20.0, 20.0};
  const auto few = model.predict(state, {0, 3});
  const auto many = model.predict(state, {6, 3});
  EXPECT_GT(few[0] - many[0], 5.0);
}

TEST(DynamicsModel, IncrementalRefitImproves) {
  const TransitionDataset data = linear_dynamics_dataset(1500, 3);
  DynamicsModelConfig config = small_config();
  config.epochs = 15;
  DynamicsModel model(2, 2, config);
  model.fit(data);
  const double after_first = model.evaluate(data);
  for (int i = 0; i < 6; ++i) model.fit(data);
  EXPECT_LT(model.evaluate(data), after_first);
}

TEST(DynamicsModel, DeltaTargetsLearn) {
  const TransitionDataset data = linear_dynamics_dataset(2000, 4);
  DynamicsModel model(2, 2, small_config());
  model.fit(data);
  EXPECT_LT(model.evaluate(data), 3.0);
}

TEST(DynamicsModel, RewardOfMatchesEquationOne) {
  EXPECT_DOUBLE_EQ(DynamicsModel::reward_of({2.0, 3.0, 5.0}), 1.0 - 10.0);
  EXPECT_DOUBLE_EQ(DynamicsModel::reward_of({0.0}), 1.0);
}

TEST(DynamicsModel, EvaluateRejectsDimensionMismatch) {
  DynamicsModel model(2, 2, small_config());
  TransitionDataset wrong(3, 2);
  EXPECT_THROW(model.fit(wrong), ContractViolation);
}

TEST(DynamicsModel, FitRejectsEmptyDataset) {
  DynamicsModel model(2, 2, small_config());
  TransitionDataset empty(2, 2);
  EXPECT_THROW(model.fit(empty), ContractViolation);
}

TEST(DynamicsModel, IterativeRolloutStaysBoundedOnLearnedSystem) {
  // Closed-loop stability: feeding predictions back in (as policy training
  // does) must not diverge on the well-covered region.
  const TransitionDataset data = linear_dynamics_dataset(2500, 5);
  DynamicsModel model(2, 2, small_config());
  model.fit(data);
  std::vector<double> state{15.0, 15.0};
  for (int t = 0; t < 30; ++t) {
    state = model.predict(state, {3, 3});
    for (double& w : state) w = std::max(w, 0.0);
    for (const double w : state) {
      EXPECT_TRUE(std::isfinite(w));
      EXPECT_LT(w, 200.0);
    }
  }
}

TEST(DynamicsModel, DeterministicGivenSeed) {
  const TransitionDataset data = linear_dynamics_dataset(500, 6);
  DynamicsModelConfig config = small_config();
  config.epochs = 10;
  DynamicsModel a(2, 2, config);
  DynamicsModel b(2, 2, config);
  a.fit(data);
  b.fit(data);
  const auto pa = a.predict({5.0, 5.0}, {2, 2});
  const auto pb = b.predict({5.0, 5.0}, {2, 2});
  EXPECT_EQ(pa, pb);
}

}  // namespace
}  // namespace miras::envmodel
