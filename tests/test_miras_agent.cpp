// Integration tests of the full MIRAS pipeline (Algorithm 2) on a reduced
// scale: data collection, model fitting, synthetic policy training, and
// real-environment evaluation must compose into something that works.
#include "core/miras_agent.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "baselines/simple.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "rl/action.h"
#include "workflows/msd.h"

namespace miras::core {
namespace {

sim::MicroserviceSystem make_msd_system(std::uint64_t seed = 21) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed;
  return sim::MicroserviceSystem(workflows::make_msd_ensemble(), config);
}

MirasConfig tiny_miras_config() {
  MirasConfig config;
  config.model.hidden_dims = {16, 16};
  config.model.epochs = 20;
  config.ddpg.actor_hidden = {32, 32};
  config.ddpg.critic_hidden = {32, 32};
  config.ddpg.batch_size = 32;
  config.ddpg.warmup = 32;
  config.outer_iterations = 2;
  config.real_steps_per_iteration = 60;
  config.reset_interval = 20;
  config.rollout_length = 10;
  config.synthetic_rollouts_per_iteration = 8;
  config.eval_steps = 10;
  config.seed = 5;
  return config;
}

TEST(MirasAgent, IterationCollectsDataAndTrainsModel) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  const IterationTrace trace = agent.run_iteration();
  EXPECT_EQ(trace.iteration, 1u);
  EXPECT_EQ(trace.dataset_size, 60u);
  EXPECT_GT(trace.model_train_loss, 0.0);
  EXPECT_TRUE(std::isfinite(trace.eval_aggregate_reward));
  EXPECT_TRUE(agent.model().is_fitted());
  EXPECT_TRUE(agent.refiner().has_thresholds());
}

TEST(MirasAgent, DatasetAccumulatesAcrossIterations) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  (void)agent.run_iteration();
  (void)agent.run_iteration();
  EXPECT_EQ(agent.dataset().size(), 120u);
  EXPECT_EQ(agent.iterations_run(), 2u);
}

TEST(MirasAgent, TrainReturnsOneTracePerIteration) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  const auto traces = agent.train();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].iteration, 1u);
  EXPECT_EQ(traces[1].iteration, 2u);
  EXPECT_EQ(traces[1].dataset_size, 120u);
}

TEST(MirasAgent, CollectedActionsRespectBudget) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  (void)agent.run_iteration();
  for (std::size_t i = 0; i < agent.dataset().size(); ++i) {
    EXPECT_TRUE(rl::satisfies_budget(agent.dataset()[i].action,
                                     workflows::kMsdConsumerBudget));
  }
}

TEST(MirasAgent, TransitionsAreChainedWithinEpisodes) {
  auto system = make_msd_system();
  MirasConfig config = tiny_miras_config();
  config.real_steps_per_iteration = 40;
  config.reset_interval = 20;
  MirasAgent agent(&system, config);
  (void)agent.run_iteration();
  const auto& data = agent.dataset();
  // Within an episode, each transition's state is the previous next_state.
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (i % 20 == 0) continue;  // episode boundary (env reset)
    EXPECT_EQ(data[i].state, data[i - 1].next_state) << "at index " << i;
  }
}

TEST(MirasAgent, RefinerDisabledWhenConfigured) {
  auto system = make_msd_system();
  MirasConfig config = tiny_miras_config();
  config.use_refiner = false;
  MirasAgent agent(&system, config);
  (void)agent.run_iteration();
  EXPECT_FALSE(agent.refiner().has_thresholds());
}

TEST(MirasAgent, MakePolicyDrivesEnvWithinBudget) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  (void)agent.run_iteration();
  auto policy = agent.make_policy();
  EXPECT_EQ(policy->name(), "miras");
  auto eval_system = make_msd_system(99);
  const EvaluationTrace trace =
      run_scenario(eval_system, *policy, ScenarioConfig{{}, 5});
  EXPECT_EQ(trace.windows.size(), 5u);
  for (const auto& window : trace.windows)
    EXPECT_TRUE(rl::satisfies_budget(window.allocation,
                                     workflows::kMsdConsumerBudget));
}

TEST(MirasAgent, DeterministicGivenSeeds) {
  auto system_a = make_msd_system(31);
  auto system_b = make_msd_system(31);
  MirasAgent a(&system_a, tiny_miras_config());
  MirasAgent b(&system_b, tiny_miras_config());
  const auto trace_a = a.run_iteration();
  const auto trace_b = b.run_iteration();
  EXPECT_DOUBLE_EQ(trace_a.model_train_loss, trace_b.model_train_loss);
  EXPECT_DOUBLE_EQ(trace_a.eval_aggregate_reward,
                   trace_b.eval_aggregate_reward);
}

TEST(MirasAgent, EvaluateOnRealIsFinite) {
  auto system = make_msd_system();
  MirasAgent agent(&system, tiny_miras_config());
  (void)agent.run_iteration();
  const double reward = agent.evaluate_on_real(5);
  EXPECT_TRUE(std::isfinite(reward));
  EXPECT_LE(reward, 5.0);  // each window's reward is at most 1
}

TEST(ModelFreeDdpg, TrainsWithinBudgetAndActsValidly) {
  auto system = make_msd_system(41);
  ModelFreeConfig config;
  config.ddpg.actor_hidden = {32, 32};
  config.ddpg.critic_hidden = {32, 32};
  config.ddpg.batch_size = 32;
  config.ddpg.warmup = 32;
  config.total_steps = 80;
  config.reset_interval = 20;
  rl::DdpgAgent agent = train_model_free_ddpg(system, config);
  EXPECT_EQ(agent.replay_size(), 80u);
  EXPECT_GT(agent.updates_performed(), 0u);
  const auto alloc = agent.act_allocation({1.0, 2.0, 3.0, 4.0}, false);
  EXPECT_TRUE(rl::satisfies_budget(alloc, workflows::kMsdConsumerBudget));
}

TEST(MirasAgent, CountsConstraintViolationsOfSyntheticRollouts) {
  // Action-space noise leaves the simplex; every exploring act counts as a
  // would-be violation. Iteration 1 collects with random actions (zero
  // violations), so a positive tally must come from the synthetic rollouts,
  // whichever factory and pool the collection runs on.
  auto system = make_msd_system();
  MirasConfig config = tiny_miras_config();
  config.random_episode_fraction = 0.0;
  config.demo_episode_fraction = 0.0;
  config.ddpg.exploration = rl::ExplorationMode::kActionNoise;
  config.ddpg.action_noise_stddev = 0.4;
  config.ddpg.epsilon_random = 0.0;
  config.ddpg.epsilon_demo = 0.0;
  MirasAgent agent(&system, config);
  common::ThreadPool pool(2);
  agent.enable_parallel_collection(
      &pool, [](std::uint64_t seed) -> std::unique_ptr<sim::Env> {
        sim::SystemConfig env_config;
        env_config.consumer_budget = workflows::kMsdConsumerBudget;
        env_config.seed = seed;
        return std::make_unique<sim::MicroserviceSystem>(
            workflows::make_msd_ensemble(), env_config);
      });
  (void)agent.run_iteration();
  EXPECT_GT(agent.ddpg().constraint_violations(), 0u);
}

TEST(MirasAgent, LearnsToBeatFrozenPolicyUnderLoad) {
  // End-to-end sanity on a loaded system: after a few iterations, MIRAS's
  // greedy policy must outperform doing nothing. Uses a reduced — but not
  // minimal — budget: with too little training the policy can still sit in
  // a softmax corner and tie the do-nothing baseline.
  auto system = make_msd_system(51);
  MirasConfig config = miras_msd_fast_config();
  config.outer_iterations = 5;
  config.seed = 5;
  MirasAgent agent(&system, config);
  (void)agent.train();

  auto miras_system = make_msd_system(777);
  auto frozen_system = make_msd_system(777);
  auto policy = agent.make_policy();
  baselines::StaticPolicy frozen({0, 0, 0, 0});
  const ScenarioConfig scenario{sim::BurstSpec{{30, 20, 20}}, 12};
  const auto miras_trace = run_scenario(miras_system, *policy, scenario);
  const auto frozen_trace = run_scenario(frozen_system, frozen, scenario);
  EXPECT_GT(miras_trace.aggregate_reward(), frozen_trace.aggregate_reward());
}

}  // namespace
}  // namespace miras::core
