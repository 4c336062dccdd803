// Determinism under parallelism: the system-level invariant (DESIGN.md §5)
// that any seed-sharded computation produces bit-identical results for any
// worker count. Exercised end-to-end on both ensembles, for the evaluation
// grid and for the MIRAS training loop. Every comparison below is exact
// double equality — same bits, not tolerances.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "baselines/drs.h"
#include "baselines/heft.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras::core {
namespace {

struct EnsembleSetup {
  std::string name;
  std::function<workflows::Ensemble()> make_ensemble;
  int budget = 0;
};

std::vector<EnsembleSetup> both_ensembles() {
  return {{"msd", [] { return workflows::make_msd_ensemble(); },
           workflows::kMsdConsumerBudget},
          {"ligo", [] { return workflows::make_ligo_ensemble(); },
           workflows::kLigoConsumerBudget}};
}

GridResult run_grid(const EnsembleSetup& setup, common::ThreadPool* pool) {
  const workflows::Ensemble ensemble = setup.make_ensemble();
  EvaluationHarness harness(
      [&setup](std::uint64_t seed) {
        sim::SystemConfig config;
        config.consumer_budget = setup.budget;
        config.seed = seed;
        return std::make_unique<sim::MicroserviceSystem>(setup.make_ensemble(),
                                                         config);
      },
      pool);
  const std::vector<PolicySpec> policies{
      {"heft",
       [&ensemble] {
         return std::make_unique<baselines::HeftPolicy>(ensemble);
       }},
      {"stream", [&ensemble] {
         return std::make_unique<baselines::DrsPolicy>(ensemble);
       }}};
  sim::BurstSpec burst;
  burst.counts.assign(ensemble.num_workflows(), 50);
  const std::vector<ScenarioSpec> scenarios{
      {"steady", ScenarioConfig{sim::BurstSpec{}, 6}},
      {"burst", ScenarioConfig{burst, 6}}};
  return harness.run(policies, scenarios, {11, 12, 13}, 3);
}

void expect_identical(const GridResult& a, const GridResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const EvaluationTrace& ta = a.cells[i].trace;
    const EvaluationTrace& tb = b.cells[i].trace;
    EXPECT_EQ(ta.policy_name, tb.policy_name);
    EXPECT_EQ(ta.response_time_series(), tb.response_time_series());
    EXPECT_EQ(ta.total_wip_series(), tb.total_wip_series());
    EXPECT_EQ(ta.aggregate_reward(), tb.aggregate_reward());
  }
  ASSERT_EQ(a.summaries.size(), b.summaries.size());
  for (std::size_t i = 0; i < a.summaries.size(); ++i) {
    EXPECT_EQ(a.summaries[i].response_time.mean(),
              b.summaries[i].response_time.mean());
    EXPECT_EQ(a.summaries[i].aggregate_reward.mean(),
              b.summaries[i].aggregate_reward.mean());
  }
}

TEST(ParallelDeterminism, EvaluationGridIdenticalAcrossWorkerCounts) {
  for (const EnsembleSetup& setup : both_ensembles()) {
    SCOPED_TRACE(setup.name);
    common::ThreadPool eight(8);
    const GridResult serial = run_grid(setup, nullptr);
    const GridResult parallel = run_grid(setup, &eight);
    expect_identical(serial, parallel);
  }
}

MirasConfig tiny_config(std::uint64_t seed) {
  MirasConfig config;
  config.model.hidden_dims = {16, 16};
  config.model.epochs = 10;
  config.ddpg.actor_hidden = {16, 16};
  config.ddpg.critic_hidden = {16, 16};
  config.ddpg.batch_size = 16;
  config.ddpg.warmup = 16;
  config.outer_iterations = 2;
  config.real_steps_per_iteration = 40;
  config.reset_interval = 10;
  config.rollout_length = 6;
  config.synthetic_rollouts_per_iteration = 6;
  config.rollout_batch = 4;
  config.eval_steps = 5;
  config.seed = seed;
  return config;
}

sim::SystemConfig learner_system_config(const EnsembleSetup& setup) {
  sim::SystemConfig config;
  config.consumer_budget = setup.budget;
  config.seed = 77;
  return config;
}

std::vector<IterationTrace> train_sharded(const EnsembleSetup& setup,
                                          common::ThreadPool* pool) {
  sim::MicroserviceSystem system(setup.make_ensemble(),
                                 learner_system_config(setup));
  MirasAgent agent(&system, tiny_config(9));
  agent.enable_parallel_training(pool);
  return agent.train();
}

void expect_identical_traces(const std::vector<IterationTrace>& a,
                             const std::vector<IterationTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_size, b[i].dataset_size);
    EXPECT_EQ(a[i].model_train_loss, b[i].model_train_loss);
    EXPECT_EQ(a[i].eval_aggregate_reward, b[i].eval_aggregate_reward);
    EXPECT_EQ(a[i].parameter_noise_stddev, b[i].parameter_noise_stddev);
  }
}

TEST(ParallelDeterminism, MirasTrainingIdenticalAcrossWorkerCounts) {
  for (const EnsembleSetup& setup : both_ensembles()) {
    SCOPED_TRACE(setup.name);
    common::ThreadPool eight(8);
    const auto serial = train_sharded(setup, nullptr);
    const auto parallel = train_sharded(setup, &eight);
    expect_identical_traces(serial, parallel);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ParallelDeterminism, DerivedFactoryMatchesHandWrittenFactory) {
  // An agent given only (system, config) derives its collection factory
  // from the system. Training with it inline must equal training on an
  // 8-thread pool with a factory written out by hand, down to the
  // checkpoint bytes.
  for (const EnsembleSetup& setup : both_ensembles()) {
    SCOPED_TRACE(setup.name);
    const std::string derived_path =
        ::testing::TempDir() + "derived_factory_" + setup.name + ".ckpt";
    const std::string written_path =
        ::testing::TempDir() + "written_factory_" + setup.name + ".ckpt";

    sim::MicroserviceSystem derived_system(setup.make_ensemble(),
                                           learner_system_config(setup));
    MirasAgent derived(&derived_system, tiny_config(9));
    const auto derived_traces = derived.train();
    derived.save_checkpoint(derived_path);

    common::ThreadPool pool8(8);
    sim::MicroserviceSystem written_system(setup.make_ensemble(),
                                           learner_system_config(setup));
    MirasAgent written(&written_system, tiny_config(9));
    written.enable_parallel_collection(
        &pool8, [&setup](std::uint64_t seed) -> std::unique_ptr<sim::Env> {
          sim::SystemConfig config;
          config.consumer_budget = setup.budget;
          config.seed = seed;
          return std::make_unique<sim::MicroserviceSystem>(
              setup.make_ensemble(), config);
        });
    const auto written_traces = written.train();
    written.save_checkpoint(written_path);

    expect_identical_traces(derived_traces, written_traces);
    const std::vector<std::uint8_t> derived_bytes = read_file(derived_path);
    EXPECT_FALSE(derived_bytes.empty());
    EXPECT_EQ(derived_bytes, read_file(written_path));
    std::remove(derived_path.c_str());
    std::remove(written_path.c_str());
  }
}

TEST(ParallelDeterminism, ShardedCollectionChainsWithinEpisodes) {
  // The sharded collection path must preserve the dataset's within-episode
  // chaining (each transition's state is the previous next_state) that the
  // dynamics model's multi-step training relies on.
  const EnsembleSetup setup = both_ensembles()[0];
  sim::MicroserviceSystem system(setup.make_ensemble(),
                                 learner_system_config(setup));
  MirasConfig config = tiny_config(9);
  config.outer_iterations = 1;
  MirasAgent agent(&system, config);
  common::ThreadPool pool(4);
  agent.enable_parallel_training(&pool);
  (void)agent.run_iteration();
  const auto& data = agent.dataset();
  ASSERT_EQ(data.size(), 40u);
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (i % 10 == 0) continue;  // episode boundary (fresh factory env)
    EXPECT_EQ(data[i].state, data[i - 1].next_state) << "at index " << i;
  }
}

}  // namespace
}  // namespace miras::core
