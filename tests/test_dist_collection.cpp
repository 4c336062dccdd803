// Distributed collection determinism (dist/learner.h): a CollectorPool
// executing the fixed seed-sharded collection schedule must reproduce the
// in-process parallel engine bit for bit — for any collector count, any
// learner thread count, across repeated runs, and across checkpoint/resume.
// Thread-spawned collectors over socketpairs (no fork), so the whole
// suite runs under TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "dist/learner.h"
#include "sim/system.h"
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

EnvFactory make_factory(const EnsembleSetup& setup) {
  return system_factory(setup.make_ensemble(), learner_system_config(setup));
}

/// The in-process reference: seed-sharded collection, no backend.
std::vector<IterationTrace> train_in_process(const EnsembleSetup& setup,
                                             common::ThreadPool* pool) {
  sim::MicroserviceSystem system(setup.make_ensemble(),
                                 learner_system_config(setup));
  MirasAgent agent(&system, tiny_config(9));
  agent.enable_parallel_training(pool);
  return agent.train();
}

/// The same schedule executed by `collectors` thread-spawned collectors.
std::vector<IterationTrace> train_distributed(const EnsembleSetup& setup,
                                              std::size_t collectors,
                                              common::ThreadPool* pool) {
  sim::MicroserviceSystem system(setup.make_ensemble(),
                                 learner_system_config(setup));
  const MirasConfig config = tiny_config(9);
  const EnvFactory factory = make_factory(setup);
  const std::uint64_t fingerprint = config_fingerprint(config);
  dist::PoolOptions options;
  options.collectors = collectors;
  options.config_fingerprint = fingerprint;
  dist::CollectorPool backend(
      options, dist::make_thread_spawner(config, factory, fingerprint));
  MirasAgent agent(&system, config);
  agent.enable_parallel_training(pool);
  agent.enable_distributed_collection(&backend);
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

TEST(DistCollection, MatchesInProcessEngineBitIdentically) {
  // The core determinism contract: distributing the collection phase over
  // K collectors changes *placement*, never results. Checked on both
  // ensembles at 1 and 8 learner threads and at two collector counts,
  // against the in-process engine at both thread counts.
  for (const EnsembleSetup& setup : both_ensembles()) {
    SCOPED_TRACE(setup.name);
    common::ThreadPool eight(8);
    const auto reference_serial = train_in_process(setup, nullptr);
    const auto reference_parallel = train_in_process(setup, &eight);
    expect_identical_traces(reference_serial, reference_parallel);
    const auto two_collectors = train_distributed(setup, 2, nullptr);
    const auto three_collectors = train_distributed(setup, 3, &eight);
    expect_identical_traces(reference_serial, two_collectors);
    expect_identical_traces(reference_serial, three_collectors);
  }
}

TEST(DistCollection, IdenticalAcrossRepeatedRuns) {
  const EnsembleSetup setup = both_ensembles()[0];
  const auto first = train_distributed(setup, 2, nullptr);
  const auto second = train_distributed(setup, 2, nullptr);
  expect_identical_traces(first, second);
}

TEST(DistCollection, NullBackendRevertsToLocalExecution) {
  const EnsembleSetup setup = both_ensembles()[0];
  sim::MicroserviceSystem system(setup.make_ensemble(),
                                 learner_system_config(setup));
  MirasAgent agent(&system, tiny_config(9));
  agent.enable_distributed_collection(nullptr);  // no-op, stays local
  expect_identical_traces(train_in_process(setup, nullptr), agent.train());
}

TEST(DistCollection, CheckpointResumeContinuesBitIdentically) {
  // Kill-and-resume across the distributed topology: iteration 1 under a
  // 2-collector pool, checkpoint, then a *fresh* learner process image
  // (new agent, new pool, new collectors) resumes iteration 2. The resumed
  // trace must equal the uninterrupted run's.
  const EnsembleSetup setup = both_ensembles()[0];
  const MirasConfig config = tiny_config(9);
  const EnvFactory factory = make_factory(setup);
  const std::uint64_t fingerprint = config_fingerprint(config);
  const std::string path = ::testing::TempDir() + "dist_resume.ckpt";

  const auto uninterrupted = train_distributed(setup, 2, nullptr);

  auto make_backend = [&] {
    dist::PoolOptions options;
    options.collectors = 2;
    options.config_fingerprint = fingerprint;
    return std::make_unique<dist::CollectorPool>(
        options, dist::make_thread_spawner(config, factory, fingerprint));
  };

  IterationTrace resumed_second;
  {
    sim::MicroserviceSystem system(setup.make_ensemble(),
                                   learner_system_config(setup));
    const auto backend = make_backend();
    MirasAgent agent(&system, config);
    agent.enable_distributed_collection(backend.get());
    (void)agent.run_iteration();
    agent.save_checkpoint(path);
  }
  {
    sim::MicroserviceSystem system(setup.make_ensemble(),
                                   learner_system_config(setup));
    const auto backend = make_backend();
    MirasAgent agent(&system, config);
    agent.enable_distributed_collection(backend.get());
    agent.restore_checkpoint(path);
    ASSERT_EQ(agent.iterations_run(), 1u);
    resumed_second = agent.run_iteration();
  }

  EXPECT_EQ(resumed_second.dataset_size, uninterrupted[1].dataset_size);
  EXPECT_EQ(resumed_second.model_train_loss, uninterrupted[1].model_train_loss);
  EXPECT_EQ(resumed_second.eval_aggregate_reward,
            uninterrupted[1].eval_aggregate_reward);
  EXPECT_EQ(resumed_second.parameter_noise_stddev,
            uninterrupted[1].parameter_noise_stddev);
}

}  // namespace
}  // namespace miras::core
