#include "core/trainer_config.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

namespace miras::core {
namespace {

TEST(TrainerConfig, MsdPaperPresetMatchesSectionVIA3) {
  const MirasConfig config = miras_msd_config();
  EXPECT_EQ(config.model.hidden_dims, (std::vector<std::size_t>{20, 20, 20}));
  EXPECT_EQ(config.ddpg.actor_hidden,
            (std::vector<std::size_t>{256, 256, 256}));
  EXPECT_EQ(config.ddpg.critic_hidden,
            (std::vector<std::size_t>{256, 256, 256}));
  EXPECT_EQ(config.outer_iterations, 11u);
  EXPECT_EQ(config.real_steps_per_iteration, 1000u);
  EXPECT_EQ(config.reset_interval, 25u);
  EXPECT_EQ(config.rollout_length, 25u);
  EXPECT_EQ(config.eval_steps, 25u);
}

TEST(TrainerConfig, LigoPaperPresetMatchesSectionVIA3) {
  const MirasConfig config = miras_ligo_config();
  EXPECT_EQ(config.model.hidden_dims, (std::vector<std::size_t>{20}));
  EXPECT_EQ(config.ddpg.actor_hidden,
            (std::vector<std::size_t>{512, 512, 512}));
  EXPECT_EQ(config.real_steps_per_iteration, 2000u);
  EXPECT_EQ(config.rollout_length, 10u);
  EXPECT_EQ(config.eval_steps, 100u);
  // Deep DAGs need longer returns (DESIGN.md §3b).
  EXPECT_GE(config.ddpg.n_step, 10u);
}

TEST(TrainerConfig, FastPresetsAreStrictlyCheaper) {
  const MirasConfig msd_full = miras_msd_config();
  const MirasConfig msd_fast = miras_msd_fast_config();
  EXPECT_LT(msd_fast.outer_iterations, msd_full.outer_iterations);
  EXPECT_LT(msd_fast.real_steps_per_iteration,
            msd_full.real_steps_per_iteration);
  EXPECT_LT(msd_fast.ddpg.actor_hidden.front(),
            msd_full.ddpg.actor_hidden.front());

  const MirasConfig ligo_full = miras_ligo_config();
  const MirasConfig ligo_fast = miras_ligo_fast_config();
  EXPECT_LT(ligo_fast.outer_iterations, ligo_full.outer_iterations);
  EXPECT_LT(ligo_fast.real_steps_per_iteration,
            ligo_full.real_steps_per_iteration);
  EXPECT_LT(ligo_fast.ddpg.actor_hidden.front(),
            ligo_full.ddpg.actor_hidden.front());
}

TEST(TrainerConfig, DefaultsAreInternallyConsistent) {
  for (const MirasConfig& config :
       {miras_msd_config(), miras_ligo_config(), miras_msd_fast_config(),
        miras_ligo_fast_config()}) {
    EXPECT_GT(config.outer_iterations, 0u);
    EXPECT_GT(config.rollout_length, 0u);
    EXPECT_GT(config.reset_interval, 0u);
    EXPECT_GE(config.random_episode_fraction, 0.0);
    EXPECT_GE(config.demo_episode_fraction, 0.0);
    EXPECT_LE(config.random_episode_fraction + config.demo_episode_fraction,
              1.0);
    EXPECT_GE(config.ddpg.gamma, 0.0);
    EXPECT_LT(config.ddpg.gamma, 1.0);
    // Rollouts must be long enough for the configured n-step returns to
    // mature within an episode at least once.
    EXPECT_GE(config.rollout_length, config.ddpg.n_step);
  }
}

TEST(TrainerConfig, FingerprintCoversEveryField) {
  // Checkpoint resume and the dist Hello handshake both refuse a run whose
  // fingerprint differs, so every settable value must move it. One mutation
  // per value, in config_fingerprint's order; each must differ from the
  // default and from every other mutation.
  using Mutation = std::function<void(MirasConfig&)>;
  const std::vector<Mutation> mutations = {
      [](MirasConfig& c) { c.model.hidden_dims = {20, 21}; },
      [](MirasConfig& c) { c.model.learning_rate *= 2.0; },
      [](MirasConfig& c) { c.model.batch_size += 1; },
      [](MirasConfig& c) { c.model.epochs += 1; },
      [](MirasConfig& c) { c.model.seed += 1; },
      [](MirasConfig& c) { c.refiner.percentile_p += 1.0; },
      [](MirasConfig& c) { c.refiner.seed += 1; },
      [](MirasConfig& c) { c.ddpg.actor_hidden = {256, 256}; },
      [](MirasConfig& c) { c.ddpg.critic_hidden = {256, 256}; },
      [](MirasConfig& c) { c.ddpg.actor_learning_rate *= 2.0; },
      [](MirasConfig& c) { c.ddpg.critic_learning_rate *= 2.0; },
      [](MirasConfig& c) { c.ddpg.actor_entropy_coef *= 2.0; },
      [](MirasConfig& c) { c.ddpg.gamma = 0.9; },
      [](MirasConfig& c) { c.ddpg.n_step += 1; },
      [](MirasConfig& c) { c.ddpg.batch_size += 1; },
      [](MirasConfig& c) { c.ddpg.replay_capacity += 1; },
      [](MirasConfig& c) { c.ddpg.warmup += 1; },
      [](MirasConfig& c) { c.ddpg.exploration = rl::ExplorationMode::kNone; },
      [](MirasConfig& c) { c.ddpg.parameter_noise_initial *= 2.0; },
      [](MirasConfig& c) { c.ddpg.action_noise_stddev *= 2.0; },
      [](MirasConfig& c) { c.ddpg.epsilon_random *= 2.0; },
      [](MirasConfig& c) { c.ddpg.epsilon_demo *= 2.0; },
      [](MirasConfig& c) { c.ddpg.log_state_features = false; },
      [](MirasConfig& c) {
        c.ddpg.rounding = rl::RoundingMode::kLargestRemainder;
      },
      [](MirasConfig& c) { c.ddpg.min_consumers_per_type += 1; },
      [](MirasConfig& c) { c.ddpg.seed += 1; },
      [](MirasConfig& c) { c.outer_iterations += 1; },
      [](MirasConfig& c) { c.real_steps_per_iteration += 1; },
      [](MirasConfig& c) { c.reset_interval += 1; },
      [](MirasConfig& c) { c.rollout_length += 1; },
      [](MirasConfig& c) { c.synthetic_rollouts_per_iteration += 1; },
      [](MirasConfig& c) { c.updates_per_synthetic_step += 1; },
      [](MirasConfig& c) { c.eval_steps += 1; },
      [](MirasConfig& c) { c.random_episode_fraction += 0.1; },
      [](MirasConfig& c) { c.demo_episode_fraction += 0.1; },
      [](MirasConfig& c) { c.use_refiner = false; },
      [](MirasConfig& c) { c.rollout_batch += 1; },
      [](MirasConfig& c) { c.collection_burst_probability += 0.1; },
      [](MirasConfig& c) { c.collection_burst_max += 1; },
      [](MirasConfig& c) { c.seed += 1; },
  };
  ASSERT_EQ(mutations.size(), 40u);  // MirasConfig's settable values

  const MirasConfig base;
  std::set<std::uint64_t> seen = {config_fingerprint(base)};
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    MirasConfig mutated = base;
    mutations[i](mutated);
    EXPECT_TRUE(seen.insert(config_fingerprint(mutated)).second)
        << "mutation " << i << " collides with the default or an earlier one";
  }
}

}  // namespace
}  // namespace miras::core
