#include "core/collection.h"

#include <optional>
#include <utility>

#include "common/contracts.h"
#include "rl/action.h"
#include "sim/system.h"

namespace miras::core {

EnvFactory system_factory(workflows::Ensemble ensemble,
                          sim::SystemConfig config) {
  return [ensemble = std::move(ensemble),
          config](std::uint64_t seed)
             -> std::unique_ptr<sim::MicroserviceSystem> {
    sim::SystemConfig episode_config = config;
    episode_config.seed = seed;
    return std::make_unique<sim::MicroserviceSystem>(ensemble, episode_config);
  };
}

std::unique_ptr<sim::MicroserviceSystem> acquire_system(
    common::ObjectPool<sim::MicroserviceSystem>& pool,
    const EnvFactory& make_env, std::uint64_t seed) {
  std::unique_ptr<sim::MicroserviceSystem> system = pool.try_acquire();
  if (system != nullptr) {
    system->reseed(seed);
  } else {
    system = make_env(seed);
    MIRAS_EXPECTS(system != nullptr);
  }
  return system;
}

CollectionBehavior pick_collection_behavior(const MirasConfig& config,
                                            Rng& rng) {
  const double u = rng.uniform();
  if (u < config.demo_episode_fraction) return CollectionBehavior::kDemo;
  if (u < config.demo_episode_fraction + config.random_episode_fraction)
    return CollectionBehavior::kRandom;
  return CollectionBehavior::kPolicy;
}

void maybe_inject_collection_burst(const MirasConfig& config,
                                   sim::MicroserviceSystem& env, Rng& rng) {
  if (config.collection_burst_probability <= 0.0) return;
  if (rng.uniform() >= config.collection_burst_probability) return;
  sim::BurstSpec burst;
  burst.counts.resize(env.ensemble().num_workflows());
  for (auto& count : burst.counts)
    count = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.collection_burst_max)));
  env.inject_burst(burst);
}

std::vector<double> behavior_weights(CollectionBehavior behavior,
                                     const std::vector<double>& state,
                                     std::size_t action_dim, Rng& rng,
                                     rl::ExplorationSnapshot* snapshot) {
  switch (behavior) {
    case CollectionBehavior::kRandom:
      return rl::uniform_simplex_weights(action_dim, rng);
    case CollectionBehavior::kDemo:
      return rl::wip_proportional_weights(state, action_dim, rng);
    case CollectionBehavior::kPolicy:
      MIRAS_EXPECTS(snapshot != nullptr);
      return snapshot->act(state, rng);
  }
  return rl::uniform_simplex_weights(action_dim, rng);
}

CollectedEpisode run_shard_episode(
    const EpisodeSpec& spec, bool random_actions,
    const rl::BehaviorSnapshot& behavior, const MirasConfig& config,
    const EnvFactory& make_env,
    common::ObjectPool<sim::MicroserviceSystem>* env_pool) {
  MIRAS_EXPECTS(env_pool != nullptr);
  // Draw order is the contract: env seed, burst, behaviour, exploration
  // snapshot, then per-step draws. Any reordering changes every seeded run.
  Rng ep_rng(spec.seed);
  const std::uint64_t env_seed = ep_rng.next_u64();
  std::unique_ptr<sim::MicroserviceSystem> env =
      acquire_system(*env_pool, make_env, env_seed);

  std::vector<double> state = env->reset();
  maybe_inject_collection_burst(config, *env, ep_rng);
  const CollectionBehavior chosen =
      random_actions ? CollectionBehavior::kRandom
                     : pick_collection_behavior(config, ep_rng);
  std::optional<rl::ExplorationSnapshot> snapshot;
  if (chosen == CollectionBehavior::kPolicy)
    snapshot = behavior.instantiate(ep_rng);

  CollectedEpisode episode;
  episode.index = spec.index;
  episode.transitions.reserve(spec.length);
  sim::WindowStats window;
  for (std::size_t step = 0; step < spec.length; ++step) {
    const std::vector<double> weights =
        behavior_weights(chosen, state, env->action_dim(), ep_rng,
                         snapshot ? &*snapshot : nullptr);
    const std::vector<int> allocation = rl::guarded_allocation(
        weights, env->consumer_budget(), config.ddpg.rounding,
        config.ddpg.min_consumers_per_type);
    env->step(allocation, window);
    episode.transitions.push_back(
        envmodel::Transition{state, allocation, window.wip, window.reward});
    state = window.wip;
  }
  if (snapshot)
    episode.constraint_violations = snapshot->constraint_violations();
  env_pool->release(std::move(env));
  return episode;
}

}  // namespace miras::core
