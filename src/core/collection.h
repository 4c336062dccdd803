// Seed-sharded real-environment episode collection, shared between the
// in-process engine (MirasAgent, inline or on a ThreadPool) and the
// distributed actor-learner topology (src/dist/).
//
// The unit of work is one EpisodeSpec: an episode is a pure function of
// (spec.seed, random_actions, the learner's BehaviorSnapshot, MirasConfig,
// the environment factory) — no shared rng stream, no thread identity, no
// wall clock. Because of that purity, *where* an episode runs is
// invisible to the result: the same specs executed on a thread pool, on a
// collector process across a pipe, or inline all merge to bit-identical
// training state. That is the contract every distributed test leans on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/object_pool.h"
#include "common/rng.h"
#include "core/trainer_config.h"
#include "envmodel/dataset.h"
#include "rl/ddpg.h"
#include "sim/system.h"
#include "workflows/ensemble.h"

namespace miras::core {

/// Episode-level behaviour used for exploration and data collection.
enum class CollectionBehavior { kPolicy, kRandom, kDemo };

/// One seed-sharded unit of real-environment collection. `index` is the
/// episode's position in the collection schedule — the merge key.
struct EpisodeSpec {
  std::size_t index = 0;
  std::size_t length = 0;
  std::uint64_t seed = 0;
};

struct CollectedEpisode {
  std::size_t index = 0;
  std::vector<envmodel::Transition> transitions;
  std::size_t constraint_violations = 0;
};

/// Builds an isolated environment for one collection episode or evaluation
/// cell; the seed is the episode's shard seed (or the cell's system seed),
/// so its arrivals are a function of the decomposition, not of any shared
/// stream. A factory must be pure in the seed (the seed enters only as the
/// system's master seed): collection and evaluation recycle systems via
/// MicroserviceSystem::reseed(), which is only equivalent to construction
/// under that contract.
using EnvFactory =
    std::function<std::unique_ptr<sim::MicroserviceSystem>(std::uint64_t)>;

/// The collection factory of a real environment: each call builds a
/// MicroserviceSystem over `ensemble` with `config`, its seed replaced by
/// the episode seed. MirasAgent derives its own factory this way; callers
/// that need one before any agent exists (collector spawners) use it too.
EnvFactory system_factory(workflows::Ensemble ensemble,
                          sim::SystemConfig config);

/// Takes an idle system from `pool` and reseeds it to `seed`, or builds one
/// with `make_env` when the pool is empty. Reseeding equals construction, so
/// which object the caller gets never reaches a result; release() it back
/// to `pool` when done. Per-episode construction caused allocator contention
/// across shards.
std::unique_ptr<sim::MicroserviceSystem> acquire_system(
    common::ObjectPool<sim::MicroserviceSystem>& pool,
    const EnvFactory& make_env, std::uint64_t seed);

/// Draws the episode behaviour from the configured episode-type fractions.
CollectionBehavior pick_collection_behavior(const MirasConfig& config,
                                            Rng& rng);

/// With the configured probability, injects a random workload burst into
/// `env`.
void maybe_inject_collection_burst(const MirasConfig& config,
                                   sim::MicroserviceSystem& env, Rng& rng);

/// Simplex weights of one step under `behavior`. kPolicy acts through
/// `snapshot`, which must then be non-null.
std::vector<double> behavior_weights(CollectionBehavior behavior,
                                     const std::vector<double>& state,
                                     std::size_t action_dim, Rng& rng,
                                     rl::ExplorationSnapshot* snapshot);

/// Runs one collection episode. Every stochastic choice — environment
/// arrivals, burst, behaviour, exploration — flows from spec.seed in a
/// fixed draw order. `env_pool` (non-null) recycles systems across episodes
/// through acquire_system(); recycling is invisible to results.
CollectedEpisode run_shard_episode(
    const EpisodeSpec& spec, bool random_actions,
    const rl::BehaviorSnapshot& behavior, const MirasConfig& config,
    const EnvFactory& make_env,
    common::ObjectPool<sim::MicroserviceSystem>* env_pool);

/// Pluggable executor for one sharded collection phase. MirasAgent hands
/// the full fixed schedule (specs) plus the frozen behaviour to the
/// backend; the backend returns every episode's result. Results must be
/// complete and per-episode bit-identical to run_shard_episode — the agent
/// merges them in index order, so execution placement and timing never
/// reach the training state.
class CollectionBackend {
 public:
  virtual ~CollectionBackend() = default;

  /// Executes all of `specs` and returns results such that
  /// results[i].index == specs[i].index (same order as specs).
  virtual std::vector<CollectedEpisode> collect(
      const std::vector<EpisodeSpec>& specs, bool random_actions,
      const rl::BehaviorSnapshot& behavior) = 0;
};

}  // namespace miras::core
