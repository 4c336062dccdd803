// MIRAS: the iterative model-based RL procedure of Algorithm 2.
//
// Each outer iteration (1) collects real interactions with the environment
// using the current (exploring) policy and appends them to the dataset D,
// (2) refits the dynamics model on D and the refinement thresholds,
// (3) trains the DDPG agent against synthetic rollouts of the refined
// model, and (4) scores the resulting policy on the real environment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/object_pool.h"
#include "common/thread_pool.h"
#include "core/collection.h"
#include "core/trainer_config.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"
#include "rl/ddpg.h"
#include "rl/policy.h"
#include "sim/system.h"

namespace miras::core {

/// Record of one outer iteration (one point of the Figure 6 training
/// traces).
struct IterationTrace {
  std::size_t iteration = 0;
  std::size_t dataset_size = 0;
  /// Final-epoch training loss of the dynamics model fit (normalised units).
  double model_train_loss = 0.0;
  /// Aggregated (summed) reward of the greedy policy over eval_steps real
  /// steps — the paper's Figure 6 y-axis.
  double eval_aggregate_reward = 0.0;
  double parameter_noise_stddev = 0.0;
};

class MirasAgent {
 public:
  /// `env` must outlive the agent. Collection episodes run on environments
  /// the agent builds itself: system_factory(env->ensemble(), env->config())
  /// with the seed replaced by each episode's shard seed.
  MirasAgent(sim::MicroserviceSystem* env, MirasConfig config);

  /// Places the work of every iteration on `pool`: real-environment
  /// collection episodes, and the gradient work — dynamics-model fit
  /// minibatches, refiner threshold scans, and DDPG updates — through the
  /// deterministic gradient-block path (train_shards.h). Results are
  /// bit-identical for any worker count and with no pool at all (nullptr,
  /// the default), so a run may checkpoint on one pool and resume on
  /// another. `pool` must outlive the agent.
  void enable_parallel_training(common::ThreadPool* pool);

  /// Replaces the derived collection factory with `make_env` (pure in the
  /// seed, see EnvFactory) and places the iteration's work on `pool`, which
  /// (if any) must outlive the agent.
  void enable_parallel_collection(common::ThreadPool* pool,
                                  EnvFactory make_env);

  /// Delegates the execution of collection episodes to `backend` (e.g. a
  /// dist::CollectorPool fanning them out to collector processes) instead
  /// of the local pool. The backend executes the same fixed seed-sharded
  /// schedule, so results stay bit-identical — only placement changes.
  /// Pass nullptr to revert to local execution. `backend` must outlive the
  /// agent.
  void enable_distributed_collection(CollectionBackend* backend);

  const MirasConfig& config() const { return config_; }

  /// Runs one Algorithm 2 outer iteration and returns its trace.
  IterationTrace run_iteration();

  /// Runs config.outer_iterations iterations.
  std::vector<IterationTrace> train();

  /// Greedy-policy view over the trained agent (valid while the agent
  /// lives).
  std::unique_ptr<rl::Policy> make_policy() const;

  rl::DdpgAgent& ddpg() { return agent_; }
  const rl::DdpgAgent& ddpg() const { return agent_; }
  const envmodel::TransitionDataset& dataset() const { return dataset_; }
  envmodel::DynamicsModel& model() { return model_; }
  envmodel::ModelRefiner& refiner() { return refiner_; }
  std::size_t iterations_run() const { return iteration_; }

  /// Scores the current greedy policy on the real env: summed reward over
  /// `steps` windows from a fresh reset.
  double evaluate_on_real(std::size_t steps);

  /// Writes the full training state — dataset, dynamics model, refiner,
  /// DDPG agent, iteration counter, every rng stream (including the real
  /// environment's), and a config fingerprint — to `path` atomically (write-to-temp + fsync + rename).
  /// Call at iteration boundaries: a run resumed from the file continues
  /// bit-identically to one that never stopped.
  void save_checkpoint(const std::string& path) const;

  /// Restores the state written by save_checkpoint(). The agent (and its
  /// env) must have been built from the same config as the saved run —
  /// enforced via the config fingerprint. Pool placement is not part of the
  /// state: resume with any pool, or none.
  void restore_checkpoint(const std::string& path);

  /// Convenience: builds an agent for (env, config) and restores `path`
  /// into it.
  static MirasAgent resume(sim::MicroserviceSystem* env, MirasConfig config,
                           const std::string& path);

 private:
  /// One step of a generated synthetic rollout, replayed serially through
  /// the DDPG updates after the batch is generated.
  struct SyntheticStep {
    std::vector<double> state;
    std::vector<double> weights;
    double reward = 0.0;
    std::vector<double> next_state;
  };

  void collect_real_interactions(std::size_t steps, bool random_actions);
  void train_policy_on_model();
  /// Generates one rollout batch in lockstep, one lane per rollout slot:
  /// lane l is seeded from shard_seed(batch_root, l) and consumes exactly
  /// the draw sequence a standalone rollout with that seed would, while the
  /// dynamics-model/refiner queries of all lanes run batched
  /// (SyntheticEnvBatch). Results land in rollouts[l]; the lanes' would-be
  /// constraint violations are folded into the agent in lane order.
  void run_synthetic_rollout_batch(
      std::uint64_t batch_root,
      std::vector<std::vector<SyntheticStep>>& rollouts);

  sim::MicroserviceSystem* env_;
  MirasConfig config_;
  Rng rng_;
  envmodel::TransitionDataset dataset_;
  envmodel::DynamicsModel model_;
  envmodel::ModelRefiner refiner_;
  rl::DdpgAgent agent_;
  std::size_t iteration_ = 0;
  common::ThreadPool* pool_ = nullptr;
  EnvFactory env_factory_;
  CollectionBackend* collection_backend_ = nullptr;
  /// Idle collection environments recycled across episodes (at most one per
  /// concurrent shard); reseed() makes the recycling invisible to results.
  common::ObjectPool<sim::MicroserviceSystem> env_pool_;
};

/// The paper's model-free comparator: the same DDPG agent trained directly
/// against the environment with the same number of real interactions
/// (§VI-D "to guarantee fairness"). Returns the trained agent.
struct ModelFreeConfig {
  rl::DdpgConfig ddpg;
  std::size_t total_steps = 11000;
  std::size_t reset_interval = 25;
  std::size_t updates_per_step = 1;
};
rl::DdpgAgent train_model_free_ddpg(sim::MicroserviceSystem& env,
                                    const ModelFreeConfig& config);

/// Greedy policy over a DDPG agent (used for MIRAS and the model-free rl
/// baseline alike). The agent must outlive the policy. Holds the agent
/// const: decide() only drives the read-only greedy act path, so a policy
/// can wrap an agent someone else is still training (or a frozen one).
/// decide() reuses the policy's own inference scratch, so one instance must
/// not decide from two threads at once (the evaluation grid builds one per
/// cell).
class DdpgPolicy final : public rl::Policy {
 public:
  DdpgPolicy(const rl::DdpgAgent* agent, std::string policy_name);
  std::string name() const override { return name_; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

 private:
  const rl::DdpgAgent* agent_;
  std::string name_;
  rl::DecisionScratch scratch_;
};

}  // namespace miras::core
