// The learned environment (§IV-D: the agent interacts "with the learnt
// environment model instead of the actual real environment"). Episodes
// start from states sampled out of the real-interaction dataset, which
// keeps synthetic rollouts anchored to the state distribution the model was
// trained on.
//
// SyntheticEnvBatch is what training rolls out on. SyntheticEnv is one lane
// stepped on its own: the sequential reference the batch is tested against
// bit for bit, kept like ModelRefiner::predict.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"

namespace miras::envmodel {

class SyntheticEnv {
 public:
  /// `refiner` may be null (refinement ablation); then raw model predictions
  /// clamped at zero are used. `initial_states` supplies reset() states and
  /// must be non-empty; all pointers must outlive the env.
  SyntheticEnv(DynamicsModel* model, ModelRefiner* refiner,
               const TransitionDataset* initial_states, int consumer_budget,
               std::uint64_t seed);

  std::size_t state_dim() const;
  std::size_t action_dim() const;
  int consumer_budget() const { return consumer_budget_; }

  std::vector<double> reset();
  /// Advances one step with `allocation`; the next state and its reward
  /// are read back via current_state()/last_reward(), as on the batch.
  void step(const std::vector<int>& allocation);

  const std::vector<double>& current_state() const { return state_; }
  double last_reward() const { return last_reward_; }

 private:
  DynamicsModel* model_;
  ModelRefiner* refiner_;
  const TransitionDataset* initial_states_;
  int consumer_budget_;
  Rng rng_;
  std::vector<double> state_;
  double last_reward_ = 0.0;
};

/// A batch of SyntheticEnv lanes advancing in lockstep: step_all() runs the
/// dynamics-model (and refiner) queries of every lane as one batched
/// forward pass — one (B x D) GEMM per layer instead of B GEMVs.
///
/// Determinism contract: lane r owns the same rng streams a standalone
/// SyntheticEnv (env_seed) plus reseed()ed refiner (refiner_seed) would own,
/// and the batched kernels are row-wise bit-identical to the per-sample
/// path (tensor.h), so every lane's trajectory is bit-identical to running
/// it alone — regardless of which other lanes share the batch. Not
/// thread-safe; use one batch per worker.
class SyntheticEnvBatch {
 public:
  /// `refiner` may be null (refinement ablation). The refiner's own rng is
  /// never used — lend draws come from the per-lane streams — but its
  /// predict_batch scratch is, so the refiner must be exclusive to this
  /// batch (copy the fitted refiner per batch). All pointers must outlive
  /// the batch.
  SyntheticEnvBatch(const DynamicsModel* model, ModelRefiner* refiner,
                    const TransitionDataset* initial_states,
                    int consumer_budget);

  /// Adds a lane seeded exactly like SyntheticEnv(env_seed) with a refiner
  /// reseed(refiner_seed); `refiner_seed` is ignored without a refiner.
  void add_lane(std::uint64_t env_seed, std::uint64_t refiner_seed);

  std::size_t num_lanes() const { return lanes_.size(); }
  std::size_t state_dim() const;
  std::size_t action_dim() const;
  int consumer_budget() const { return consumer_budget_; }

  /// Draws every lane's initial state (in lane order) from the dataset,
  /// exactly as SyntheticEnv::reset() would.
  void reset_all();

  /// Advances every lane one step with its allocation (allocations[r] is
  /// lane r's). States and rewards are read back via state()/last_reward().
  void step_all(const std::vector<std::vector<int>>& allocations);

  const std::vector<double>& state(std::size_t lane) const;
  double last_reward(std::size_t lane) const;

 private:
  struct Lane {
    Rng env_rng;
    Rng refiner_rng;
    std::vector<double> state;
    double last_reward = 0.0;
  };

  const DynamicsModel* model_;
  ModelRefiner* refiner_;
  const TransitionDataset* initial_states_;
  int consumer_budget_;
  std::vector<Lane> lanes_;

  // Lockstep scratch, reused across steps.
  nn::Workspace ws_;
  nn::Tensor states_;
  nn::Tensor next_states_;
  std::vector<Rng*> lane_rngs_;
};

}  // namespace miras::envmodel
