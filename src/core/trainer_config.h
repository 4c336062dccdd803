// MIRAS training configuration and the per-dataset presets of §VI-A.
#pragma once

#include <cstdint>

#include "envmodel/dynamics_model.h"
#include "envmodel/refiner.h"
#include "rl/ddpg.h"

namespace miras::core {

struct MirasConfig {
  envmodel::DynamicsModelConfig model;
  envmodel::RefinerConfig refiner;
  rl::DdpgConfig ddpg;

  /// Outer iterations of Algorithm 2 (the paper observes convergence at
  /// about 11 for both datasets).
  std::size_t outer_iterations = 11;

  /// Real-environment interactions collected per outer iteration
  /// (1,000 for MSD, 2,000 for LIGO, §VI-A3).
  std::size_t real_steps_per_iteration = 1000;

  /// Real env is reset every this many collection steps (25 for MSD).
  std::size_t reset_interval = 25;

  /// Length of one synthetic rollout against the learned model
  /// (25 for MSD, 10 for LIGO).
  std::size_t rollout_length = 25;

  /// Synthetic rollouts per outer iteration (the inner loop of Algorithm 2
  /// with a fixed budget standing in for "until performance stops
  /// improving").
  std::size_t synthetic_rollouts_per_iteration = 60;

  /// Gradient updates per synthetic step.
  std::size_t updates_per_synthetic_step = 1;

  /// Real-environment steps used to score the policy after each iteration
  /// (25 for MSD, 100 for LIGO, §VI-C).
  std::size_t eval_steps = 25;

  /// Fraction of episodes (collection episodes and synthetic rollouts)
  /// driven end-to-end by a uniformly random simplex policy. Pure on-policy
  /// collection rapidly narrows the dataset to the states the current
  /// (possibly degenerate) policy visits, and the dynamics model then
  /// hallucinates elsewhere; persistent random episodes keep the
  /// state-action coverage broad. (Engineering addition on top of the
  /// paper's parameter-noise exploration; see DESIGN.md.)
  double random_episode_fraction = 0.2;

  /// Fraction of episodes driven end-to-end by the WIP-proportional
  /// demonstration policy. Sustained sensible allocations are what push
  /// work through a deep DAG; whole demonstration episodes give the critic
  /// n-step returns of *well-controlled* trajectories to learn from —
  /// isolated demo steps inside a degenerate trajectory would not.
  double demo_episode_fraction = 0.25;

  /// Lend-Giveback model refinement on/off (ablation).
  bool use_refiner = true;

  /// Synthetic rollouts are *generated* in batches of this many: each
  /// batch snapshots the current policy, advances its rollouts in lockstep
  /// from per-rollout shard seeds — every lane takes its timestep together
  /// and the dynamics-model (and refiner) queries of the batch run as one
  /// batched forward pass — then replays them serially through the DDPG
  /// updates. The batch size is part of the algorithm (larger batches mean
  /// staler behaviour policies within a batch), NOT a function of the
  /// worker count — results are identical for any number of threads.
  std::size_t rollout_batch = 8;

  /// With this probability, a collection episode starts with a random
  /// request burst (each workflow type gets uniform(0, collection_burst_max)
  /// requests). The evaluation scenarios (§VI-D) hit the system with bursts
  /// of hundreds of requests; without burst exposure during collection the
  /// dataset never covers that state region and both the dynamics model and
  /// the policy extrapolate blindly there.
  double collection_burst_probability = 0.3;
  std::size_t collection_burst_max = 250;

  std::uint64_t seed = 7;
};

/// Paper-scale presets (§VI-A3).
MirasConfig miras_msd_config();
MirasConfig miras_ligo_config();

/// Reduced-scale presets preserving the training shape; run in seconds.
/// Used by default in benches and examples (pass --full for paper scale).
MirasConfig miras_msd_fast_config();
MirasConfig miras_ligo_fast_config();

/// FNV-1a hash over every field of `config` (in declaration order, via the
/// persist little-endian encoding). Stored in checkpoints and verified on
/// resume: continuing a run under a different configuration would silently
/// break the bit-identity contract, so it is an error instead.
std::uint64_t config_fingerprint(const MirasConfig& config);

}  // namespace miras::core
