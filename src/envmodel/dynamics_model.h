// Neural one-step dynamics model of the microservice environment (§IV-C1):
// input x = (s(k) || a(k)), output the next state s(k+1). Trained by
// minimising mean squared one-step prediction error over the collected
// dataset D with minibatch Adam.
//
// Two deviations from the bare paper description, both standard practice
// and both fixed:
//  - delta targets: the network predicts s(k+1) - s(k) rather than s(k+1)
//    directly (Nagabandi et al. 2017); the public predict() still returns
//    s(k+1).
//  - Inputs/outputs are z-normalised with statistics frozen at the first
//    fit() so that incremental refits (Algorithm 2's outer loop) keep the
//    parameter space consistent.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "envmodel/dataset.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"

namespace miras::envmodel {

struct DynamicsModelConfig {
  /// Hidden widths. Paper: {20, 20, 20} for MSD, {20} for LIGO (§VI-A3 —
  /// the smaller LIGO model counters overfitting).
  std::vector<std::size_t> hidden_dims = {20, 20, 20};
  double learning_rate = 1e-3;
  std::size_t batch_size = 64;
  /// Epochs per fit() call.
  std::size_t epochs = 40;
  std::uint64_t seed = 11;
};

class DynamicsModel {
 public:
  DynamicsModel(std::size_t state_dim, std::size_t action_dim,
                DynamicsModelConfig config);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }

  /// Trains on `data` for config.epochs epochs, continuing from the current
  /// parameters (incremental refit). Returns the final epoch's mean training
  /// loss. Requires data dimensions to match and data non-empty.
  ///
  /// Every minibatch runs through the canonical gradient-block path
  /// (train_shards.h) whether or not a pool is attached, so the learned
  /// weights are bit-identical across thread counts.
  double fit(const TransitionDataset& data);

  /// Runs fit() minibatches data-parallel on `pool` (nullptr reverts to
  /// inline execution — same numbers either way). Deliberately not part of
  /// the config fingerprint and never serialised: checkpoints resume under
  /// any thread count.
  void enable_parallel_training(common::ThreadPool* pool);

  /// Mean squared one-step prediction error (in raw state units) on `data`.
  double evaluate(const TransitionDataset& data) const;

  /// Predicted next state s(k+1) for one (state, action) pair. Raw model
  /// output — may be slightly negative near the WIP boundary; callers that
  /// need physical states clamp (SyntheticEnv) or refine (ModelRefiner).
  std::vector<double> predict(const std::vector<double>& state,
                              const std::vector<int>& action) const;

  /// Batched predict(): states is (B x state_dim), actions holds B action
  /// vectors, and row r of `next_states` receives the prediction for
  /// (states row r, actions[r]). One GEMM per layer instead of B GEMVs;
  /// each row is bit-identical to the corresponding predict() call (kernel
  /// invariant, tensor.h). Routes through ws.in (normalised design matrix),
  /// ws.a/ws.b (layer ping-pong), and ws.concat (normalised output);
  /// `next_states` must not alias any of those or `states`.
  void predict_batch(const nn::Tensor& states,
                     const std::vector<std::vector<int>>& actions,
                     nn::Workspace& ws, nn::Tensor& next_states) const;

  /// Reward implied by a predicted next state (paper Eq. 1; "reward is
  /// predicted in a similar way" — reward is a deterministic function of
  /// the next state, so we derive it rather than fit a second network).
  static double reward_of(const std::vector<double>& next_state);

  bool is_fitted() const { return fitted_; }
  const nn::Network& network() const { return network_; }

  /// Snapshot/restore of the fitted state — network parameters, optimiser
  /// moments, frozen normalisers, rng stream, fitted flag — for crash-resume.
  /// The model must have been constructed with the same dims (checked).
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in);

 private:
  struct Normalizer {
    std::vector<double> mean;
    std::vector<double> stddev;  // floored at a small epsilon
  };

  std::vector<double> make_input(const std::vector<double>& state,
                                 const std::vector<int>& action) const;
  void compute_normalizers(const TransitionDataset& data);

  std::size_t state_dim_;
  std::size_t action_dim_;
  DynamicsModelConfig config_;
  Rng rng_;
  nn::Network network_;
  nn::AdamOptimizer optimizer_;
  Normalizer input_norm_;
  Normalizer output_norm_;
  bool fitted_ = false;

  // Parallel-training pool (not serialised; see enable_parallel_training).
  common::ThreadPool* pool_ = nullptr;

  // fit() scratch, reused across calls: normalised design matrices, the
  // epoch shuffle permutation, and one TrainPass per gradient block.
  nn::Tensor design_in_;
  nn::Tensor design_out_;
  std::vector<std::size_t> shuffle_;
  std::vector<nn::TrainPass> passes_;
};

}  // namespace miras::envmodel
