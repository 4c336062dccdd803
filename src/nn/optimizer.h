// Adam over a network's layers. State (the Adam moments) is allocated
// lazily on the first step and keyed by layer index, so one optimiser
// instance must stay paired with one network.
//
// step_scaled() reads the layers' own weight_grad()/bias_grad() buffers.
// The sharded training path (train_shards.h) fills those buffers by
// reducing the per-block gradients, and sharded_adam_step folds the
// global-norm clip into the step's scale, so every network in the training
// loops reaches the optimiser through that one function.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.h"
#include "persist/binary_io.h"

namespace miras::nn {

/// Adam (Kingma & Ba 2015) with bias correction.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(double learning_rate, double beta1 = 0.9,
                         double beta2 = 0.999, double epsilon = 1e-8);

  /// Applies one update from the layers' gradient buffers (does not zero
  /// them), with every gradient scaled by `scale` on the fly — the fused
  /// form of "clip then step" used by sharded_adam_step (train_shards.h):
  /// scaling inside the update loop replaces a separate write-back pass
  /// over all gradient buffers. scale == 1.0 reads the stored gradient bits
  /// untouched (the unclipped step).
  void step_scaled(std::vector<DenseLayer>& layers, double scale);

  /// Snapshot/restore of the mutable optimiser state (step counter and
  /// first/second moments) for crash-resume. Hyperparameters are construction
  /// arguments and are NOT serialised — pair a restored state with an
  /// optimiser built from the same config.
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in);

 private:
  double learning_rate_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<Tensor> weight_m_, weight_v_;
  std::vector<Tensor> bias_m_, bias_v_;
};

}  // namespace miras::nn
