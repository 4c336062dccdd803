// Sequential multilayer perceptron.
//
// Supports everything MIRAS needs from its networks:
//  - re-entrant batched forward/backward over caller-owned TrainPass
//    blocks (forward_shard / backward_shard, train_shards.h) for supervised
//    training (dynamics model) and policy-gradient training (actor),
//  - allocation-free inference through a caller-owned Workspace
//    (predict_batch / predict_one overloads),
//  - flat parameter get/set for parameter-space exploration noise and for
//    DDPG's Polyak-averaged target networks,
//  - value semantics (copyable) so a perturbed/target copy is one line.
//
// Thread-safety note: every const member keeps its state in caller-owned
// buffers (a TrainPass or a Workspace), so any number of callers may run
// through one network at once as long as each owns its buffers. The
// allocating `predict` / `predict_one` own theirs per call, so they are
// safe to call concurrently on one network (the evaluation grid relies on
// this). Only sharded_update and the parameter setters mutate the network.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"

namespace miras::nn {

/// Shape description: hidden layers all use `hidden_activation`; the final
/// layer uses `output_activation`.
struct MlpSpec {
  std::size_t input_dim = 0;
  std::vector<std::size_t> hidden_dims;
  std::size_t output_dim = 0;
  Activation hidden_activation = Activation::kRelu;
  Activation output_activation = Activation::kIdentity;
};

class Network {
 public:
  Network() = default;
  Network(const MlpSpec& spec, Rng& rng);

  /// Assembles a network from pre-built layers (deserialisation); adjacent
  /// layer dimensions must match.
  explicit Network(std::vector<DenseLayer> layers);

  std::size_t input_dim() const;
  std::size_t output_dim() const;
  std::size_t num_layers() const { return layers_.size(); }
  DenseLayer& layer(std::size_t i) { return layers_.at(i); }
  const DenseLayer& layer(std::size_t i) const { return layers_.at(i); }
  std::vector<DenseLayer>& layers() { return layers_; }
  const std::vector<DenseLayer>& layers() const { return layers_; }

  /// Inference forward pass. Allocates its own scratch per call — use
  /// predict_batch for the hot paths.
  Tensor predict(const Tensor& x) const;

  /// Inference through workspace buffers: zero steady-state allocations.
  /// Bit-identical to predict() on the same inputs, and — row for row —
  /// bit-identical to predicting each row on its own (the kernel invariant
  /// in tensor.h). `out` must not alias `x`, ws.a, or ws.b.
  void predict_batch(const Tensor& x, Workspace& ws, Tensor& out) const;

  /// Convenience for a single input vector. Allocates.
  std::vector<double> predict_one(const std::vector<double>& x) const;

  /// predict_one through workspace staging (ws.x1 / ws.y1); writes the
  /// output into `out` (resized). Zero steady-state allocations.
  void predict_one(const std::vector<double>& x, Workspace& ws,
                   std::vector<double>& out) const;

  /// Re-entrant training forward for one gradient block: caches live in
  /// `pass` (sized by prepare_pass), so concurrent blocks can pass through
  /// one network at once. Returns the last layer's output (pass.post.back()).
  /// Row for row bit-identical to predict() on the same rows.
  const Tensor& forward_shard(const Tensor& x, TrainPass& pass) const;

  /// Re-entrant backward matching the last forward_shard(x, pass):
  /// accumulates parameter gradients onto pass.grads (reduced later via
  /// reduce_gradients) and returns dL/dx (valid until the next
  /// backward_shard on this pass). `grad_output` must not alias pass.bwd_a
  /// or pass.bwd_b. Touches no network state.
  const Tensor& backward_shard(const Tensor& x, const Tensor& grad_output,
                               TrainPass& pass) const;

  /// Fused tail of one sharded update: reduce passes[0..count), clip the
  /// global gradient norm to `max_norm`, one Adam step (sharded_adam_step,
  /// train_shards.h). Returns the pre-clip norm. Zeroing the gradient
  /// buffers is folded in — callers do not zero between minibatches.
  double sharded_update(const std::vector<TrainPass>& passes,
                        std::size_t count, double max_norm,
                        AdamOptimizer& optimizer);

  /// Total scalar parameter count.
  std::size_t parameter_count() const;

  /// Flattens all parameters (layer by layer, weights then bias) into one
  /// vector; the inverse of set_parameters().
  std::vector<double> get_parameters() const;
  void set_parameters(const std::vector<double>& flat);

  /// Adds independent N(0, stddev) noise to every parameter (parameter-space
  /// exploration, Plappert et al. 2018).
  void perturb_parameters(double stddev, Rng& rng);

  /// Becomes `source` plus independent N(0, stddev) noise on every
  /// parameter, in one pass over this network's own storage (kept when the
  /// architecture matches): the draws and bits of copying `source` and then
  /// calling perturb_parameters. `source` may be this network.
  void assign_perturbed(const Network& source, double stddev, Rng& rng);

  /// Polyak update: theta <- tau * source.theta + (1 - tau) * theta.
  /// Requires identical architecture.
  void soft_update_from(const Network& source, double tau);

 private:
  std::vector<DenseLayer> layers_;
};

}  // namespace miras::nn
