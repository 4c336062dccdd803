// Fully connected layer with explicit forward/backward passes.
//
// Parameters are owned by the layer; the layer also owns one gradient
// buffer per parameter tensor, which the sharded training path
// (train_shards.h) reduces the per-block gradients into before the Adam
// step reads them. The layer keeps no per-call state: the training forward
// and backward run against caller-owned caches and accumulators
// (forward_shard / backward_shard), and inference writes into a
// caller-owned output (forward_into). Any number of callers may therefore
// run through one layer at once, and with reused buffers a steady-state
// forward/backward cycle performs no heap allocations.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/activation.h"
#include "nn/tensor.h"

namespace miras::nn {

/// Caller-owned gradient accumulator for one layer: the unit of the sharded
/// training path (train_shards.h), where every gradient block accumulates
/// into its own LayerGrad and the blocks are reduced in fixed order into the
/// layer's own weight_grad()/bias_grad() buffers. Shapes mirror the layer's
/// parameters. Cache-line aligned so adjacent blocks' accumulators never
/// share a line when blocks run on different cores.
struct alignas(64) LayerGrad {
  Tensor weight;  // in_dim x out_dim
  Tensor bias;    // 1 x out_dim
};

class DenseLayer {
 public:
  /// Creates a (in_dim -> out_dim) layer. Weights use He initialisation for
  /// ReLU and Xavier/Glorot otherwise; biases start at zero.
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation activation,
             Rng& rng);

  /// Reconstructs a layer from explicit parameters (deserialisation).
  /// `weights` is (in_dim x out_dim); `bias` is (1 x out_dim).
  DenseLayer(Tensor weights, Tensor bias, Activation activation);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }
  Activation activation() const { return activation_; }

  /// Inference: activate(x * W + b) for a batch (rows = samples), written
  /// into `out` (resized to x.rows() x out_dim). `out` must not alias `x`,
  /// the weights, or the bias.
  void forward_into(const Tensor& x, Tensor& out) const;

  /// Re-entrant training forward: the caches live in caller-owned buffers,
  /// so concurrent row blocks can pass through one layer at once. Writes
  /// the pre-activations into `pre` and their activation into `post` (both
  /// resized); `post` is bit-identical to forward_into on the same rows
  /// (kernel invariant, tensor.h). `x`, `pre`, and `post` must be three
  /// distinct tensors.
  void forward_shard(const Tensor& x, Tensor& pre, Tensor& post) const;

  /// Re-entrant backward matching a forward_shard(x, pre, post) call:
  /// accumulates dL/dW and dL/db onto `grad` (parameter-shaped tensors the
  /// caller zeroed or partially accumulated) and writes dL/d(input) into
  /// `grad_input`. `grad_pre_scratch` is caller scratch for
  /// dL/d(pre-activation); `grad_input` must not alias `grad_output` or
  /// `grad_pre_scratch`. Touches no layer state, so any number of blocks
  /// may run concurrently against one layer.
  void backward_shard(const Tensor& x, const Tensor& pre, const Tensor& post,
                      const Tensor& grad_output, LayerGrad& grad,
                      Tensor& grad_pre_scratch, Tensor& grad_input) const;

  Tensor& weights() { return weights_; }
  const Tensor& weights() const { return weights_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  Tensor& weight_grad() { return weight_grad_; }
  const Tensor& weight_grad() const { return weight_grad_; }
  Tensor& bias_grad() { return bias_grad_; }
  const Tensor& bias_grad() const { return bias_grad_; }

  /// Total number of scalar parameters (weights + biases).
  std::size_t parameter_count() const;

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Activation activation_;
  Tensor weights_;      // in_dim x out_dim
  Tensor bias_;         // 1 x out_dim
  Tensor weight_grad_;  // reduced block gradients, same shapes
  Tensor bias_grad_;
};

// Flat-parameter walk shared by Network and CriticNetwork. The flat order
// is layer by layer, weights then bias.

/// Total number of scalar parameters over `layers`.
std::size_t parameter_count(const std::vector<DenseLayer>& layers);

/// Flattens every parameter into one vector; the inverse of
/// set_parameters().
std::vector<double> get_parameters(const std::vector<DenseLayer>& layers);

/// Overwrites every parameter from `flat` (size must equal
/// parameter_count(layers)).
void set_parameters(std::vector<DenseLayer>& layers,
                    const std::vector<double>& flat);

/// Polyak update: theta <- tau * source.theta + (1 - tau) * theta, layer by
/// layer. Requires identical architecture.
void soft_update(std::vector<DenseLayer>& layers,
                 const std::vector<DenseLayer>& source, double tau);

}  // namespace miras::nn
