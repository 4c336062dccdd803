// Activation functions and their derivatives, applied batch-wise.
//
// The batch kernels dispatch on the Activation enum once per tensor and
// then run tight elementwise loops (or the row-wise softmax pass) — there
// is no per-element indirection. Every kernel writes into a caller-owned
// tensor so hot paths reuse workspace memory instead of allocating.
//
// Softmax is handled as a distinct case because its Jacobian is not
// elementwise: activation_backward_into computes the full row-wise
// Jacobian-vector product for it.
#pragma once

#include <string>

#include "nn/tensor.h"

namespace miras::nn {

enum class Activation { kIdentity, kRelu, kTanh, kSigmoid, kSoftmax };

/// Human-readable name (used in serialization and error messages).
std::string activation_name(Activation a);

/// Parses the result of activation_name(); throws on unknown names.
Activation activation_from_name(const std::string& name);

/// Applies the activation to every row of `pre` (pre-activation values),
/// writing into `out` (resized to pre's shape). `out` must not alias `pre`;
/// use activate_inplace for in-place application.
void activate_into(Activation a, const Tensor& pre, Tensor& out);

/// Applies the activation in place (overwrites the pre-activations).
/// Bit-identical to activate_into on the same values.
void activate_inplace(Activation a, Tensor& values);

/// Given pre-activations `pre`, post-activations `post` (activate_into of
/// `pre`), and the gradient `grad_post` of the loss w.r.t. `post`, writes
/// the gradient w.r.t. `pre` into `grad_pre` (resized to pre's shape). For
/// softmax this is the full row-wise Jacobian-vector product. `grad_pre`
/// must not alias the inputs. Note: for kIdentity this copies grad_post;
/// DenseLayer::backward_shard skips the call entirely instead (the
/// gradient passes through unchanged).
void activation_backward_into(Activation a, const Tensor& pre,
                              const Tensor& post, const Tensor& grad_post,
                              Tensor& grad_pre);

}  // namespace miras::nn
