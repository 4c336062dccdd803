#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/contracts.h"
#include "common/rng.h"
#include "nn/train_shards.h"

namespace miras::nn {
namespace {

// A single 1x1 identity "network" makes optimiser math directly observable.
std::vector<DenseLayer> scalar_layer(double weight, double grad) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Tensor::from_rows({{weight}}), Tensor(1, 1),
                      Activation::kIdentity);
  layers[0].weight_grad()(0, 0) = grad;
  return layers;
}

TEST(Adam, FirstStepIsSignedLearningRate) {
  // With bias correction, the first Adam step is lr * g / (|g| + eps').
  auto layers = scalar_layer(0.0, 123.0);
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), -0.01, 1e-6);
}

TEST(Adam, NegativeGradientMovesUp) {
  auto layers = scalar_layer(0.0, -7.0);
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_NEAR(layers[0].weights()(0, 0), 0.01, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimise f(w) = (w - 3)^2 using analytic gradient 2(w - 3).
  auto layers = scalar_layer(0.0, 0.0);
  AdamOptimizer opt(0.05);
  for (int i = 0; i < 2000; ++i) {
    const double w = layers[0].weights()(0, 0);
    layers[0].weight_grad()(0, 0) = 2.0 * (w - 3.0);
    opt.step_scaled(layers, 1.0);
  }
  EXPECT_NEAR(layers[0].weights()(0, 0), 3.0, 1e-3);
}

TEST(Adam, InvalidHyperparameters) {
  EXPECT_THROW(AdamOptimizer(0.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 1.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 0.9, 1.0), ContractViolation);
  EXPECT_THROW(AdamOptimizer(0.1, 0.9, 0.999, 0.0), ContractViolation);
}

TEST(Adam, BiasUpdatesToo) {
  std::vector<DenseLayer> layers;
  layers.emplace_back(Tensor(1, 1), Tensor(1, 1), Activation::kIdentity);
  layers[0].bias_grad()(0, 0) = 1.0;
  AdamOptimizer opt(0.01);
  opt.step_scaled(layers, 1.0);
  EXPECT_LT(layers[0].bias()(0, 0), 0.0);
}

// sharded_adam_step is the production clip: it reduces the block
// gradients into the layers' buffers (left unscaled), measures the global
// norm, and folds the clip into the Adam step as a scale. Each case checks
// the returned norm, the reduced buffers, and the parameters against a
// twin stepped directly with the scale the clip should pick.

// One pass per block whose weight gradient (layer 0, element (0, 0)) is
// grads[m].
std::vector<TrainPass> weight_grad_passes(
    const std::vector<DenseLayer>& layers, const std::vector<double>& grads) {
  std::vector<TrainPass> passes(grads.size());
  for (std::size_t m = 0; m < grads.size(); ++m) {
    prepare_pass(layers, passes[m]);
    passes[m].grads[0].weight(0, 0) = grads[m];
  }
  return passes;
}

TEST(ClipGradients, NoopBelowThreshold) {
  auto layers = scalar_layer(0.5, 0.0);
  const auto passes = weight_grad_passes(layers, {1.0, 2.0});
  AdamOptimizer opt(0.01);
  const double norm = sharded_adam_step(passes, 2, layers, 10.0, opt);
  EXPECT_DOUBLE_EQ(norm, 3.0);
  EXPECT_EQ(layers[0].weight_grad()(0, 0), 3.0);

  auto twin = scalar_layer(0.5, 3.0);
  AdamOptimizer twin_opt(0.01);
  twin_opt.step_scaled(twin, 1.0);
  EXPECT_EQ(layers[0].weights()(0, 0), twin[0].weights()(0, 0));
}

TEST(ClipGradients, ScalesAboveThreshold) {
  auto layers = scalar_layer(0.5, 0.0);
  const auto passes = weight_grad_passes(layers, {10.0, 20.0});
  AdamOptimizer opt(0.01);
  const double norm = sharded_adam_step(passes, 2, layers, 10.0, opt);
  EXPECT_DOUBLE_EQ(norm, 30.0);
  EXPECT_EQ(layers[0].weight_grad()(0, 0), 30.0);  // reduced, not scaled

  auto twin = scalar_layer(0.5, 30.0);
  AdamOptimizer twin_opt(0.01);
  twin_opt.step_scaled(twin, 10.0 / norm);
  EXPECT_EQ(layers[0].weights()(0, 0), twin[0].weights()(0, 0));
  // Adam normalises the scale away on a first step, so also check the
  // second moment saw the clipped gradient: a second unclipped step of
  // both sides must still agree.
  const auto passes2 = weight_grad_passes(layers, {1.0});
  (void)sharded_adam_step(passes2, 1, layers, 10.0, opt);
  twin[0].weight_grad()(0, 0) = 1.0;
  twin_opt.step_scaled(twin, 1.0);
  EXPECT_EQ(layers[0].weights()(0, 0), twin[0].weights()(0, 0));
}

TEST(ClipGradients, GlobalNormAcrossTensors) {
  // One norm over every layer's weights and biases: 3-4-5 split across two
  // layers.
  std::vector<DenseLayer> layers;
  layers.emplace_back(Tensor(1, 1), Tensor(1, 1), Activation::kIdentity);
  layers.emplace_back(Tensor(1, 1), Tensor(1, 1), Activation::kIdentity);
  TrainPass pass;
  prepare_pass(layers, pass);
  pass.grads[0].weight(0, 0) = 3.0;
  pass.grads[1].bias(0, 0) = 4.0;  // global norm = 5
  const std::vector<TrainPass> passes{pass};
  std::vector<DenseLayer> twin = layers;
  AdamOptimizer opt(0.01);
  const double norm = sharded_adam_step(passes, 1, layers, 1.0, opt);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_EQ(layers[0].weight_grad()(0, 0), 3.0);
  EXPECT_EQ(layers[1].bias_grad()(0, 0), 4.0);

  twin[0].weight_grad()(0, 0) = 3.0;
  twin[1].bias_grad()(0, 0) = 4.0;
  AdamOptimizer twin_opt(0.01);
  twin_opt.step_scaled(twin, 1.0 / norm);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    EXPECT_EQ(layers[l].weights()(0, 0), twin[l].weights()(0, 0));
    EXPECT_EQ(layers[l].bias()(0, 0), twin[l].bias()(0, 0));
  }
}

TEST(ClipGradients, InvalidMaxNorm) {
  auto layers = scalar_layer(0.0, 0.0);
  const auto passes = weight_grad_passes(layers, {1.0});
  AdamOptimizer opt(0.01);
  EXPECT_THROW(sharded_adam_step(passes, 1, layers, 0.0, opt),
               ContractViolation);
  EXPECT_THROW(sharded_adam_step(passes, 1, layers, -1.0, opt),
               ContractViolation);
}

}  // namespace
}  // namespace miras::nn
