#include "nn/layer.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/contracts.h"
#include "nn/grad_check.h"
#include "nn/train_shards.h"
#include "nn_test_util.h"

namespace miras::nn {
namespace {

TEST(DenseLayer, ForwardKnownValues) {
  Rng rng(1);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  layer.weights() = Tensor::from_rows({{1.0, 2.0}, {3.0, 4.0}});
  layer.bias() = Tensor::row_vector({0.5, -0.5});
  Tensor out;
  layer.forward_into(Tensor::from_rows({{1.0, 1.0}}), out);
  EXPECT_DOUBLE_EQ(out(0, 0), 4.5);   // 1*1 + 1*3 + 0.5
  EXPECT_DOUBLE_EQ(out(0, 1), 5.5);   // 1*2 + 1*4 - 0.5
}

TEST(DenseLayer, ForwardIntoMatchesForwardShard) {
  // Inference and the training forward share one arithmetic: bit for bit,
  // for every activation (softmax included).
  for (const Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh,
        Activation::kSigmoid, Activation::kSoftmax}) {
    Rng rng(2);
    DenseLayer layer(3, 4, act, rng);
    const Tensor x = Tensor::from_rows({{0.1, -0.2, 0.3}, {1.0, 2.0, -1.0}});
    Tensor out, pre, post;
    layer.forward_into(x, out);
    layer.forward_shard(x, pre, post);
    ASSERT_TRUE(out.same_shape(post));
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(out.data()[i], post.data()[i]) << activation_name(act);
  }
}

TEST(DenseLayer, InputDimChecked) {
  Rng rng(3);
  DenseLayer layer(3, 2, Activation::kRelu, rng);
  Tensor out, pre, post;
  EXPECT_THROW(layer.forward_into(Tensor(1, 4), out), ContractViolation);
  EXPECT_THROW(layer.forward_shard(Tensor(1, 4), pre, post),
               ContractViolation);
}

TEST(DenseLayer, InputGradientMatchesFiniteDifference) {
  Rng rng(4);
  DenseLayer layer(3, 2, Activation::kTanh, rng);
  const Tensor x = Tensor::from_rows({{0.2, -0.4, 0.7}, {1.1, 0.0, -0.3}});
  const Tensor weights = Tensor::from_rows({{1.0, -1.0}, {0.5, 2.0}});

  auto f = [&](const Tensor& input) {
    Tensor out;
    layer.forward_into(input, out);
    return test::weighted_sum(out, weights);
  };
  Tensor grad_input;
  (void)test::layer_backward(layer, x, weights, grad_input);
  EXPECT_LT(max_gradient_error(f, x, grad_input), 1e-5);
}

TEST(DenseLayer, WeightGradientMatchesFiniteDifference) {
  Rng rng(5);
  DenseLayer layer(2, 3, Activation::kSigmoid, rng);
  const Tensor x = Tensor::from_rows({{0.5, -1.0}, {0.2, 0.9}});
  const Tensor out_weights =
      Tensor::from_rows({{1.0, 0.5, -1.0}, {-0.5, 2.0, 1.0}});

  Tensor grad_input;
  const Tensor analytic =
      test::layer_backward(layer, x, out_weights, grad_input).weight;

  auto f = [&](const Tensor& w) {
    const DenseLayer probe(w, layer.bias(), layer.activation());
    Tensor out;
    probe.forward_into(x, out);
    return test::weighted_sum(out, out_weights);
  };
  EXPECT_LT(max_gradient_error(f, layer.weights(), analytic), 1e-5);
}

TEST(DenseLayer, BiasGradientMatchesFiniteDifference) {
  Rng rng(6);
  DenseLayer layer(2, 2, Activation::kTanh, rng);
  const Tensor x = Tensor::from_rows({{0.3, 0.8}, {-0.6, 0.1}});
  const Tensor out_weights = Tensor::from_rows({{2.0, -1.0}, {1.0, 1.0}});

  Tensor grad_input;
  const Tensor analytic =
      test::layer_backward(layer, x, out_weights, grad_input).bias;

  auto f = [&](const Tensor& b) {
    const DenseLayer probe(layer.weights(), b, layer.activation());
    Tensor out;
    probe.forward_into(x, out);
    return test::weighted_sum(out, out_weights);
  };
  EXPECT_LT(max_gradient_error(f, layer.bias(), analytic), 1e-5);
}

TEST(DenseLayer, GradientsAccumulateAcrossBackwardCalls) {
  // backward_shard adds onto the caller's accumulator, it never overwrites.
  Rng rng(7);
  DenseLayer layer(2, 2, Activation::kIdentity, rng);
  const Tensor x = Tensor::from_rows({{1.0, 2.0}});
  const Tensor g = Tensor::from_rows({{1.0, 1.0}});
  Tensor grad_input;
  const LayerGrad once = test::layer_backward(layer, x, g, grad_input);

  LayerGrad twice = once;
  Tensor pre, post, grad_pre;
  layer.forward_shard(x, pre, post);
  layer.backward_shard(x, pre, post, g, twice, grad_pre, grad_input);
  for (std::size_t i = 0; i < once.weight.size(); ++i)
    EXPECT_DOUBLE_EQ(twice.weight.data()[i], 2.0 * once.weight.data()[i]);
  for (std::size_t i = 0; i < once.bias.size(); ++i)
    EXPECT_DOUBLE_EQ(twice.bias.data()[i], 2.0 * once.bias.data()[i]);
}

TEST(DenseLayer, ZeroGradResets) {
  // prepare_pass is how a block's accumulators start each minibatch: it
  // zeroes gradients left over from the previous one.
  Rng rng(8);
  const std::vector<DenseLayer> layers{
      DenseLayer(2, 2, Activation::kIdentity, rng)};
  TrainPass pass;
  prepare_pass(layers, pass);
  const Tensor x = Tensor::from_rows({{1.0, 1.0}});
  layers[0].forward_shard(x, pass.pre[0], pass.post[0]);
  layers[0].backward_shard(x, pass.pre[0], pass.post[0],
                           Tensor::from_rows({{1.0, 1.0}}), pass.grads[0],
                           pass.grad_pre, pass.bwd_a);
  ASSERT_GT(pass.grads[0].weight.norm(), 0.0);
  prepare_pass(layers, pass);
  EXPECT_DOUBLE_EQ(pass.grads[0].weight.norm(), 0.0);
  EXPECT_DOUBLE_EQ(pass.grads[0].bias.norm(), 0.0);
}

TEST(DenseLayer, HeInitialisationScale) {
  Rng rng(9);
  DenseLayer layer(1000, 50, Activation::kRelu, rng);
  double sum_sq = 0.0;
  const Tensor& w = layer.weights();
  for (std::size_t i = 0; i < w.size(); ++i) sum_sq += w.data()[i] * w.data()[i];
  const double variance = sum_sq / static_cast<double>(w.size());
  EXPECT_NEAR(variance, 2.0 / 1000.0, 2.0 / 1000.0 * 0.15);
}

TEST(DenseLayer, BiasStartsAtZero) {
  Rng rng(10);
  DenseLayer layer(4, 4, Activation::kRelu, rng);
  EXPECT_DOUBLE_EQ(layer.bias().norm(), 0.0);
}

TEST(DenseLayer, ParameterCount) {
  Rng rng(11);
  DenseLayer layer(5, 7, Activation::kRelu, rng);
  EXPECT_EQ(layer.parameter_count(), 5u * 7u + 7u);
}

TEST(DenseLayer, ExplicitParameterConstructor) {
  DenseLayer layer(Tensor::from_rows({{1.0}, {2.0}}),
                   Tensor::row_vector({3.0}), Activation::kIdentity);
  EXPECT_EQ(layer.in_dim(), 2u);
  EXPECT_EQ(layer.out_dim(), 1u);
  Tensor out;
  layer.forward_into(Tensor::from_rows({{1.0, 1.0}}), out);
  EXPECT_DOUBLE_EQ(out(0, 0), 6.0);
}

TEST(DenseLayer, ExplicitConstructorValidatesBias) {
  EXPECT_THROW(DenseLayer(Tensor(2, 3), Tensor(1, 2), Activation::kRelu),
               ContractViolation);
}

}  // namespace
}  // namespace miras::nn
