#include "nn/train_shards.h"

#include <cmath>
#include <cstring>

#include "common/contracts.h"
#include "nn/optimizer.h"

namespace miras::nn {

void prepare_pass(const std::vector<DenseLayer>& layers, TrainPass& pass) {
  pass.pre.resize(layers.size());
  pass.post.resize(layers.size());
  pass.grads.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    LayerGrad& g = pass.grads[l];
    g.weight.resize(layers[l].weights().rows(), layers[l].weights().cols());
    g.weight.fill(0.0);
    g.bias.resize(1, layers[l].bias().cols());
    g.bias.fill(0.0);
  }
  pass.loss = 0.0;
}

void reduce_gradients(const std::vector<TrainPass>& passes, std::size_t count,
                      std::vector<DenseLayer>& layers) {
  MIRAS_EXPECTS(count <= passes.size());
  for (std::size_t m = 0; m < count; ++m) {
    const TrainPass& pass = passes[m];
    MIRAS_EXPECTS(pass.grads.size() == layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
      layers[l].weight_grad() += pass.grads[l].weight;
      layers[l].bias_grad() += pass.grads[l].bias;
    }
  }
}

double sharded_adam_step(const std::vector<TrainPass>& passes,
                         std::size_t count, std::vector<DenseLayer>& layers,
                         double max_norm, AdamOptimizer& optimizer) {
  MIRAS_EXPECTS(count <= passes.size());
  MIRAS_EXPECTS(max_norm > 0.0);
  // Pass 1: zero + reduce + norm, layer by layer. Per element this is the
  // same left-to-right add chain as reduce_gradients (0 + block_0 + block_1
  // + ...); the norm accumulates in ascending layer order, weights then
  // bias.
  double sq_norm = 0.0;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    Tensor& wg = layers[l].weight_grad();
    Tensor& bg = layers[l].bias_grad();
    wg.fill(0.0);
    bg.fill(0.0);
    for (std::size_t m = 0; m < count; ++m) {
      MIRAS_EXPECTS(passes[m].grads.size() == layers.size());
      wg += passes[m].grads[l].weight;
      bg += passes[m].grads[l].bias;
    }
    for (std::size_t i = 0; i < wg.size(); ++i) {
      const double g = wg.data()[i];
      sq_norm += g * g;
    }
    for (std::size_t i = 0; i < bg.size(); ++i) {
      const double g = bg.data()[i];
      sq_norm += g * g;
    }
  }
  const double norm = std::sqrt(sq_norm);
  const double scale =
      norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
  // Pass 2: scaled Adam update (the scale folds the clip into the step).
  optimizer.step_scaled(layers, scale);
  return norm;
}

void copy_rows(const Tensor& src, RowRange range, Tensor& dst) {
  MIRAS_EXPECTS(range.begin <= range.end && range.end <= src.rows());
  dst.resize(range.size(), src.cols());
  std::memcpy(dst.data(), src.data() + range.begin * src.cols(),
              range.size() * src.cols() * sizeof(double));
}

void paste_rows(const Tensor& src, RowRange range, Tensor& dst) {
  MIRAS_EXPECTS(range.begin <= range.end && range.end <= dst.rows());
  MIRAS_EXPECTS(src.rows() == range.size() && src.cols() == dst.cols());
  std::memcpy(dst.data() + range.begin * dst.cols(), src.data(),
              range.size() * dst.cols() * sizeof(double));
}

}  // namespace miras::nn
