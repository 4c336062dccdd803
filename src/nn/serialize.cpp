#include "nn/serialize.h"

#include <stdexcept>
#include <string>
#include <utility>

namespace miras::nn {

namespace {

// Rejects a layer list in which layer l's input width differs from layer
// l-1's output width, for every l >= `first`.
void require_chained(const std::vector<DenseLayer>& layers, std::size_t first,
                     const persist::BinaryReader& in) {
  for (std::size_t l = first; l < layers.size(); ++l)
    if (layers[l].in_dim() != layers[l - 1].out_dim())
      throw std::runtime_error(
          "serialize: layer " + std::to_string(l) + " takes " +
          std::to_string(layers[l].in_dim()) + " inputs but layer " +
          std::to_string(l - 1) + " has " +
          std::to_string(layers[l - 1].out_dim()) + " outputs in " +
          in.context());
}

Activation read_activation(persist::BinaryReader& in) {
  const std::string name = in.str();
  try {
    return activation_from_name(name);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error("serialize: unknown activation \"" + name +
                             "\" in " + in.context());
  }
}

}  // namespace

void write_tensor(persist::BinaryWriter& out, const Tensor& tensor) {
  out.u64(tensor.rows());
  out.u64(tensor.cols());
  out.f64_array(tensor.data(), tensor.size());
}

Tensor read_tensor(persist::BinaryReader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  if (rows != 0 && cols > in.remaining() / 8 / rows)
    throw std::runtime_error("persist: tensor shape " + std::to_string(rows) +
                             "x" + std::to_string(cols) + " in " +
                             in.context() +
                             " exceeds remaining data — corrupted");
  Tensor tensor(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  in.f64_array(tensor.data(), tensor.size());
  return tensor;
}

void write_layers(persist::BinaryWriter& out,
                  const std::vector<DenseLayer>& layers) {
  out.u64(layers.size());
  for (const DenseLayer& layer : layers) {
    out.str(activation_name(layer.activation()));
    write_tensor(out, layer.weights());
    write_tensor(out, layer.bias());
  }
}

std::vector<DenseLayer> read_layers(persist::BinaryReader& in) {
  const std::uint64_t num_layers = in.u64();
  if (num_layers == 0)
    throw std::runtime_error("serialize: bad layer count in " + in.context());
  std::vector<DenseLayer> layers;
  for (std::uint64_t l = 0; l < num_layers; ++l) {
    const Activation activation = read_activation(in);
    Tensor weights = read_tensor(in);
    Tensor bias = read_tensor(in);
    if (weights.rows() == 0 || weights.cols() == 0 ||
        bias.rows() != 1 || bias.cols() != weights.cols())
      throw std::runtime_error("serialize: bad layer shape in " +
                               in.context());
    layers.emplace_back(std::move(weights), std::move(bias), activation);
  }
  return layers;
}

void write_network(persist::BinaryWriter& out, const Network& net) {
  write_layers(out, net.layers());
}

Network read_network(persist::BinaryReader& in) {
  std::vector<DenseLayer> layers = read_layers(in);
  require_chained(layers, 1, in);
  return Network(std::move(layers));
}

void write_critic(persist::BinaryWriter& out, const CriticNetwork& net) {
  write_layers(out, net.layers());
}

CriticNetwork read_critic(persist::BinaryReader& in) {
  std::vector<DenseLayer> layers = read_layers(in);
  // Layer 1 takes layer 0's output concatenated with the action.
  if (layers.size() < 3)
    throw std::runtime_error("serialize: critic has " +
                             std::to_string(layers.size()) +
                             " layers, needs at least 3, in " + in.context());
  if (layers[1].in_dim() <= layers[0].out_dim())
    throw std::runtime_error(
        "serialize: critic layer 1 takes " +
        std::to_string(layers[1].in_dim()) +
        " inputs, leaving no action width after layer 0's " +
        std::to_string(layers[0].out_dim()) + " outputs, in " + in.context());
  require_chained(layers, 2, in);
  if (layers.back().out_dim() != 1)
    throw std::runtime_error("serialize: critic output width " +
                             std::to_string(layers.back().out_dim()) +
                             " is not 1 in " + in.context());
  return CriticNetwork(std::move(layers));
}

}  // namespace miras::nn
