#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace miras::nn {
namespace {

Network make_network() {
  Rng rng(1);
  MlpSpec spec;
  spec.input_dim = 4;
  spec.hidden_dims = {6, 5};
  spec.output_dim = 3;
  spec.hidden_activation = Activation::kRelu;
  spec.output_activation = Activation::kSoftmax;
  return Network(spec, rng);
}

CriticNetwork make_critic() {
  Rng rng(2);
  CriticSpec spec;
  spec.state_dim = 3;
  spec.action_dim = 2;
  spec.hidden_dims = {8, 6};
  return CriticNetwork(spec, rng);
}

persist::BinaryReader reader_over(const std::vector<std::uint8_t>& bytes) {
  return persist::BinaryReader(bytes.data(), bytes.size(), "test payload");
}

Network round_trip(const Network& net) {
  persist::BinaryWriter out;
  write_network(out, net);
  persist::BinaryReader in = reader_over(out.bytes());
  Network loaded = read_network(in);
  in.expect_end();
  return loaded;
}

// (in_dim, out_dim) pairs, relu hidden layers, identity on the last one.
std::vector<DenseLayer> make_layers(
    const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  Rng rng(3);
  std::vector<DenseLayer> layers;
  for (std::size_t l = 0; l < shapes.size(); ++l)
    layers.emplace_back(shapes[l].first, shapes[l].second,
                        l + 1 == shapes.size() ? Activation::kIdentity
                                               : Activation::kRelu,
                        rng);
  return layers;
}

std::vector<std::uint8_t> encode_layers(const std::vector<DenseLayer>& layers) {
  persist::BinaryWriter out;
  write_layers(out, layers);
  return out.take();
}

// Runs `read` over `bytes` and expects a std::runtime_error whose message
// contains `needle`; any other outcome fails the calling block only.
template <typename Read>
void expect_rejected(const std::vector<std::uint8_t>& bytes, Read read,
                     const std::string& needle) {
  persist::BinaryReader in = reader_over(bytes);
  try {
    read(in);
    ADD_FAILURE() << "accepted a payload that should fail with: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "expected std::runtime_error (" << needle
                  << "), got: " << e.what();
  }
}

TEST(Serialize, NetworkRoundTripBitExact) {
  const Network original = make_network();
  const Network loaded = round_trip(original);

  EXPECT_EQ(loaded.num_layers(), original.num_layers());
  EXPECT_EQ(loaded.get_parameters(), original.get_parameters());
  for (std::size_t l = 0; l < loaded.num_layers(); ++l)
    EXPECT_EQ(loaded.layer(l).activation(), original.layer(l).activation());

  const std::vector<double> x{0.1, -0.7, 2.5, 0.0};
  EXPECT_EQ(loaded.predict_one(x), original.predict_one(x));
}

TEST(Serialize, CriticRoundTripBitExact) {
  const CriticNetwork original = make_critic();
  persist::BinaryWriter out;
  write_critic(out, original);
  persist::BinaryReader in = reader_over(out.bytes());
  const CriticNetwork loaded = read_critic(in);
  in.expect_end();

  EXPECT_EQ(loaded.state_dim(), 3u);
  EXPECT_EQ(loaded.action_dim(), 2u);
  const std::vector<double> s{0.4, -0.2, 1.1}, a{0.3, 0.7};
  EXPECT_EQ(loaded.predict_one(s, a), original.predict_one(s, a));
}

TEST(Serialize, ExtremeValuesSurvive) {
  Network net = make_network();
  auto params = net.get_parameters();
  params[0] = 1e-300;
  params[1] = -1e300;
  params[2] = 3.141592653589793;
  net.set_parameters(params);
  EXPECT_EQ(round_trip(net).get_parameters(), params);
}

TEST(Serialize, RejectsMalformedLayerLists) {
  const auto as_network = [](persist::BinaryReader& in) { read_network(in); };
  const auto as_critic = [](persist::BinaryReader& in) { read_critic(in); };

  // Control: well-formed lists decode under both readers.
  {
    const auto bytes = encode_layers(make_layers({{4, 6}, {6, 3}}));
    persist::BinaryReader in = reader_over(bytes);
    EXPECT_EQ(read_network(in).output_dim(), 3u);
  }
  {
    const auto bytes = encode_layers(make_layers({{3, 8}, {10, 6}, {6, 1}}));
    persist::BinaryReader in = reader_over(bytes);
    EXPECT_EQ(read_critic(in).action_dim(), 2u);
  }

  // A network whose layers do not chain (4->6, then 5->3).
  expect_rejected(encode_layers(make_layers({{4, 6}, {5, 3}})), as_network,
                  "layer 1 takes 5 inputs but layer 0 has 6 outputs");

  // An activation name this build does not know.
  {
    Rng rng(4);
    const DenseLayer layer(2, 2, Activation::kRelu, rng);
    persist::BinaryWriter out;
    out.u64(1);
    out.str("gelu");
    write_tensor(out, layer.weights());
    write_tensor(out, layer.bias());
    expect_rejected(out.bytes(), as_network, "unknown activation \"gelu\"");
  }

  // A critic with no layer after the action concat.
  expect_rejected(encode_layers(make_layers({{3, 8}, {10, 1}})), as_critic,
                  "critic has 2 layers, needs at least 3");

  // A critic whose second layer leaves no room for the action.
  expect_rejected(encode_layers(make_layers({{3, 8}, {8, 6}, {6, 1}})),
                  as_critic, "leaving no action width");

  // A critic whose later layers do not chain.
  expect_rejected(encode_layers(make_layers({{3, 8}, {10, 6}, {5, 1}})),
                  as_critic, "layer 2 takes 5 inputs but layer 1 has 6");

  // A critic that does not end in one Q-value.
  expect_rejected(encode_layers(make_layers({{3, 8}, {10, 6}, {6, 2}})),
                  as_critic, "critic output width 2 is not 1");

  // A critic's layers read as a network: layer 1 takes the action too.
  {
    persist::BinaryWriter out;
    write_critic(out, make_critic());
    expect_rejected(out.bytes(), as_network,
                    "layer 1 takes 10 inputs but layer 0 has 8 outputs");
  }
}

}  // namespace
}  // namespace miras::nn
