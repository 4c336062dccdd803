// Payload encoders for networks on the miras::persist binary primitives.
// They carry no framing of their own: checkpoint sections, the dist
// `Weights` message and servable files embed them in the persist container,
// which owns the magic, version, length and CRC. Decoding is bit-exact.
//
// The readers take untrusted bytes. Every malformed payload — truncated
// data, a bad tensor shape, an unknown activation name, a layer list whose
// widths do not chain, a critic without its action-concat layer or with a
// final width other than 1 — throws std::runtime_error naming the context.
#pragma once

#include "nn/critic_network.h"
#include "nn/network.h"
#include "persist/binary_io.h"

namespace miras::nn {

void write_tensor(persist::BinaryWriter& out, const Tensor& tensor);
Tensor read_tensor(persist::BinaryReader& in);

void write_layers(persist::BinaryWriter& out,
                  const std::vector<DenseLayer>& layers);
std::vector<DenseLayer> read_layers(persist::BinaryReader& in);

void write_network(persist::BinaryWriter& out, const Network& net);
Network read_network(persist::BinaryReader& in);

void write_critic(persist::BinaryWriter& out, const CriticNetwork& net);
CriticNetwork read_critic(persist::BinaryReader& in);

}  // namespace miras::nn
