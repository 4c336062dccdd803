// Wire protocol layer (dist/wire.h): every message round-trips exactly,
// decode_batch_into reuses its scratch buffers and rejects non-finite
// transitions, unknown types are rejected,
// and MessageChannel frames messages over the production socketpair
// transport (including the closed-peer and corrupted-stream behaviours the
// learner's failure handling depends on).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "dist/wire.h"
#include "persist/binary_io.h"
#include "rl/ddpg.h"

namespace miras::dist {
namespace {

rl::BehaviorSnapshot make_behavior() {
  rl::DdpgConfig config;
  config.actor_hidden = {8, 8};
  config.critic_hidden = {8, 8};
  config.seed = 11;
  rl::DdpgAgent agent(/*state_dim=*/4, /*action_dim=*/4,
                      /*consumer_budget=*/10, config);
  // A couple of observations so the normaliser snapshot is non-trivial.
  const std::vector<double> s0{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> s1{2.0, 1.0, 0.5, 8.0};
  agent.observe_state_only(s0);
  agent.observe_state_only(s1);
  agent.observe_state_only(s0);
  return agent.behavior_snapshot();
}

BatchMsg make_batch() {
  BatchMsg batch;
  batch.collector_id = 3;
  batch.round = 7;
  batch.batch_seq = 41;
  batch.episode_index = 12;
  batch.constraint_violations = 2;
  for (int i = 0; i < 4; ++i) {
    envmodel::Transition t;
    t.state = {1.0 + i, 2.0, 3.5};
    t.action = {i, 2, 1};
    t.next_state = {0.5, 1.0 + i, 2.5};
    t.reward = -1.25 * i;
    batch.transitions.push_back(std::move(t));
  }
  return batch;
}

std::vector<std::uint8_t> encoded_bytes(const persist::BinaryWriter& out) {
  return out.bytes();
}

TEST(DistWire, HelloRoundTrips) {
  persist::BinaryWriter out;
  encode_hello(out, HelloMsg{kProtocolVersion, 5, 0xDEADBEEFCAFEF00DULL});
  persist::BinaryReader in(out.bytes().data(), out.size(), "hello");
  ASSERT_EQ(decode_type(in), MsgType::kHello);
  const HelloMsg hello = decode_hello(in);
  in.expect_end();
  EXPECT_EQ(hello.protocol_version, kProtocolVersion);
  EXPECT_EQ(hello.collector_id, 5u);
  EXPECT_EQ(hello.config_fingerprint, 0xDEADBEEFCAFEF00DULL);
}

TEST(DistWire, WeightsRoundTripsBitIdentically) {
  WeightsMsg weights;
  weights.round = 9;
  weights.random_actions = true;
  weights.behavior = make_behavior();
  persist::BinaryWriter out;
  encode_weights(out, weights);

  persist::BinaryReader in(out.bytes().data(), out.size(), "weights");
  ASSERT_EQ(decode_type(in), MsgType::kWeights);
  const WeightsMsg decoded = decode_weights(in);
  in.expect_end();
  EXPECT_EQ(decoded.round, 9u);
  EXPECT_TRUE(decoded.random_actions);
  EXPECT_EQ(decoded.behavior.normalizer.shift,
            weights.behavior.normalizer.shift);
  EXPECT_EQ(decoded.behavior.normalizer.scale,
            weights.behavior.normalizer.scale);
  EXPECT_EQ(decoded.behavior.action_dim, weights.behavior.action_dim);

  // The decoded snapshot must re-encode to the exact same bytes — the
  // canonical statement that nothing was lost or perturbed in transit.
  persist::BinaryWriter again;
  encode_weights(again, decoded);
  EXPECT_EQ(encoded_bytes(again), encoded_bytes(out));
}

TEST(DistWire, AssignRoundTrips) {
  AssignMsg assign;
  assign.round = 4;
  assign.start_seq = 6;
  for (std::size_t i = 0; i < 3; ++i) {
    core::EpisodeSpec spec;
    spec.index = 10 + i;
    spec.length = 25;
    spec.seed = 0x1000 + i;
    assign.episodes.push_back(spec);
  }
  persist::BinaryWriter out;
  encode_assign(out, assign);
  persist::BinaryReader in(out.bytes().data(), out.size(), "assign");
  ASSERT_EQ(decode_type(in), MsgType::kAssign);
  const AssignMsg decoded = decode_assign(in);
  in.expect_end();
  EXPECT_EQ(decoded.round, 4u);
  EXPECT_EQ(decoded.start_seq, 6u);
  ASSERT_EQ(decoded.episodes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded.episodes[i].index, 10 + i);
    EXPECT_EQ(decoded.episodes[i].length, 25u);
    EXPECT_EQ(decoded.episodes[i].seed, 0x1000 + i);
  }
}

TEST(DistWire, BatchRoundTrips) {
  const BatchMsg batch = make_batch();
  persist::BinaryWriter out;
  encode_batch(out, batch);
  persist::BinaryReader in(out.bytes().data(), out.size(), "batch");
  ASSERT_EQ(decode_type(in), MsgType::kBatch);
  BatchMsg decoded;
  decode_batch_into(in, decoded);
  in.expect_end();
  EXPECT_EQ(decoded.collector_id, batch.collector_id);
  EXPECT_EQ(decoded.round, batch.round);
  EXPECT_EQ(decoded.batch_seq, batch.batch_seq);
  EXPECT_EQ(decoded.episode_index, batch.episode_index);
  EXPECT_EQ(decoded.constraint_violations, batch.constraint_violations);
  ASSERT_EQ(decoded.transitions.size(), batch.transitions.size());
  for (std::size_t i = 0; i < batch.transitions.size(); ++i) {
    EXPECT_EQ(decoded.transitions[i].state, batch.transitions[i].state);
    EXPECT_EQ(decoded.transitions[i].action, batch.transitions[i].action);
    EXPECT_EQ(decoded.transitions[i].next_state,
              batch.transitions[i].next_state);
    EXPECT_EQ(decoded.transitions[i].reward, batch.transitions[i].reward);
  }
}

TEST(DistWire, DecodeBatchIntoReusesScratchCapacity) {
  const BatchMsg batch = make_batch();
  persist::BinaryWriter out;
  encode_batch(out, batch);

  BatchMsg scratch;
  for (int pass = 0; pass < 2; ++pass) {
    persist::BinaryReader in(out.bytes().data(), out.size(), "batch");
    ASSERT_EQ(decode_type(in), MsgType::kBatch);
    decode_batch_into(in, scratch);
  }
  // Same-shaped batches must not reallocate the scratch vectors: record the
  // buffer addresses, decode again, and require them unchanged.
  const double* state_buf = scratch.transitions[0].state.data();
  const int* action_buf = scratch.transitions[0].action.data();
  const envmodel::Transition* transitions_buf = scratch.transitions.data();
  persist::BinaryReader in(out.bytes().data(), out.size(), "batch");
  ASSERT_EQ(decode_type(in), MsgType::kBatch);
  decode_batch_into(in, scratch);
  EXPECT_EQ(scratch.transitions.data(), transitions_buf);
  EXPECT_EQ(scratch.transitions[0].state.data(), state_buf);
  EXPECT_EQ(scratch.transitions[0].action.data(), action_buf);
}

TEST(DistWire, DecodeBatchRejectsNonFiniteValuesNamingTheFirst) {
  // Each case plants one NaN or Inf in a copy of make_batch()'s batch and
  // expects the error to name that transition and index.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    std::size_t transition;
    const char* field;
    std::size_t index;
    double value;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {2, "state", 1, kNan, "transition 2 has non-finite state[1]"},
      {0, "next_state", 2, kInf, "transition 0 has non-finite next_state[2]"},
      {3, "next_state", 0, -kInf, "transition 3 has non-finite next_state[0]"},
      {1, "reward", 0, kNan, "transition 1 has non-finite reward"},
  };
  for (const Case& c : cases) {
    BatchMsg batch = make_batch();
    envmodel::Transition& t = batch.transitions[c.transition];
    if (std::string(c.field) == "state") t.state[c.index] = c.value;
    if (std::string(c.field) == "next_state") t.next_state[c.index] = c.value;
    if (std::string(c.field) == "reward") t.reward = c.value;
    // A later transition's NaN must not be the one reported.
    batch.transitions.back().reward = kNan;
    persist::BinaryWriter out;
    encode_batch(out, batch);
    persist::BinaryReader in(out.bytes().data(), out.size(), "batch");
    ASSERT_EQ(decode_type(in), MsgType::kBatch);
    BatchMsg decoded;
    try {
      decode_batch_into(in, decoded);
      ADD_FAILURE() << "accepted " << c.expected;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(c.expected), std::string::npos)
          << error.what();
    }
  }
}

TEST(DistWire, CreditHeartbeatShutdownRoundTrip) {
  persist::BinaryWriter credit;
  encode_credit(credit, CreditMsg{17});
  persist::BinaryReader credit_in(credit.bytes().data(), credit.size(), "c");
  ASSERT_EQ(decode_type(credit_in), MsgType::kCredit);
  EXPECT_EQ(decode_credit(credit_in).amount, 17u);

  persist::BinaryWriter heartbeat;
  encode_heartbeat(heartbeat, HeartbeatMsg{9});
  persist::BinaryReader hb_in(heartbeat.bytes().data(), heartbeat.size(),
                              "h");
  ASSERT_EQ(decode_type(hb_in), MsgType::kHeartbeat);
  EXPECT_EQ(decode_heartbeat(hb_in).collector_id, 9u);

  persist::BinaryWriter shutdown;
  encode_shutdown(shutdown);
  persist::BinaryReader sd_in(shutdown.bytes().data(), shutdown.size(), "s");
  EXPECT_EQ(decode_type(sd_in), MsgType::kShutdown);
}

TEST(DistWire, UnknownTypeByteThrows) {
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{8},
                                 std::uint8_t{255}}) {
    const std::uint8_t byte = bad;
    persist::BinaryReader in(&byte, 1, "type");
    EXPECT_THROW((void)decode_type(in), std::runtime_error) << int(bad);
  }
}

TEST(DistWire, MessageChannelRoundTripsOverSocketpair) {
  auto [a, b] = make_socketpair_streams();
  MessageChannel sender(a.get());
  MessageChannel receiver(b.get());

  persist::BinaryWriter out;
  encode_credit(out, CreditMsg{3});
  sender.send_message(out);
  out.clear();
  encode_heartbeat(out, HeartbeatMsg{1});
  sender.send_message(out);

  std::vector<std::uint8_t> payload;
  ASSERT_EQ(receiver.poll_payload(payload, 1000), RecvStatus::kData);
  persist::BinaryReader first(payload.data(), payload.size(), "m1");
  EXPECT_EQ(decode_type(first), MsgType::kCredit);
  EXPECT_EQ(decode_credit(first).amount, 3u);
  ASSERT_EQ(receiver.poll_payload(payload, 1000), RecvStatus::kData);
  persist::BinaryReader second(payload.data(), payload.size(), "m2");
  EXPECT_EQ(decode_type(second), MsgType::kHeartbeat);
  EXPECT_EQ(receiver.poll_payload(payload, 0), RecvStatus::kTimeout);
}

TEST(DistWire, MessageChannelDrainsBufferedFramesAfterClose) {
  auto [a, b] = make_socketpair_streams();
  MessageChannel receiver(b.get());
  {
    MessageChannel sender(a.get());
    persist::BinaryWriter out;
    encode_credit(out, CreditMsg{1});
    sender.send_message(out);
    a.reset();  // peer dies after a complete frame
  }
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(receiver.poll_payload(payload, 1000), RecvStatus::kData);
  EXPECT_EQ(receiver.poll_payload(payload, 1000), RecvStatus::kClosed);
}

TEST(DistWire, MessageChannelTreatsTornTailAsClosed) {
  auto [a, b] = make_socketpair_streams();
  MessageChannel receiver(b.get());
  persist::BinaryWriter out;
  encode_credit(out, CreditMsg{1});
  std::vector<std::uint8_t> frame;
  persist::append_frame(frame, out.bytes().data(), out.size());
  // Peer dies mid-send: only a prefix of the frame makes it out.
  a->send(frame.data(), frame.size() - 3);
  a.reset();
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(receiver.poll_payload(payload, 1000), RecvStatus::kClosed);
}

TEST(DistWire, MessageChannelThrowsOnCorruptedStream) {
  auto [a, b] = make_socketpair_streams();
  MessageChannel receiver(b.get());
  const std::uint8_t garbage[16] = {0x42, 0x42, 0x42, 0x42, 1, 2, 3, 4,
                                    5,    6,    7,    8,    9, 9, 9, 9};
  a->send(garbage, sizeof garbage);
  std::vector<std::uint8_t> payload;
  EXPECT_THROW((void)receiver.poll_payload(payload, 1000),
               std::runtime_error);
}

TEST(DistWire, SendToClosedPeerThrows) {
  // A collector that died leaves the learner writing into a closed socket:
  // the write must fail as an exception the pool can recover from, not as
  // a SIGPIPE that kills the process.
  auto [a, b] = make_socketpair_streams();
  b.reset();
  const std::uint8_t byte = 7;
  EXPECT_THROW(a->send(&byte, 1), std::runtime_error);
}

}  // namespace
}  // namespace miras::dist
