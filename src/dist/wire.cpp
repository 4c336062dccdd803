#include "dist/wire.h"

#include <chrono>
#include <stdexcept>
#include <string>

namespace miras::dist {

namespace {
/// Bytes a transition takes on the wire at the least: three empty
/// sequences' lengths and the reward.
constexpr std::size_t kMinTransitionBytes = 4 * 8;
/// Bytes of one EpisodeSpec in an Assign: index, length, seed.
constexpr std::size_t kEpisodeSpecBytes = 3 * 8;
/// Largest read of MessageChannel::poll_payload, straight into the
/// decoder's buffer: a ~90 KB Weights frame takes a few reads, not one per
/// 4 KB.
constexpr std::size_t kRecvChunk = 64 * 1024;
}  // namespace

void encode_hello(persist::BinaryWriter& out, const HelloMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kHello));
  out.u32(m.protocol_version);
  out.u32(m.collector_id);
  out.u64(m.config_fingerprint);
}

void encode_weights(persist::BinaryWriter& out, const WeightsMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kWeights));
  out.u64(m.round);
  out.boolean(m.random_actions);
  m.behavior.save_state(out);
}

void encode_assign(persist::BinaryWriter& out, const AssignMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kAssign));
  out.u64(m.round);
  out.u64(m.start_seq);
  out.u64(m.episodes.size());
  for (const core::EpisodeSpec& spec : m.episodes) {
    out.u64(spec.index);
    out.u64(spec.length);
    out.u64(spec.seed);
  }
}

void encode_batch(persist::BinaryWriter& out, const BatchMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  out.u32(m.collector_id);
  out.u64(m.round);
  out.u64(m.batch_seq);
  out.u64(m.episode_index);
  out.u64(m.constraint_violations);
  out.u64(m.transitions.size());
  for (const envmodel::Transition& t : m.transitions) {
    out.vec_f64(t.state);
    out.vec_i32(t.action);
    out.vec_f64(t.next_state);
    out.f64(t.reward);
  }
}

void encode_credit(persist::BinaryWriter& out, const CreditMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kCredit));
  out.u32(m.amount);
}

void encode_heartbeat(persist::BinaryWriter& out, const HeartbeatMsg& m) {
  out.u8(static_cast<std::uint8_t>(MsgType::kHeartbeat));
  out.u32(m.collector_id);
}

void encode_shutdown(persist::BinaryWriter& out) {
  out.u8(static_cast<std::uint8_t>(MsgType::kShutdown));
}

MsgType decode_type(persist::BinaryReader& in) {
  const std::uint8_t type = in.u8();
  if (type < static_cast<std::uint8_t>(MsgType::kHello) ||
      type > static_cast<std::uint8_t>(MsgType::kShutdown))
    throw std::runtime_error("dist: unknown wire message type " +
                             std::to_string(type));
  return static_cast<MsgType>(type);
}

HelloMsg decode_hello(persist::BinaryReader& in) {
  HelloMsg m;
  m.protocol_version = in.u32();
  m.collector_id = in.u32();
  m.config_fingerprint = in.u64();
  return m;
}

WeightsMsg decode_weights(persist::BinaryReader& in) {
  WeightsMsg m;
  m.round = in.u64();
  m.random_actions = in.boolean();
  m.behavior.restore_state(in);
  return m;
}

AssignMsg decode_assign(persist::BinaryReader& in) {
  AssignMsg m;
  m.round = in.u64();
  m.start_seq = in.u64();
  m.episodes.resize(in.count(kEpisodeSpecBytes));
  for (core::EpisodeSpec& spec : m.episodes) {
    spec.index = static_cast<std::size_t>(in.u64());
    spec.length = static_cast<std::size_t>(in.u64());
    spec.seed = in.u64();
  }
  return m;
}

CreditMsg decode_credit(persist::BinaryReader& in) {
  CreditMsg m;
  m.amount = in.u32();
  return m;
}

HeartbeatMsg decode_heartbeat(persist::BinaryReader& in) {
  HeartbeatMsg m;
  m.collector_id = in.u32();
  return m;
}

void decode_batch_key(persist::BinaryReader& in, BatchMsg& out) {
  out.collector_id = in.u32();
  out.round = in.u64();
  out.batch_seq = in.u64();
  out.episode_index = in.u64();
  out.constraint_violations = in.u64();
}

void decode_transitions_into(persist::BinaryReader& in,
                             std::vector<envmodel::Transition>& out) {
  // resize keeps existing elements' vector capacity; with a stable episode
  // shape no steady-state allocation happens here.
  out.resize(in.count(kMinTransitionBytes));
  for (std::size_t k = 0; k < out.size(); ++k) {
    envmodel::Transition& t = out[k];
    in.vec_f64_into(t.state);
    in.vec_i32_into(t.action);
    in.vec_f64_into(t.next_state);
    t.reward = in.f64();
    envmodel::require_finite(t, "dist: Batch transition", k);
  }
}

void decode_batch_into(persist::BinaryReader& in, BatchMsg& out) {
  decode_batch_key(in, out);
  decode_transitions_into(in, out.transitions);
}

MessageChannel::MessageChannel(ByteStream* stream) : stream_(stream) {}

void MessageChannel::send_message(const persist::BinaryWriter& payload) {
  frame_.clear();
  persist::append_frame(frame_, payload.bytes().data(), payload.size());
  stream_->send(frame_.data(), frame_.size());
}

RecvStatus MessageChannel::poll_payload(std::vector<std::uint8_t>& payload,
                                        int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (decoder_.next(payload)) return RecvStatus::kData;
    if (decoder_.error() != persist::FrameError::kNone) {
      // A partial frame at end-of-stream is the peer dying mid-send:
      // expected during failure handling, so it closes rather than throws.
      if (closed_ && decoder_.error() == persist::FrameError::kTruncated)
        return RecvStatus::kClosed;
      throw CorruptedStream(
          std::string("dist: corrupted message stream: ") +
          persist::frame_error_name(decoder_.error()));
    }
    if (closed_) return RecvStatus::kClosed;

    const auto now = std::chrono::steady_clock::now();
    const int remaining =
        now >= deadline
            ? 0
            : static_cast<int>(
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count());
    const RecvResult r = stream_->recv_some(decoder_.prepare(kRecvChunk),
                                            kRecvChunk, remaining);
    if (r.status == RecvStatus::kData) {
      decoder_.commit(r.bytes);
      continue;
    }
    if (r.status == RecvStatus::kClosed) {
      closed_ = true;
      decoder_.finish();
      continue;  // drain buffered frames (and classify any tail) above
    }
    if (now >= deadline) return RecvStatus::kTimeout;
  }
}

}  // namespace miras::dist
