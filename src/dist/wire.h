// Typed message layer of the distributed actor-learner protocol, encoded
// with the persist binary primitives and carried as CRC-checked frames
// (persist/frame_stream.h) over any ByteStream transport.
//
// Message flow (learner <-> collector k):
//
//   collector -> learner   Hello      protocol version, id, config fingerprint
//   learner   -> collector Weights    round, behaviour snapshot to act with
//   learner   -> collector Assign     round, episode specs, starting batch_seq
//   learner   -> collector Credit     in-flight batch allowance (+n)
//   collector -> learner   Batch      (collector_id, batch_seq): one episode
//   collector -> learner   Heartbeat  liveness while idle
//   learner   -> collector Shutdown   clean exit
//
// A collector may send a Batch only while it holds credit; the learner
// grants one credit back per batch it folds. That bounds bytes in flight
// per collector to credit × batch size, so a stalled learner back-pressures
// collectors instead of buffering without limit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/collection.h"
#include "dist/transport.h"
#include "envmodel/dataset.h"
#include "persist/binary_io.h"
#include "persist/frame_stream.h"
#include "rl/ddpg.h"

namespace miras::dist {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kWeights = 2,
  kAssign = 3,
  kBatch = 4,
  kCredit = 5,
  kHeartbeat = 6,
  kShutdown = 7,
};

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint32_t collector_id = 0;
  /// config_fingerprint(MirasConfig) of the collector's config; the
  /// learner refuses a collector built from a different config outright —
  /// mixed-config episodes would silently break bit-identity.
  std::uint64_t config_fingerprint = 0;
};

struct WeightsMsg {
  /// Collection-phase counter; Assign/Batch round fields must match.
  std::uint64_t round = 0;
  bool random_actions = false;
  rl::BehaviorSnapshot behavior;
};

struct AssignMsg {
  std::uint64_t round = 0;
  /// First batch_seq this assignment produces. 0 on the initial assignment;
  /// a respawned collector resumes where its predecessor's *folded* batches
  /// ended, keeping the (collector_id, batch_seq) key sequence gapless.
  std::uint64_t start_seq = 0;
  std::vector<core::EpisodeSpec> episodes;
};

struct BatchMsg {
  std::uint32_t collector_id = 0;
  std::uint64_t round = 0;
  std::uint64_t batch_seq = 0;
  std::uint64_t episode_index = 0;
  std::uint64_t constraint_violations = 0;
  std::vector<envmodel::Transition> transitions;
};

struct CreditMsg {
  std::uint32_t amount = 0;
};

struct HeartbeatMsg {
  std::uint32_t collector_id = 0;
};

/// Encoders append [type u8][body] to `out`.
void encode_hello(persist::BinaryWriter& out, const HelloMsg& m);
void encode_weights(persist::BinaryWriter& out, const WeightsMsg& m);
void encode_assign(persist::BinaryWriter& out, const AssignMsg& m);
void encode_batch(persist::BinaryWriter& out, const BatchMsg& m);
void encode_credit(persist::BinaryWriter& out, const CreditMsg& m);
void encode_heartbeat(persist::BinaryWriter& out, const HeartbeatMsg& m);
void encode_shutdown(persist::BinaryWriter& out);

/// Reads the leading type byte (throws on an unknown type).
MsgType decode_type(persist::BinaryReader& in);

/// Body decoders; call after decode_type() identified the message.
HelloMsg decode_hello(persist::BinaryReader& in);
WeightsMsg decode_weights(persist::BinaryReader& in);
AssignMsg decode_assign(persist::BinaryReader& in);
CreditMsg decode_credit(persist::BinaryReader& in);
HeartbeatMsg decode_heartbeat(persist::BinaryReader& in);

/// Batch decoding in two steps, so the learner can check a batch's merge
/// key before choosing where its transitions land. decode_batch_key reads
/// every field ahead of the transitions into `out`, leaving
/// out.transitions alone. decode_transitions_into then reads the
/// transitions into `out` (resized; each transition's vectors keep their
/// capacity, so the steady-state ingest of same-shaped batches allocates
/// nothing). It throws std::runtime_error naming the transition and index
/// of the first NaN or +-Inf in a state, next_state or reward: a collector
/// runs a deterministic episode, so such a batch is a fault to surface, not
/// a death to respawn past.
void decode_batch_key(persist::BinaryReader& in, BatchMsg& out);
void decode_transitions_into(persist::BinaryReader& in,
                             std::vector<envmodel::Transition>& out);

/// Both steps into one reused message.
void decode_batch_into(persist::BinaryReader& in, BatchMsg& out);

/// Thrown by MessageChannel::poll_payload on a corrupted frame (bad
/// magic/CRC/length), as distinct from a transport failure: a collector's
/// encoder is deterministic, so a respawn would resend the same bytes.
struct CorruptedStream : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Framing + scratch-buffer glue over one ByteStream. send_message frames
/// an encoded payload (reusing the frame scratch); poll_payload feeds
/// received bytes through a FrameDecoder and yields one message payload at
/// a time. A corrupted frame throws CorruptedStream; the learner surfaces
/// it rather than folding or respawning past it.
class MessageChannel {
 public:
  explicit MessageChannel(ByteStream* stream);

  /// Frames and sends `payload.bytes()`.
  void send_message(const persist::BinaryWriter& payload);

  /// Returns kData with one payload, kTimeout after `timeout_ms` with no
  /// complete frame, or kClosed once the stream ended and every buffered
  /// complete frame was consumed (a trailing partial frame is discarded —
  /// the peer died mid-send).
  RecvStatus poll_payload(std::vector<std::uint8_t>& payload, int timeout_ms);

  std::size_t buffered_bytes() const { return decoder_.buffered_bytes(); }

 private:
  ByteStream* stream_;
  persist::FrameDecoder decoder_;
  std::vector<std::uint8_t> frame_;
  bool closed_ = false;
};

}  // namespace miras::dist
