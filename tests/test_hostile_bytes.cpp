// Hostile bytes into the dist frame and wire decoders: a seeded mutation
// loop with a fixed budget. Its corpus comes from the encoders themselves
// (a Batch, a Weights, an Assign, and the frames around them); each input
// is bit-flipped, truncated, spliced with another, or has a length or
// count field rewritten, then fed to FrameDecoder, decode_batch_into,
// decode_weights and decode_assign. Every input must end in a payload, one
// of the FrameError codes, or a std::runtime_error: never a crash, a logic
// error, or a bad_alloc. Every single allocation a decoder makes must stay
// within a small multiple of the bytes it was given, so no corrupted
// length can size a buffer past the data that backs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dist/wire.h"
#include "persist/binary_io.h"
#include "persist/frame_stream.h"
#include "rl/ddpg.h"

namespace {
// The largest single operator-new request made while armed on this thread.
thread_local bool g_armed = false;
thread_local std::size_t g_largest_request = 0;
}  // namespace

// The replacements stay out of line, so the compiler pairs each call site
// with these operators and never sees malloc meet a delete expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_armed && size > g_largest_request) g_largest_request = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace miras::dist {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// Mutations per corpus entry and decoder. Sized so the suite runs in well
/// under a second in an optimised build.
constexpr int kBudget = 3000;

Bytes batch_payload() {
  BatchMsg batch;
  batch.collector_id = 1;
  batch.round = 4;
  batch.batch_seq = 2;
  batch.episode_index = 9;
  batch.constraint_violations = 1;
  for (int i = 0; i < 5; ++i) {
    envmodel::Transition t;
    t.state = {1.0 + i, 2.0, 3.0, 4.5};
    t.action = {i, 3, -1, 2};
    t.next_state = {0.5, 1.0 + i, 2.0, 3.0};
    t.reward = -2.0 * i;
    batch.transitions.push_back(std::move(t));
  }
  persist::BinaryWriter out;
  encode_batch(out, batch);
  return out.bytes();
}

Bytes weights_payload() {
  rl::DdpgConfig config;
  config.actor_hidden = {6, 6};
  config.critic_hidden = {6, 6};
  config.seed = 3;
  rl::DdpgAgent agent(4, 4, 10, config);
  agent.observe_state_only({1.0, 2.0, 3.0, 4.0});
  agent.observe_state_only({4.0, 1.0, 0.5, 2.0});
  WeightsMsg weights;
  weights.round = 4;
  weights.behavior = agent.behavior_snapshot();
  persist::BinaryWriter out;
  encode_weights(out, weights);
  return out.bytes();
}

Bytes assign_payload() {
  AssignMsg assign;
  assign.round = 4;
  assign.start_seq = 1;
  assign.episodes = {{3, 25, 17}, {7, 25, 0xFFFF0000FFFFULL}, {11, 25, 5}};
  persist::BinaryWriter out;
  encode_assign(out, assign);
  return out.bytes();
}

Bytes framed(const Bytes& payload) {
  Bytes frame;
  persist::append_frame(frame, payload.data(), payload.size());
  return frame;
}

/// Values a rewritten length or count field takes: boundaries, the sizes
/// near the data, and one random value.
std::uint64_t hostile_length(Rng& rng, std::size_t size) {
  const std::uint64_t choices[] = {0,
                                   1,
                                   size / 8,
                                   size / 8 + 1,
                                   size,
                                   size + 1,
                                   0xFFFFFFFFULL,
                                   0x100000000ULL,
                                   0x7FFFFFFFFFFFFFFFULL,
                                   0xFFFFFFFFFFFFFFFFULL,
                                   rng.next_u64()};
  return choices[rng.uniform_int(0, 10)];
}

/// One mutation of `input`: a bit flip run, a truncation, a splice with
/// `other`, or a rewritten length or count field.
Bytes mutate(const Bytes& input, const Bytes& other, Rng& rng) {
  Bytes out = input;
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      const std::int64_t flips = rng.uniform_int(1, 4);
      for (std::int64_t f = 0; f < flips && !out.empty(); ++f) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
        out[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    }
    case 1:
      out.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()))));
      break;
    case 2: {
      const auto cut = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size())));
      const auto from = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(other.size())));
      out.resize(cut);
      out.insert(out.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
      break;
    }
    default: {
      // Length and count fields are the u32s and u64s holding small
      // positive values; rewrite one of those.
      const std::size_t width = rng.uniform_int(0, 1) == 0 ? 4 : 8;
      std::vector<std::size_t> fields;
      for (std::size_t at = 0; at + width <= out.size(); ++at) {
        std::uint64_t value = 0;
        for (std::size_t i = 0; i < width; ++i)
          value |= static_cast<std::uint64_t>(out[at + i]) << (8 * i);
        if (value >= 1 && value < (1u << 16)) fields.push_back(at);
      }
      if (fields.empty()) break;
      const std::size_t at = fields[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fields.size()) - 1))];
      const std::uint64_t value = hostile_length(rng, out.size());
      for (std::size_t i = 0; i < width; ++i)
        out[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
      break;
    }
  }
  return out;
}

/// Runs `decode` on `input` and reports how it ended: "ok", "runtime", or
/// a failure description for anything else. Checks the allocation bound.
std::string run_decoder(const std::function<void()>& decode,
                        std::size_t input_size) {
  std::string outcome = "ok";
  g_largest_request = 0;
  g_armed = true;
  try {
    decode();
  } catch (const std::runtime_error&) {
    outcome = "runtime";
  } catch (const std::exception& error) {
    outcome = std::string("unexpected exception: ") + error.what();
  }
  g_armed = false;
  // Transitions unpack to 80 bytes from at least 32 on the wire; error
  // messages and context strings fit in the constant.
  const std::size_t bound = 4 * input_size + 4096;
  if (g_largest_request > bound)
    outcome = "allocated " + std::to_string(g_largest_request) +
              " bytes for a " + std::to_string(input_size) + "-byte input";
  return outcome;
}

/// Decodes one message payload the way the learner or a collector would.
void decode_message(const Bytes& payload) {
  persist::BinaryReader in(payload.data(), payload.size(), "hostile message");
  switch (decode_type(in)) {
    case MsgType::kBatch: {
      BatchMsg batch;
      decode_batch_into(in, batch);
      break;
    }
    case MsgType::kWeights:
      (void)decode_weights(in);
      break;
    case MsgType::kAssign:
      (void)decode_assign(in);
      break;
    case MsgType::kHello:
      (void)decode_hello(in);
      break;
    case MsgType::kCredit:
      (void)decode_credit(in);
      break;
    case MsgType::kHeartbeat:
      (void)decode_heartbeat(in);
      break;
    case MsgType::kShutdown:
      break;
  }
  in.expect_end();
}

struct Corpus {
  std::vector<Bytes> payloads = {batch_payload(), weights_payload(),
                                 assign_payload()};
};

TEST(HostileBytes, EncodedCorpusDecodesCleanly) {
  // The unmutated corpus is valid, so every rejection below is the
  // mutation's doing.
  const Corpus corpus;
  for (const Bytes& payload : corpus.payloads)
    EXPECT_EQ(run_decoder([&] { decode_message(payload); }, payload.size()),
              "ok");
}

TEST(HostileBytes, MessageDecodersThrowOrDecodeWithinTheirBytes) {
  const Corpus corpus;
  Rng rng(20260);
  std::size_t rejected = 0;
  for (std::size_t c = 0; c < corpus.payloads.size(); ++c) {
    const Bytes& payload = corpus.payloads[c];
    const Bytes& other = corpus.payloads[(c + 1) % corpus.payloads.size()];
    for (int i = 0; i < kBudget; ++i) {
      const Bytes input = mutate(payload, other, rng);
      // Each decoder directly, past the type byte, so a mutated type byte
      // cannot hide the body from it.
      const std::function<void(persist::BinaryReader&)> bodies[] = {
          [](persist::BinaryReader& in) {
            BatchMsg batch;
            decode_batch_into(in, batch);
          },
          [](persist::BinaryReader& in) { (void)decode_weights(in); },
          [](persist::BinaryReader& in) { (void)decode_assign(in); }};
      for (const auto& body : bodies) {
        const std::string outcome = run_decoder(
            [&] {
              persist::BinaryReader in(input.data(), input.size(), "hostile");
              if (in.remaining() > 0) (void)in.u8();
              body(in);
            },
            input.size());
        ASSERT_TRUE(outcome == "ok" || outcome == "runtime")
            << "corpus " << c << " mutation " << i << ": " << outcome;
        rejected += outcome == "runtime" ? 1 : 0;
      }
      const std::string whole =
          run_decoder([&] { decode_message(input); }, input.size());
      ASSERT_TRUE(whole == "ok" || whole == "runtime")
          << "corpus " << c << " mutation " << i << ": " << whole;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(HostileBytes, FrameDecoderYieldsPayloadsOrOneDistinctError) {
  const Corpus corpus;
  Rng rng(4242);
  std::size_t errors_seen[5] = {};
  for (std::size_t c = 0; c < corpus.payloads.size(); ++c) {
    // Two frames back to back, so mutations also land between frames.
    Bytes stream = framed(corpus.payloads[c]);
    const Bytes second = framed(corpus.payloads[(c + 1) % 3]);
    stream.insert(stream.end(), second.begin(), second.end());
    for (int i = 0; i < kBudget; ++i) {
      const Bytes input = mutate(stream, second, rng);
      persist::FrameDecoder decoder;
      std::vector<Bytes> payloads;
      const std::string outcome = run_decoder(
          [&] {
            // Random chunking: the decoder must not care where reads split.
            std::size_t at = 0;
            Bytes payload;
            while (at < input.size()) {
              const auto n = std::min<std::size_t>(
                  input.size() - at,
                  static_cast<std::size_t>(rng.uniform_int(1, 700)));
              decoder.feed(input.data() + at, n);
              at += n;
              while (decoder.next(payload)) payloads.push_back(payload);
            }
            decoder.finish();
            while (decoder.next(payload)) payloads.push_back(payload);
          },
          input.size());
      ASSERT_EQ(outcome, "ok") << "mutation " << i;
      const persist::FrameError error = decoder.error();
      ASSERT_LE(static_cast<int>(error),
                static_cast<int>(persist::FrameError::kBadLength));
      ++errors_seen[static_cast<int>(error)];
      ASSERT_LE(payloads.size(), 2u);
      // A payload that passed its CRC goes on to the message decoders.
      for (const Bytes& payload : payloads) {
        const std::string decoded =
            run_decoder([&] { decode_message(payload); }, payload.size());
        ASSERT_TRUE(decoded == "ok" || decoded == "runtime")
            << "mutation " << i << ": " << decoded;
      }
    }
  }
  // The budget reaches every error class, and clean streams too.
  for (int e = 0; e < 5; ++e)
    EXPECT_GT(errors_seen[e], 0u)
        << persist::frame_error_name(static_cast<persist::FrameError>(e));
}

}  // namespace
}  // namespace miras::dist
