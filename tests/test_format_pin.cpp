// Format pins: the exact bytes the dist wire and the checkpoint container
// put on the wire and on disk. The round-trip suites cannot catch a format
// change, because the encoder and the decoder would move together; these
// tests compare encoder output with bytes recorded from a known-good build.
// Short messages are pinned as hex, long ones as (size, FNV-1a 64 digest).
// A pin may change only with a deliberate, versioned format change
// (kProtocolVersion, persist::kFormatVersion).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "dist/wire.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "persist/crc32.h"
#include "persist/frame_stream.h"
#include "rl/ddpg.h"
#include "sim/system.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras {
namespace {

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

/// "<size>:<fnv1a64 as 16 hex digits>".
std::string digest(const std::vector<std::uint8_t>& bytes) {
  char fnv[17];
  std::snprintf(fnv, sizeof fnv, "%016llx",
                static_cast<unsigned long long>(
                    persist::fnv1a64(bytes.data(), bytes.size())));
  return std::to_string(bytes.size()) + ":" + fnv;
}

/// The frame append_frame wraps around `payload`: header, CRC and body.
std::vector<std::uint8_t> framed(const persist::BinaryWriter& payload) {
  std::vector<std::uint8_t> frame;
  persist::append_frame(frame, payload.bytes().data(), payload.size());
  return frame;
}

TEST(FormatPin, BatchFrameBytes) {
  dist::BatchMsg batch;
  batch.collector_id = 2;
  batch.round = 0x0102030405060708ULL;
  batch.batch_seq = 17;
  batch.episode_index = 63;
  batch.constraint_violations = 5;
  for (int i = 0; i < 3; ++i) {
    envmodel::Transition t;
    t.state = {0.5 + i, -0.0, 1e-310, 123456.789 * (i + 1)};
    t.action = {i - 1, 7, -2147483647 - 1, 2147483647};
    t.next_state = {std::numeric_limits<double>::max(), -1.5 * i, 0.0, 3.25};
    t.reward = -812.0625 + i;
    batch.transitions.push_back(std::move(t));
  }
  persist::BinaryWriter payload;
  dist::encode_batch(payload, batch);
  EXPECT_EQ(digest(payload.bytes()), "429:3cad2067c0e0a03a");
  EXPECT_EQ(digest(framed(payload)), "441:a2adc1c1fd1e4dad");
}

TEST(FormatPin, WeightsFrameBytesFromLigoFastActor) {
  const std::size_t dim = workflows::make_ligo_ensemble().num_task_types();
  rl::DdpgConfig ddpg = core::miras_ligo_fast_config().ddpg;
  ddpg.seed = 29;
  rl::DdpgAgent agent(dim, dim, workflows::kLigoConsumerBudget, ddpg);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> state(dim);
    for (std::size_t j = 0; j < dim; ++j)
      state[j] = 10.0 * (k + 1) + 0.25 * static_cast<double>(j);
    agent.observe_state_only(state);
  }
  dist::WeightsMsg weights;
  weights.round = 12;
  weights.random_actions = false;
  weights.behavior = agent.behavior_snapshot();
  persist::BinaryWriter payload;
  dist::encode_weights(payload, weights);
  EXPECT_EQ(digest(payload.bytes()), "89511:0ea4710e6f5ed421");
  EXPECT_EQ(digest(framed(payload)), "89523:1f0ba3b80f9b1236");
}

TEST(FormatPin, AssignFrameHex) {
  dist::AssignMsg assign;
  assign.round = 3;
  assign.start_seq = 1;
  assign.episodes = {{4, 25, 0xA5A5A5A5DEADBEEFULL}, {9, 25, 77}};
  persist::BinaryWriter payload;
  dist::encode_assign(payload, assign);
  EXPECT_EQ(to_hex(framed(payload)),
            "4d46523049000000dd7807ce0303000000000000000100000000000000"
            "020000000000000004000000000000001900000000000000efbeadde"
            "a5a5a5a5090000000000000019000000000000004d00000000000000");}

TEST(FormatPin, CheckpointFileBytesHoldEverySection) {
  // A tiny MSD run after one iteration: every section the trainer writes
  // (meta, env, dataset, model, refiner, ddpg, servable) holds real data.
  core::MirasConfig config;
  config.model.hidden_dims = {6, 6};
  config.model.epochs = 2;
  config.ddpg.actor_hidden = {8, 8};
  config.ddpg.critic_hidden = {8, 8};
  config.ddpg.batch_size = 8;
  config.ddpg.warmup = 8;
  config.outer_iterations = 1;
  config.real_steps_per_iteration = 12;
  config.reset_interval = 6;
  config.rollout_length = 4;
  config.synthetic_rollouts_per_iteration = 4;
  config.rollout_batch = 2;
  config.eval_steps = 3;
  config.seed = 21;
  sim::SystemConfig system_config;
  system_config.seed = 8;
  system_config.consumer_budget = workflows::kMsdConsumerBudget;
  sim::MicroserviceSystem env(workflows::make_msd_ensemble(), system_config);
  core::MirasAgent agent(&env, config);
  agent.run_iteration();
  ASSERT_GT(agent.dataset().size(), 0u);

  const std::string path = ::testing::TempDir() + "miras_format_pin.ckpt";
  agent.save_checkpoint(path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  std::remove(path.c_str());
  const persist::CheckpointReader reader(bytes);
  EXPECT_EQ(reader.section_names(),
            (std::vector<std::string>{"meta", "env", "dataset", "model",
                                      "refiner", "ddpg", "servable"}));
  EXPECT_EQ(digest(bytes), "26900:4e71cf8d7c066cad");
}

}  // namespace
}  // namespace miras
