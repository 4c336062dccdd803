// Failure handling of the distributed actor-learner topology: credit-based
// back-pressure (a stalled learner bounds the bytes a collector can put in
// flight), collector death mid-round (respawn resumes the batch_seq and the
// merged result is unchanged), a batch holding a NaN and a corrupted frame
// thrown rather than respawned past, and the handshake refusing a collector
// built from a different config. Thread collectors over socketpairs, the
// production transport — no fork, so the suite runs under TSan.
#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "dist/collector.h"
#include "dist/learner.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "persist/frame_stream.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace miras::dist {
namespace {

core::MirasConfig tiny_config(std::uint64_t seed) {
  core::MirasConfig config;
  config.model.hidden_dims = {16, 16};
  config.model.epochs = 10;
  config.ddpg.actor_hidden = {16, 16};
  config.ddpg.critic_hidden = {16, 16};
  config.ddpg.batch_size = 16;
  config.ddpg.warmup = 16;
  config.outer_iterations = 2;
  config.real_steps_per_iteration = 40;
  config.reset_interval = 10;
  config.rollout_length = 6;
  config.synthetic_rollouts_per_iteration = 6;
  config.rollout_batch = 4;
  config.eval_steps = 5;
  config.seed = seed;
  return config;
}

sim::SystemConfig learner_system_config() {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = 77;
  return config;
}

core::EnvFactory msd_factory() {
  return core::system_factory(workflows::make_msd_ensemble(),
                              learner_system_config());
}

std::vector<core::IterationTrace> train_distributed(
    std::size_t collectors, std::size_t first_spawn_dies_after,
    std::size_t* respawns = nullptr) {
  sim::MicroserviceSystem system(workflows::make_msd_ensemble(),
                                 learner_system_config());
  const core::MirasConfig config = tiny_config(9);
  const core::EnvFactory factory = msd_factory();
  const std::uint64_t fingerprint = core::config_fingerprint(config);
  PoolOptions options;
  options.collectors = collectors;
  options.config_fingerprint = fingerprint;
  CollectorPool backend(options,
                        make_thread_spawner(config, factory, fingerprint,
                                            first_spawn_dies_after));
  core::MirasAgent agent(&system, config);
  agent.enable_distributed_collection(&backend);
  auto traces = agent.train();
  if (respawns != nullptr) *respawns = backend.respawn_count();
  return traces;
}

void expect_identical_traces(const std::vector<core::IterationTrace>& a,
                             const std::vector<core::IterationTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dataset_size, b[i].dataset_size);
    EXPECT_EQ(a[i].model_train_loss, b[i].model_train_loss);
    EXPECT_EQ(a[i].eval_aggregate_reward, b[i].eval_aggregate_reward);
    EXPECT_EQ(a[i].parameter_noise_stddev, b[i].parameter_noise_stddev);
  }
}

TEST(DistFailures, StalledLearnerBoundsInFlightBatches) {
  // Drive one collector directly through the wire protocol and stop
  // reading: with a credit allowance of 2 it must park after exactly 2
  // batches even though 6 episodes are assigned, and its buffered bytes
  // must stop growing. Each credit grant releases exactly that many more.
  const core::MirasConfig config = tiny_config(9);
  const core::EnvFactory factory = msd_factory();
  const std::uint64_t fingerprint = core::config_fingerprint(config);

  // Our own socketpair, so the test can ask the kernel how many bytes the
  // collector has put in flight that the learner has not read.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int learner_fd = fds[0];
  FdStream learner_end(fds[0]);
  FdStream collector_end(fds[1]);
  const auto learner_unread_bytes = [learner_fd] {
    int bytes = -1;
    EXPECT_EQ(::ioctl(learner_fd, FIONREAD, &bytes), 0);
    return static_cast<std::size_t>(bytes);
  };
  CollectorOptions collector_options;
  collector_options.collector_id = 0;
  collector_options.config_fingerprint = fingerprint;
  // No heartbeats during the stall window, so every buffered byte below is
  // batch data and the in-flight bound is exact.
  collector_options.idle_timeout_ms = 10000;
  std::thread collector([&] {
    run_collector(collector_end, config, factory, collector_options);
  });

  MessageChannel learner(&learner_end);
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(learner.poll_payload(payload, 10000), RecvStatus::kData);
  {
    persist::BinaryReader in(payload.data(), payload.size(), "hello");
    ASSERT_EQ(decode_type(in), MsgType::kHello);
  }

  // random_actions episodes never touch the policy, but the snapshot still
  // travels in Weights — build a real one with the environment's dims.
  const auto probe_env = factory(1);
  rl::DdpgAgent probe_agent(probe_env->reset().size(),
                            probe_env->action_dim(),
                            probe_env->consumer_budget(), config.ddpg);
  WeightsMsg weights;
  weights.round = 1;
  weights.random_actions = true;
  weights.behavior = probe_agent.behavior_snapshot();
  persist::BinaryWriter out;
  encode_weights(out, weights);
  learner.send_message(out);

  AssignMsg assign;
  assign.round = 1;
  assign.start_seq = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    core::EpisodeSpec spec;
    spec.index = i;
    spec.length = 10;
    spec.seed = 1000 + i;
    assign.episodes.push_back(spec);
  }
  out.clear();
  encode_assign(out, assign);
  learner.send_message(out);

  const auto grant_credit = [&](std::uint32_t amount) {
    persist::BinaryWriter credit;
    encode_credit(credit, CreditMsg{amount});
    learner.send_message(credit);
  };
  const auto drain_batches = [&]() {
    std::size_t batches = 0;
    while (learner.poll_payload(payload, 500) == RecvStatus::kData) {
      persist::BinaryReader in(payload.data(), payload.size(), "batch");
      EXPECT_EQ(decode_type(in), MsgType::kBatch);
      BatchMsg batch;
      decode_batch_into(in, batch);
      EXPECT_EQ(batch.batch_seq, static_cast<std::uint64_t>(batches));
      ++batches;
      // Deliberately no credit grant: the learner is "stalled".
    }
    return batches;
  };

  grant_credit(2);
  // Give the collector time to run as far as it can, then require that the
  // in-flight bytes have stopped at the credit bound.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t stalled_bytes = learner_unread_bytes();
  EXPECT_GT(stalled_bytes, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(learner_unread_bytes(), stalled_bytes)
      << "buffered bytes kept growing while the learner was stalled";

  EXPECT_EQ(drain_batches(), 2u);  // exactly the credit allowance
  EXPECT_EQ(learner_unread_bytes(), 0u);

  grant_credit(3);
  std::size_t more = 0;
  while (more < 3 &&
         learner.poll_payload(payload, 10000) == RecvStatus::kData) {
    persist::BinaryReader in(payload.data(), payload.size(), "batch");
    EXPECT_EQ(decode_type(in), MsgType::kBatch);
    ++more;
  }
  EXPECT_EQ(more, 3u);

  out.clear();
  encode_shutdown(out);
  learner.send_message(out);
  collector.join();
}

TEST(DistFailures, CollectorDeathPreservesResultAndRespawns) {
  // Collector 0's first incarnation dies after its first batch — mid-round,
  // with unfolded work outstanding. The pool must respawn it, hand the
  // replacement exactly the unfolded episodes with start_seq continuing the
  // folded prefix, and produce a bit-identical training trace.
  const auto reference = train_distributed(2, /*first_spawn_dies_after=*/0);
  std::size_t respawns = 0;
  const auto with_death =
      train_distributed(2, /*first_spawn_dies_after=*/1, &respawns);
  EXPECT_GE(respawns, 1u);
  expect_identical_traces(reference, with_death);
}

/// One collection round against hand-written collectors on socketpairs:
/// each completes the handshake, waits for its assignment's credit, then
/// sends one 3-transition Batch frame, edited by `edit` before encoding and
/// with its byte `flip_at` flipped when nonzero, and idles until shutdown.
/// Episodes are deterministic, so a respawn would resend the same bytes:
/// collect() must throw an error containing `expected` and spawn nothing
/// more.
void expect_surfaced_not_respawned(
    const std::function<void(BatchMsg&)>& edit, std::size_t flip_at,
    const std::string& expected) {
  constexpr std::uint64_t kFingerprint = 0xfeed;
  std::atomic<int> spawns{0};
  const SpawnFn spawn = [&](std::uint32_t collector_id) {
    ++spawns;
    auto [learner_end, collector_end] = make_socketpair_streams();
    Endpoint endpoint;
    endpoint.stream = std::move(learner_end);
    endpoint.thread = std::thread(
        [stream = std::shared_ptr<FdStream>(std::move(collector_end)),
         collector_id, &edit, flip_at] {
          MessageChannel channel(stream.get());
          persist::BinaryWriter out;
          encode_hello(out, HelloMsg{kProtocolVersion, collector_id,
                                     kFingerprint});
          channel.send_message(out);
          std::vector<std::uint8_t> payload;
          std::uint64_t round = 0;
          for (;;) {  // Weights, Assign, then Credit
            if (channel.poll_payload(payload, 10000) != RecvStatus::kData)
              return;
            persist::BinaryReader in(payload.data(), payload.size(), "in");
            const MsgType type = decode_type(in);
            if (type == MsgType::kAssign) round = decode_assign(in).round;
            if (type == MsgType::kCredit) break;
          }
          BatchMsg batch;
          batch.collector_id = collector_id;
          batch.round = round;
          for (int i = 0; i < 3; ++i) {
            envmodel::Transition t;
            t.state = {1.0, 2.0};
            t.action = {1, 1};
            t.next_state = {2.0, 1.0};
            t.reward = -1.0;
            batch.transitions.push_back(t);
          }
          edit(batch);
          out.clear();
          encode_batch(out, batch);
          std::vector<std::uint8_t> frame;
          persist::append_frame(frame, out.bytes().data(), out.size());
          if (flip_at != 0) frame[flip_at] ^= 0x01;
          stream->send(frame.data(), frame.size());
          // Stay until the learner shuts down or drops the stream.
          while (channel.poll_payload(payload, 10000) == RecvStatus::kData) {
            persist::BinaryReader in(payload.data(), payload.size(), "in");
            if (decode_type(in) == MsgType::kShutdown) return;
          }
        });
    return endpoint;
  };

  PoolOptions options;
  options.config_fingerprint = kFingerprint;
  CollectorPool pool(options, spawn);
  core::EpisodeSpec spec;
  spec.length = 3;
  spec.seed = 1;
  const rl::DdpgAgent probe(2, 2, 4, tiny_config(9).ddpg);
  try {
    (void)pool.collect({spec}, /*random_actions=*/true,
                       probe.behavior_snapshot());
    ADD_FAILURE() << "a bad batch was folded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(pool.respawn_count(), 0u);
  EXPECT_EQ(spawns.load(), 1);
}

TEST(DistFailures, NonFiniteBatchIsSurfacedNotRespawned) {
  // The second transition carries a NaN: collect() throws the decoder's
  // error.
  expect_surfaced_not_respawned(
      [](BatchMsg& batch) {
        batch.transitions[1].next_state[1] =
            std::numeric_limits<double>::quiet_NaN();
      },
      0, "transition 1 has non-finite next_state[1]");
}

TEST(DistFailures, CorruptedFrameIsSurfacedNotRespawned) {
  // One payload byte of a valid Batch frame flipped: the CRC check fails,
  // and collect() names the collector and the frame error.
  expect_surfaced_not_respawned(
      [](BatchMsg&) {}, persist::kFrameHeaderSize + 20,
      "collector 0 sent a corrupted frame (dist: corrupted message stream: "
      "frame crc mismatch)");
}

TEST(DistFailures, ConfigFingerprintMismatchRefused) {
  sim::MicroserviceSystem system(workflows::make_msd_ensemble(),
                                 learner_system_config());
  const core::MirasConfig config = tiny_config(9);
  const core::EnvFactory factory = msd_factory();
  const std::uint64_t fingerprint = core::config_fingerprint(config);
  PoolOptions options;
  options.collectors = 1;
  options.config_fingerprint = fingerprint + 1;  // learner expects different
  CollectorPool backend(options,
                        make_thread_spawner(config, factory, fingerprint));
  core::MirasAgent agent(&system, config);
  agent.enable_distributed_collection(&backend);
  EXPECT_THROW((void)agent.train(), std::runtime_error);
}

}  // namespace
}  // namespace miras::dist
