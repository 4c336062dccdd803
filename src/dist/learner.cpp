#include "dist/learner.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/logging.h"
#include "dist/collector.h"

namespace miras::dist {

namespace {
/// Per-endpoint receive timeout while the pool multiplexes over its slots;
/// small so one silent collector cannot starve the others' folds.
constexpr int kSliceTimeoutMs = 20;
/// In-flight batch allowance per collector each round; bounds a stalled
/// learner's buffered bytes to kCredit × batch size per collector.
constexpr std::uint32_t kCredit = 2;
}  // namespace

CollectorPool::CollectorPool(PoolOptions options, SpawnFn spawn)
    : options_(std::move(options)), spawn_(std::move(spawn)) {
  MIRAS_EXPECTS(options_.collectors >= 1);
  MIRAS_EXPECTS(spawn_ != nullptr);
  slots_.resize(options_.collectors);
  for (std::size_t k = 0; k < slots_.size(); ++k) spawn_slot(k);
}

CollectorPool::~CollectorPool() { shutdown(); }

void CollectorPool::spawn_slot(std::size_t k) {
  Slot& slot = slots_[k];
  slot.endpoint = spawn_(static_cast<std::uint32_t>(k));
  MIRAS_EXPECTS(slot.endpoint.stream != nullptr);
  slot.channel = std::make_unique<MessageChannel>(slot.endpoint.stream.get());
  slot.hello_done = false;
  slot.last_seen = std::chrono::steady_clock::now();
}

void CollectorPool::reap_slot(Slot& slot) {
  // Drop our stream end first: a live thread collector then sees kClosed
  // and exits its loop, making the join below safe.
  slot.channel.reset();
  slot.endpoint.stream.reset();
  if (slot.endpoint.pid > 0) {
    // The collector may be alive (stalled) rather than dead — make sure.
    ::kill(slot.endpoint.pid, SIGKILL);
    int status = 0;
    while (::waitpid(slot.endpoint.pid, &status, 0) < 0 && errno == EINTR) {
    }
    slot.endpoint.pid = 0;
  }
  if (slot.endpoint.thread.joinable()) slot.endpoint.thread.join();
}

void CollectorPool::await_hello(std::size_t k) {
  Slot& slot = slots_[k];
  if (slot.hello_done) return;
  std::vector<std::uint8_t> payload;
  const RecvStatus status =
      slot.channel->poll_payload(payload, options_.heartbeat_timeout_ms);
  if (status != RecvStatus::kData)
    throw std::runtime_error("dist: collector " + std::to_string(k) +
                             " never sent Hello");
  persist::BinaryReader in(payload.data(), payload.size(), "hello message");
  if (decode_type(in) != MsgType::kHello)
    throw std::runtime_error("dist: collector " + std::to_string(k) +
                             " spoke before Hello");
  const HelloMsg hello = decode_hello(in);
  in.expect_end();
  if (hello.protocol_version != kProtocolVersion)
    throw std::runtime_error(
        "dist: collector protocol version mismatch (got " +
        std::to_string(hello.protocol_version) + ", want " +
        std::to_string(kProtocolVersion) + ")");
  if (hello.collector_id != static_cast<std::uint32_t>(k))
    throw std::runtime_error("dist: collector id mismatch in Hello");
  if (hello.config_fingerprint != options_.config_fingerprint)
    throw std::runtime_error(
        "dist: collector config fingerprint mismatch — collectors must be "
        "built from the learner's exact MirasConfig");
  slot.hello_done = true;
  slot.last_seen = std::chrono::steady_clock::now();
}

void CollectorPool::send_round_state(
    std::size_t k, const std::vector<core::EpisodeSpec>& specs,
    const persist::BinaryWriter& weights_payload) {
  Slot& slot = slots_[k];
  await_hello(k);
  slot.channel->send_message(weights_payload);

  AssignMsg assign;
  assign.round = round_;
  assign.start_seq = slot.folded;
  for (const std::size_t pos : slot.assigned) {
    if (!have_[pos]) assign.episodes.push_back(specs[pos]);
  }
  persist::BinaryWriter assign_payload;
  encode_assign(assign_payload, assign);
  slot.channel->send_message(assign_payload);

  persist::BinaryWriter credit_payload;
  encode_credit(credit_payload, CreditMsg{kCredit});
  slot.channel->send_message(credit_payload);
}

void CollectorPool::recover_slot(
    std::size_t k, const std::vector<core::EpisodeSpec>& specs,
    const persist::BinaryWriter& weights_payload) {
  log_warn("dist: collector ", k, " lost — respawning (folded ",
           slots_[k].folded, " of ", slots_[k].assigned.size(),
           " assigned batches this round)");
  reap_slot(slots_[k]);
  spawn_slot(k);
  ++respawns_;
  // The replacement resumes at start_seq == folded with exactly the
  // unfolded episodes, so the (collector_id, batch_seq) merge keys continue
  // the folded prefix without gaps or repeats.
  send_round_state(k, specs, weights_payload);
}

std::vector<core::CollectedEpisode> CollectorPool::collect(
    const std::vector<core::EpisodeSpec>& specs, bool random_actions,
    const rl::BehaviorSnapshot& behavior) {
  MIRAS_EXPECTS(!shut_down_);
  ++round_;
  results_.assign(specs.size(), core::CollectedEpisode{});
  have_.assign(specs.size(), false);
  pending_ = specs.size();
  if (pending_ == 0) return std::move(results_);

  // Fixed round-robin assignment by schedule position: a pure function of
  // (|specs|, collectors), independent of timing.
  for (Slot& slot : slots_) {
    slot.assigned.clear();
    slot.folded = 0;
  }
  for (std::size_t i = 0; i < specs.size(); ++i)
    slots_[i % slots_.size()].assigned.push_back(i);

  // One Weights encoding serves every collector (and every respawn).
  WeightsMsg weights;
  weights.round = round_;
  weights.random_actions = random_actions;
  weights.behavior = behavior;
  persist::BinaryWriter weights_payload;
  encode_weights(weights_payload, weights);

  for (std::size_t k = 0; k < slots_.size(); ++k) {
    try {
      send_round_state(k, specs, weights_payload);
    } catch (const std::runtime_error& error) {
      // A collector that died between rounds (or a handshake that broke)
      // is recovered exactly like a mid-round death. recover_slot retries
      // once; a second failure is fatal.
      log_warn("dist: collector ", k, " unreachable at round start: ",
               error.what());
      recover_slot(k, specs, weights_payload);
    }
  }

  std::vector<std::uint8_t> payload;
  while (pending_ > 0) {
    for (std::size_t k = 0; k < slots_.size() && pending_ > 0; ++k) {
      Slot& slot = slots_[k];
      if (slot.folded == slot.assigned.size()) continue;  // done this round

      RecvStatus status;
      try {
        status = slot.channel->poll_payload(payload, kSliceTimeoutMs);
      } catch (const CorruptedStream& error) {
        // Never folded and never respawned past: the replacement would
        // replay the same deterministic episode through the same encoder.
        throw std::runtime_error("dist: collector " + std::to_string(k) +
                                 " sent a corrupted frame (" + error.what() +
                                 ")");
      } catch (const std::runtime_error& error) {
        // A transport failure (poll/read error): the collector is gone.
        log_warn("dist: collector ", k, " stream error: ", error.what());
        recover_slot(k, specs, weights_payload);
        continue;
      }
      if (status == RecvStatus::kClosed) {
        recover_slot(k, specs, weights_payload);
        continue;
      }
      if (status == RecvStatus::kTimeout) {
        const auto silence = std::chrono::steady_clock::now() - slot.last_seen;
        if (silence > std::chrono::milliseconds(options_.heartbeat_timeout_ms))
          recover_slot(k, specs, weights_payload);
        continue;
      }

      slot.last_seen = std::chrono::steady_clock::now();
      persist::BinaryReader in(payload.data(), payload.size(),
                               "collector batch stream");
      const MsgType type = decode_type(in);
      if (type == MsgType::kHeartbeat) {
        decode_heartbeat(in);
        in.expect_end();
        continue;
      }
      if (type != MsgType::kBatch)
        throw std::runtime_error(
            "dist: unexpected message type from collector " +
            std::to_string(k));

      // Not caught: a batch holding a NaN or Inf is thrown out of collect()
      // as decoded. A respawn would replay the same deterministic episode.
      decode_batch_key(in, batch_scratch_);
      const BatchMsg& batch = batch_scratch_;
      if (batch.round != round_) {
        // Stale leftover: checked like any batch, then dropped.
        decode_transitions_into(in, batch_scratch_.transitions);
        in.expect_end();
        continue;
      }
      if (batch.collector_id != static_cast<std::uint32_t>(k) ||
          batch.batch_seq != slot.folded)
        throw std::runtime_error(
            "dist: merge key violation from collector " + std::to_string(k) +
            " (got seq " + std::to_string(batch.batch_seq) + ", expected " +
            std::to_string(slot.folded) + ")");
      // batch_seq folded counts from the round's start; the episode it
      // carries is the folded-th assigned episode by construction.
      const std::size_t pos =
          slot.assigned[static_cast<std::size_t>(batch.batch_seq)];
      MIRAS_EXPECTS(specs[pos].index == batch.episode_index);
      MIRAS_EXPECTS(!have_[pos]);
      core::CollectedEpisode& episode = results_[pos];
      // The transitions decode straight into their result slot.
      decode_transitions_into(in, episode.transitions);
      in.expect_end();
      episode.index = batch.episode_index;
      episode.constraint_violations =
          static_cast<std::size_t>(batch.constraint_violations);
      have_[pos] = true;
      ++slot.folded;
      --pending_;
      ++total_folded_;

      persist::BinaryWriter credit_payload;
      encode_credit(credit_payload, CreditMsg{1});
      try {
        slot.channel->send_message(credit_payload);
      } catch (const std::runtime_error& error) {
        // The collector died right after this batch (which folded fine). If
        // it still owes episodes this round, recover now; otherwise the
        // next round's send_round_state notices and recovers it there.
        if (slot.folded < slot.assigned.size()) {
          log_warn("dist: collector ", k,
                   " gone at credit grant: ", error.what());
          recover_slot(k, specs, weights_payload);
        }
        continue;
      }

      if (options_.kill_collector_after != 0 && !chaos_fired_ &&
          total_folded_ >= options_.kill_collector_after &&
          slots_[0].endpoint.pid > 0) {
        chaos_fired_ = true;
        log_warn("dist: chaos knob firing — SIGKILL collector 0");
        ::kill(slots_[0].endpoint.pid, SIGKILL);
      }
    }
  }
  return std::move(results_);
}

void CollectorPool::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  persist::BinaryWriter payload;
  encode_shutdown(payload);
  for (Slot& slot : slots_) {
    if (slot.channel != nullptr) {
      try {
        slot.channel->send_message(payload);
      } catch (const std::runtime_error&) {
        // Peer already gone; reap below regardless.
      }
    }
    reap_slot(slot);
  }
}

// ------------------------------------------------------------- spawners

SpawnFn make_thread_spawner(core::MirasConfig config,
                            core::EnvFactory make_env,
                            std::uint64_t fingerprint,
                            std::size_t first_spawn_dies_after) {
  // Shared counter so the simulated death fires on the *first* spawn of
  // collector 0 only; the respawn runs a normal collector.
  auto spawns = std::make_shared<std::atomic<std::size_t>>(0);
  return [config = std::move(config), make_env = std::move(make_env),
          fingerprint, first_spawn_dies_after,
          spawns](std::uint32_t collector_id) -> Endpoint {
    auto [learner_end, collector_end] = make_socketpair_streams();
    CollectorOptions options;
    options.collector_id = collector_id;
    options.config_fingerprint = fingerprint;
    if (collector_id == 0 && spawns->fetch_add(1) == 0)
      options.die_after_batches = first_spawn_dies_after;
    Endpoint endpoint;
    endpoint.stream = std::move(learner_end);
    endpoint.thread = std::thread(
        [stream = std::shared_ptr<FdStream>(std::move(collector_end)), config,
         make_env, options]() {
          try {
            run_collector(*stream, config, make_env, options);
          } catch (const std::exception& error) {
            log_warn("dist: collector ", options.collector_id,
                     " exited with error: ", error.what());
          }
        });
    return endpoint;
  };
}

namespace {
/// Forks a child running `run_child` and returns in the parent. The child
/// _exits without running atexit handlers or destructors: it shares the
/// parent's address space snapshot, and gtest/sanitizer teardown must not
/// run twice.
pid_t fork_collector(const std::function<void()>& run_child) {
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error(std::string("dist: fork failed: ") +
                             std::strerror(errno));
  if (pid == 0) {
    try {
      run_child();
    } catch (...) {
    }
    ::_exit(0);
  }
  return pid;
}
}  // namespace

SpawnFn make_fork_pipe_spawner(core::MirasConfig config,
                               core::EnvFactory make_env,
                               std::uint64_t fingerprint) {
  return [config = std::move(config), make_env = std::move(make_env),
          fingerprint](std::uint32_t collector_id) -> Endpoint {
    auto [learner_end, collector_end] = make_socketpair_streams();
    CollectorOptions options;
    options.collector_id = collector_id;
    options.config_fingerprint = fingerprint;
    FdStream* child_stream = collector_end.get();
    FdStream* parent_stream = learner_end.get();
    Endpoint endpoint;
    endpoint.pid = fork_collector([&] {
      parent_stream->close_fd();
      run_collector(*child_stream, config, make_env, options);
    });
    collector_end->close_fd();  // parent's copy of the child's end
    endpoint.stream = std::move(learner_end);
    return endpoint;
  };
}

}  // namespace miras::dist
