// Learner side of the distributed actor-learner topology: a CollectorPool
// is the core::CollectionBackend that fans one collection phase's fixed
// episode schedule out to N collectors and folds their Batch messages back
// in deterministic merge order.
//
// Determinism contract: episodes are assigned round-robin by schedule
// position (spec i goes to collector i % N, its batch_seq is its position
// within that collector's list), batches are validated against the
// expected (collector_id, batch_seq) key, and results land in slots keyed
// by episode index — so arrival timing, transport, collector count effects
// on interleaving, and even a mid-run collector death followed by a
// respawn can never reach the training state. The result equals the
// in-process sharded engine's, bit for bit.
//
// Failure handling: any message refreshes a collector's liveness; a
// heartbeat-silent or closed collector is declared dead, its process (if
// any) reaped, and the SpawnFn is invoked again — the replacement
// re-handshakes and is assigned exactly the episodes whose batches have
// not been folded yet, with start_seq continuing the folded prefix, so the
// merge key sequence stays gapless. A corrupted frame or a non-finite
// Batch is a hard error out of collect(), never respawned past.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "core/trainer_config.h"
#include "dist/transport.h"
#include "dist/wire.h"

namespace miras::dist {

/// One spawned collector as seen by the learner. Exactly one of pid/thread
/// is meaningful: fork-based spawners set pid, thread-based ones the thread.
struct Endpoint {
  std::unique_ptr<ByteStream> stream;
  pid_t pid = 0;
  std::thread thread;
};

/// Spawns (or respawns) collector `collector_id` and returns the learner's
/// end of its stream. Called once per collector up front and again after
/// each death; respawns must produce a fresh conversation (a new
/// socketpair).
using SpawnFn = std::function<Endpoint(std::uint32_t collector_id)>;

struct PoolOptions {
  std::size_t collectors = 1;
  /// Silence threshold after which a collector is declared dead.
  int heartbeat_timeout_ms = 10000;
  /// Handshake validation: collectors advertising a different fingerprint
  /// are refused (throws — a config mismatch is never survivable).
  std::uint64_t config_fingerprint = 0;
  /// Chaos knob for the kill-mid-run smoke test: once the pool has folded
  /// this many batches in total, SIGKILL collector 0's process (once).
  /// 0 = off. Ignored for thread endpoints.
  std::size_t kill_collector_after = 0;
};

class CollectorPool final : public core::CollectionBackend {
 public:
  /// Spawns all collectors eagerly. Construct fork-based pools while the
  /// process is still single-threaded (before any ThreadPool exists).
  CollectorPool(PoolOptions options, SpawnFn spawn);
  ~CollectorPool() override;

  CollectorPool(const CollectorPool&) = delete;
  CollectorPool& operator=(const CollectorPool&) = delete;

  /// Executes one collection phase across the pool. Blocks until every
  /// episode's batch has been folded; survives collector deaths by
  /// respawning, and throws on a corrupted frame or a non-finite Batch.
  /// Results are returned in specs order.
  std::vector<core::CollectedEpisode> collect(
      const std::vector<core::EpisodeSpec>& specs, bool random_actions,
      const rl::BehaviorSnapshot& behavior) override;

  /// Sends Shutdown to every collector and reaps processes/joins threads.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Collectors respawned over the pool's lifetime (tests/diagnostics).
  std::size_t respawn_count() const { return respawns_; }

 private:
  struct Slot {
    Endpoint endpoint;
    std::unique_ptr<MessageChannel> channel;
    bool hello_done = false;
    std::chrono::steady_clock::time_point last_seen;
    /// Schedule positions (into the current specs) owned by this collector,
    /// in assignment order — position j maps to batch_seq j.
    std::vector<std::size_t> assigned;
    /// Batches folded from this collector id in the current round ==
    /// the next expected batch_seq.
    std::uint64_t folded = 0;
  };

  void spawn_slot(std::size_t k);
  void reap_slot(Slot& slot);
  /// Completes the Hello handshake (waits for it if necessary).
  void await_hello(std::size_t k);
  /// Sends Weights + the slot's unfolded episodes + credit for the current
  /// round (used both at round start and after a respawn).
  void send_round_state(std::size_t k,
                        const std::vector<core::EpisodeSpec>& specs,
                        const persist::BinaryWriter& weights_payload);
  /// Declares collector k dead, respawns it, and re-sends round state.
  void recover_slot(std::size_t k,
                    const std::vector<core::EpisodeSpec>& specs,
                    const persist::BinaryWriter& weights_payload);

  PoolOptions options_;
  SpawnFn spawn_;
  std::vector<Slot> slots_;
  std::uint64_t round_ = 0;
  std::size_t respawns_ = 0;
  bool chaos_fired_ = false;
  bool shut_down_ = false;

  // Per-round fold state (valid inside collect()).
  std::vector<core::CollectedEpisode> results_;
  std::vector<bool> have_;
  std::size_t pending_ = 0;
  std::size_t total_folded_ = 0;
  // Decode target of every batch's key fields, and of a stale batch's
  // transitions; a current batch's transitions decode into results_.
  BatchMsg batch_scratch_;
};

/// Spawner factories. All collectors run the same (config, make_env) as
/// the learner; `fingerprint` must be config_fingerprint(config).
///
/// Thread spawner: collector loops run as in-process threads, each over its
/// own socketpair — no fork, TSan-friendly, the default for tests.
SpawnFn make_thread_spawner(core::MirasConfig config,
                            core::EnvFactory make_env,
                            std::uint64_t fingerprint,
                            std::size_t first_spawn_dies_after = 0);

/// Fork spawner over socketpairs. Fork before creating any ThreadPool.
SpawnFn make_fork_pipe_spawner(core::MirasConfig config,
                               core::EnvFactory make_env,
                               std::uint64_t fingerprint);

}  // namespace miras::dist
