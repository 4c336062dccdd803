// The collector side of the distributed actor-learner topology: a protocol
// loop that announces itself (Hello), receives behaviour snapshots and
// episode assignments, runs the episodes through the shared seed-sharded
// runner (core/collection.h), and streams each result back as one Batch —
// but only while it holds credit, so a stalled learner bounds the bytes in
// flight. Runs identically in a forked process or a thread, over one end
// of a socketpair either way; determinism comes from the episode specs,
// never from where the loop runs.
#pragma once

#include <cstdint>

#include "core/collection.h"
#include "core/trainer_config.h"
#include "dist/transport.h"

namespace miras::dist {

struct CollectorOptions {
  std::uint32_t collector_id = 0;
  /// Must equal config_fingerprint(config) of the learner's run.
  std::uint64_t config_fingerprint = 0;
  /// Idle receive timeout; a Heartbeat is sent each time it expires.
  int idle_timeout_ms = 200;
  /// Exit (for tests) after sending this many batches, simulating a
  /// collector death at a batch boundary. 0 = run normally.
  std::size_t die_after_batches = 0;
};

/// Runs the collector protocol loop over `stream` until a Shutdown message
/// arrives or the stream closes (learner gone). Throws on protocol
/// corruption. `config` and `make_env` must match the learner's run.
void run_collector(ByteStream& stream, const core::MirasConfig& config,
                   const core::EnvFactory& make_env,
                   const CollectorOptions& options);

}  // namespace miras::dist
