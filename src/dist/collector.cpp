#include "dist/collector.h"

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/object_pool.h"
#include "dist/wire.h"

namespace miras::dist {

void run_collector(ByteStream& stream, const core::MirasConfig& config,
                   const core::EnvFactory& make_env,
                   const CollectorOptions& options) {
  MIRAS_EXPECTS(make_env != nullptr);
  MessageChannel channel(&stream);

  persist::BinaryWriter hello;
  encode_hello(hello, HelloMsg{kProtocolVersion, options.collector_id,
                               options.config_fingerprint});
  channel.send_message(hello);

  // Idle environments recycled across episodes (reseed() makes the reuse
  // invisible to results, exactly as in the in-process engine).
  common::ObjectPool<sim::MicroserviceSystem> env_pool;

  std::optional<WeightsMsg> weights;
  std::deque<core::EpisodeSpec> queue;
  std::uint64_t round = 0;
  std::uint64_t next_seq = 0;
  std::size_t credit = 0;
  std::size_t batches_sent = 0;
  std::vector<std::uint8_t> payload;
  // One writer serves every outgoing message; it stops allocating once it
  // has held the largest batch.
  persist::BinaryWriter out;

  for (;;) {
    // Work while allowed: credit gates every send, so when the learner
    // stalls the loop parks here with at most `credit` batches in flight.
    if (weights && !queue.empty() && credit > 0) {
      const core::EpisodeSpec spec = queue.front();
      queue.pop_front();
      core::CollectedEpisode episode =
          core::run_shard_episode(spec, weights->random_actions,
                                  weights->behavior, config, make_env,
                                  &env_pool);
      BatchMsg batch;
      batch.collector_id = options.collector_id;
      batch.round = round;
      batch.batch_seq = next_seq++;
      batch.episode_index = episode.index;
      batch.constraint_violations = episode.constraint_violations;
      batch.transitions = std::move(episode.transitions);
      out.clear();
      encode_batch(out, batch);
      channel.send_message(out);
      --credit;
      ++batches_sent;
      if (options.die_after_batches != 0 &&
          batches_sent >= options.die_after_batches)
        return;  // simulated death at a batch boundary (tests)
      continue;
    }

    const RecvStatus status =
        channel.poll_payload(payload, options.idle_timeout_ms);
    if (status == RecvStatus::kClosed) return;  // learner gone
    if (status == RecvStatus::kTimeout) {
      out.clear();
      encode_heartbeat(out, HeartbeatMsg{options.collector_id});
      channel.send_message(out);
      continue;
    }

    persist::BinaryReader in(payload.data(), payload.size(),
                             "collector message");
    switch (decode_type(in)) {
      case MsgType::kWeights: {
        weights = decode_weights(in);
        round = weights->round;
        // A new round supersedes any stale assignment and credit: the
        // learner re-grants the round's allowance explicitly, keeping the
        // in-flight bound per round instead of accumulating across rounds.
        queue.clear();
        credit = 0;
        break;
      }
      case MsgType::kAssign: {
        AssignMsg assign = decode_assign(in);
        if (!weights || assign.round != round)
          throw std::runtime_error(
              "dist: assignment for a round without matching weights");
        queue.assign(assign.episodes.begin(), assign.episodes.end());
        next_seq = assign.start_seq;
        break;
      }
      case MsgType::kCredit:
        credit += decode_credit(in).amount;
        break;
      case MsgType::kShutdown:
        return;
      case MsgType::kHello:
      case MsgType::kBatch:
      case MsgType::kHeartbeat:
        throw std::runtime_error(
            "dist: learner sent a collector-only message");
    }
    in.expect_end();
  }
}

}  // namespace miras::dist
