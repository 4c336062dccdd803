// The serving path end to end: snapshot/agent decision parity, batched
// admission parity under concurrency, the hot-swap zero-drop / zero-tear
// property, and checkpoint round trips.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <latch>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint_test_util.h"
#include "core/miras_agent.h"
#include "nn/serialize.h"
#include "persist/checkpoint.h"
#include "rl/ddpg.h"
#include "serve/admission.h"
#include "serve/servable.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace miras::serve {
namespace {

constexpr std::size_t kStateDim = 8;
constexpr std::size_t kActionDim = 8;
constexpr int kBudget = 30;

rl::DdpgConfig tiny_ddpg_config() {
  rl::DdpgConfig config;
  config.actor_hidden = {24, 24};
  config.critic_hidden = {24, 24};
  config.seed = 33;
  return config;
}

/// Agent with a non-trivial resolved normaliser (statistics observed).
rl::DdpgAgent make_seeded_agent() {
  rl::DdpgAgent agent(kStateDim, kActionDim, kBudget, tiny_ddpg_config());
  Rng rng(99);
  std::vector<double> state(kStateDim);
  for (int i = 0; i < 40; ++i) {
    for (double& s : state) s = rng.uniform(0.0, 200.0);
    agent.observe_state_only(state);
  }
  return agent;
}

std::vector<std::vector<double>> make_states(std::size_t count,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> states(count);
  for (auto& s : states) {
    s.resize(kStateDim);
    for (double& v : s) v = rng.uniform(0.0, 500.0);
  }
  return states;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "miras_serve_" + name;
}

TEST(Servable, SnapshotDecisionsMatchAgentGreedyPathBitwise) {
  // Every normaliser state: no statistics (pass-through), one sample (still
  // pass-through) and 40 samples (resolved map), with and without log
  // features. A kNone exploration snapshot must act greedily too.
  for (const int observed : {0, 1, 40}) {
    for (const bool log_features : {true, false}) {
      SCOPED_TRACE("observed " + std::to_string(observed) + ", log " +
                   std::to_string(log_features));
      rl::DdpgConfig config = tiny_ddpg_config();
      config.log_state_features = log_features;
      config.exploration = rl::ExplorationMode::kNone;
      rl::DdpgAgent agent(kStateDim, kActionDim, kBudget, config);
      Rng rng(99);
      std::vector<double> observation(kStateDim);
      for (int i = 0; i < observed; ++i) {
        for (double& s : observation) s = rng.uniform(0.0, 200.0);
        agent.observe_state_only(observation);
      }
      const rl::DdpgAgent& frozen = agent;  // const: no casts needed
      const ActorSnapshot snap = ActorSnapshot::from_agent(frozen);
      rl::ExplorationSnapshot explorer = frozen.snapshot_exploration(rng);
      DecisionScratch scratch;
      std::vector<double> weights;
      for (const auto& state : make_states(25, 7)) {
        snap.decide(state, scratch, weights);
        const std::vector<double> expected = frozen.act_greedy(state);
        ASSERT_EQ(weights.size(), expected.size());
        for (std::size_t j = 0; j < weights.size(); ++j)
          EXPECT_EQ(weights[j], expected[j]);
        const std::vector<double> explored = explorer.act(state, rng);
        ASSERT_EQ(explored.size(), expected.size());
        for (std::size_t j = 0; j < explored.size(); ++j)
          EXPECT_EQ(explored[j], expected[j]);
        EXPECT_EQ(snap.decide_allocation(state, scratch),
                  frozen.act_allocation_greedy(state));
      }
    }
  }
}

TEST(Servable, PublishSwapsVersionAndOldPinsSurvive) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  EXPECT_EQ(servable.version(), 1u);
  const auto pinned = servable.acquire();

  ActorSnapshot next = ActorSnapshot::from_agent(agent);
  Rng rng(5);
  next.policy.perturb_parameters(0.05, rng);
  EXPECT_EQ(servable.publish(std::move(next)), 2u);
  EXPECT_EQ(servable.version(), 2u);

  // The old pin still answers with the old weights; a fresh acquire sees
  // the new version.
  DecisionScratch scratch;
  std::vector<double> old_w, new_w;
  const auto state = make_states(1, 3)[0];
  pinned->decide(state, scratch, old_w);
  EXPECT_EQ(pinned->version, 1u);
  const auto fresh = servable.acquire();
  EXPECT_EQ(fresh->version, 2u);
  fresh->decide(state, scratch, new_w);
  EXPECT_NE(old_w, new_w);  // perturbation actually changed the policy
}

TEST(Servable, PublishRejectsMismatchedDimensions) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  rl::DdpgAgent other(kStateDim + 1, kActionDim, kBudget, tiny_ddpg_config());
  EXPECT_THROW(servable.publish(ActorSnapshot::from_agent(other)),
               std::logic_error);
}

TEST(BatchServer, BatchedResultsMatchDirectDecisionsBitwise) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  AdmissionConfig config;
  config.max_batch = 8;
  BatchServer server(servable, config);

  const auto states = make_states(512, 11);
  // Direct (unbatched) reference answers.
  std::vector<std::vector<double>> expected(states.size());
  {
    DecisionScratch scratch;
    for (std::size_t i = 0; i < states.size(); ++i)
      servable.decide(states[i], scratch, expected[i]);
  }

  // Coalescing comes from the construction, not from thread start-up
  // timing: no client sends before all eight are running (the latch), and
  // each then keeps one request outstanding for 64 rounds. The worker
  // admits everything pending, so a pass takes one request only while the
  // other seven are all between requests; for no batch to form, that would
  // have to hold at every one of the 512 admissions. Without the latch, a
  // slowly spawned client (thread creation under TSan) could start after
  // the earlier ones had finished, serialising every request.
  constexpr std::size_t kClients = 8;
  std::latch all_running(kClients);
  std::vector<std::thread> clients;
  std::atomic<bool> mismatch{false};
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> weights;
      all_running.arrive_and_wait();
      for (std::size_t i = c; i < states.size(); i += kClients) {
        const std::uint64_t version = server.decide(states[i], weights);
        if (version != 1 || weights != expected[i]) mismatch = true;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(server.served(), states.size());
  EXPECT_EQ(server.dropped(), 0u);

  // Telemetry recorded one pass per batch, some of them actually batched.
  std::vector<TelemetryRecord> records;
  ASSERT_GT(server.telemetry().snapshot(records), 0u);
  std::uint64_t covered = 0;
  bool any_batched = false;
  for (const auto& rec : records) {
    EXPECT_GE(rec.batch_size, 1u);
    EXPECT_LE(rec.batch_size, config.max_batch);
    EXPECT_GE(rec.queue_depth, rec.batch_size);
    EXPECT_EQ(rec.snapshot_version, 1u);
    covered += rec.batch_size;
    any_batched |= rec.batch_size > 1;
  }
  EXPECT_EQ(covered, states.size());
  EXPECT_TRUE(any_batched) << "8 concurrent clients never coalesced";
}

TEST(BatchServer, SingleClientPassesMatchDirectDecide) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  BatchServer server(servable, AdmissionConfig{});
  std::vector<double> weights;
  const auto states = make_states(10, 13);
  DecisionScratch scratch;
  std::vector<double> expected;
  for (const auto& state : states) {
    server.decide(state, weights);
    servable.decide(state, scratch, expected);
    EXPECT_EQ(weights, expected);
  }
  server.stop();
  std::vector<TelemetryRecord> records;
  ASSERT_EQ(server.telemetry().snapshot(records), states.size());
  for (const auto& rec : records) EXPECT_EQ(rec.batch_size, 1u);
}

// The hot-swap property: with a publisher swapping snapshots under load,
// every request is (a) answered — served == submitted, dropped == 0 — and
// (b) answered entirely by the single version it reports: the returned
// weights bit-match that version's precomputed answer, never a blend.
TEST(BatchServer, HotSwapDropsNothingAndNeverTearsABatch) {
  const rl::DdpgAgent agent = make_seeded_agent();
  constexpr std::size_t kVersions = 50;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 200;

  // Precompute every version's snapshot and its answers on a fixed state
  // pool, BEFORE any serving starts.
  const auto states = make_states(16, 17);
  std::vector<ActorSnapshot> snapshots;
  Rng rng(23);
  for (std::size_t v = 0; v < kVersions; ++v) {
    ActorSnapshot snap = ActorSnapshot::from_agent(agent);
    snap.policy.perturb_parameters(0.02 * static_cast<double>(v), rng);
    snapshots.push_back(std::move(snap));
  }
  // expected[v][s]: version (v+1)'s exact answer for state s.
  std::vector<std::vector<std::vector<double>>> expected(kVersions);
  {
    DecisionScratch scratch;
    for (std::size_t v = 0; v < kVersions; ++v) {
      expected[v].resize(states.size());
      for (std::size_t s = 0; s < states.size(); ++s)
        snapshots[v].decide(states[s], scratch, expected[v][s]);
    }
  }

  ActorServable servable(snapshots[0]);
  AdmissionConfig config;
  config.max_batch = 8;
  config.queue_capacity = 16;
  BatchServer server(servable, config);

  std::atomic<bool> stop_publishing{false};
  std::thread publisher([&] {
    std::size_t v = 1;
    while (!stop_publishing.load(std::memory_order_relaxed)) {
      servable.publish(snapshots[v % kVersions]);
      v = v % kVersions + 1;
      std::this_thread::yield();
    }
  });

  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> weights;
      for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
        const std::size_t s = (c * kRequestsPerClient + i) % states.size();
        const std::uint64_t version = server.decide(states[s], weights);
        // publish() assigns versions 1.. cycling through the snapshot pool.
        const auto& want = expected[(version - 1) % kVersions][s];
        if (weights != want) ++bad;
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_publishing = true;
  publisher.join();
  server.stop();

  EXPECT_EQ(bad.load(), 0u) << "a decision did not match its reported version";
  EXPECT_EQ(server.served(), kClients * kRequestsPerClient);
  EXPECT_EQ(server.dropped(), 0u);
  EXPECT_GT(servable.version(), 1u) << "no swap ever happened";

  // Telemetry must never show a pass on version 0 (unpublished).
  std::vector<TelemetryRecord> records;
  server.telemetry().snapshot(records);
  for (const auto& rec : records) EXPECT_GE(rec.snapshot_version, 1u);
}

// The lane-count invariance property (the multi-lane analogue of PR 5's
// thread-count invariance): every decision is a pure function of
// (snapshot, observation), so with a publisher hot-swapping versions under
// concurrent load, every response must bit-match the precomputed answer of
// the version it reports — at EVERY lane count, with zero drops and zero
// torn batches. Also pins the per-lane telemetry contracts: versions are
// monotone nondecreasing within a lane's record stream, and the merged
// snapshot is timestamp-ordered and covers every served request.
TEST(BatchServer, LaneCountsAreBitIdenticalUnderConcurrentHotSwap) {
  const rl::DdpgAgent agent = make_seeded_agent();
  constexpr std::size_t kVersions = 40;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsPerClient = 120;

  const auto states = make_states(16, 57);
  std::vector<ActorSnapshot> snapshots;
  Rng rng(29);
  for (std::size_t v = 0; v < kVersions; ++v) {
    ActorSnapshot snap = ActorSnapshot::from_agent(agent);
    snap.policy.perturb_parameters(0.02 * static_cast<double>(v), rng);
    snapshots.push_back(std::move(snap));
  }
  // expected[v][s]: version (v+1)'s exact answer for state s, computed
  // single-threaded before any serving starts.
  std::vector<std::vector<std::vector<double>>> expected(kVersions);
  {
    DecisionScratch scratch;
    for (std::size_t v = 0; v < kVersions; ++v) {
      expected[v].resize(states.size());
      for (std::size_t s = 0; s < states.size(); ++s)
        snapshots[v].decide(states[s], scratch, expected[v][s]);
    }
  }

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    ActorServable servable(snapshots[0]);
    AdmissionConfig config;
    config.max_batch = 4;
    config.queue_capacity = 8;
    config.telemetry_capacity = 4096;  // no lane ring may lap mid-test
    config.lanes = lanes;
    BatchServer server(servable, config);
    ASSERT_EQ(server.lane_count(), lanes);

    std::atomic<bool> stop_publishing{false};
    std::thread publisher([&] {
      std::size_t v = 1;
      while (!stop_publishing.load(std::memory_order_relaxed)) {
        servable.publish(snapshots[v % kVersions]);
        v = v % kVersions + 1;
        std::this_thread::yield();
      }
    });

    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> weights;
        for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
          const std::size_t s = (c * kRequestsPerClient + i) % states.size();
          const std::uint64_t version = server.decide(states[s], weights);
          if (weights != expected[(version - 1) % kVersions][s]) ++bad;
        }
      });
    }
    for (auto& t : clients) t.join();
    stop_publishing = true;
    publisher.join();
    server.stop();

    EXPECT_EQ(bad.load(), 0u)
        << "lanes=" << lanes << ": a decision did not match its version";
    EXPECT_EQ(server.served(), kClients * kRequestsPerClient);
    EXPECT_EQ(server.dropped(), 0u);

    // Per-lane record streams: serving versions may only move forward
    // within a lane (the lane re-pins monotonically).
    std::vector<TelemetryRecord> records;
    std::uint64_t covered = 0;
    for (std::size_t l = 0; l < server.lane_count(); ++l) {
      server.telemetry(l).snapshot(records);
      for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_GE(records[i].snapshot_version, 1u);
        if (i > 0) {
          EXPECT_GE(records[i].snapshot_version,
                    records[i - 1].snapshot_version)
              << "lane " << l << " served a version out of order";
        }
        covered += records[i].batch_size;
      }
    }
    EXPECT_EQ(covered, server.served());

    // The merged view interleaves lanes by timestamp and loses nothing.
    std::vector<TelemetryRecord> merged;
    const std::size_t merged_count = server.telemetry_snapshot(merged);
    EXPECT_EQ(merged_count, merged.size());
    std::uint64_t merged_covered = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(merged[i].timestamp_ns, merged[i - 1].timestamp_ns);
      }
      merged_covered += merged[i].batch_size;
    }
    EXPECT_EQ(merged_covered, server.served());
  }
}

TEST(BatchServer, MultiLaneSpreadsConcurrentClientsAcrossLanes) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  AdmissionConfig config;
  config.lanes = 4;
  config.max_batch = 4;
  BatchServer server(servable, config);

  const auto states = make_states(64, 61);
  std::vector<std::vector<double>> expected(states.size());
  {
    DecisionScratch scratch;
    for (std::size_t i = 0; i < states.size(); ++i)
      servable.decide(states[i], scratch, expected[i]);
  }

  constexpr std::size_t kClients = 8;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> weights;
      for (std::size_t i = c; i < states.size(); i += kClients) {
        server.decide(states[i], weights);
        if (weights != expected[i]) mismatch = true;
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(server.served(), states.size());

  // The round-robin-seeded power-of-two-choices router must actually use
  // more than one lane under concurrent load.
  std::size_t active_lanes = 0;
  for (std::size_t l = 0; l < server.lane_count(); ++l)
    active_lanes += server.telemetry(l).total_recorded() > 0 ? 1 : 0;
  EXPECT_GE(active_lanes, 2u) << "all traffic collapsed onto one lane";
}

TEST(BatchServer, StopIsSafeFromManyThreadsConcurrently) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  AdmissionConfig config;
  config.lanes = 2;
  config.queue_capacity = 4;
  BatchServer server(servable, config);

  const auto states = make_states(8, 67);
  // Clients hammer decide() until the stoppers shut the server down; every
  // call either completes normally or is rejected with the stop error —
  // and the books must balance: served + dropped == attempts observed.
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double> weights;
      for (std::size_t i = 0;; ++i) {
        try {
          server.decide(states[(c + i) % states.size()], weights);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  // Let some traffic flow, then stop from 4 threads at once. Exactly one
  // runs the shutdown; the others must block until it completes and then
  // observe the same final state.
  while (completed.load(std::memory_order_relaxed) < 32)
    std::this_thread::yield();
  std::vector<std::thread> stoppers;
  for (int s = 0; s < 4; ++s)
    stoppers.emplace_back([&] { server.stop(); });
  for (auto& t : stoppers) t.join();
  for (auto& t : clients) t.join();

  EXPECT_EQ(server.served(), completed.load());
  EXPECT_EQ(server.dropped(), rejected.load());
  // Still idempotent after the concurrent burst, from this thread too.
  server.stop();
  server.stop();
  EXPECT_EQ(server.served(), completed.load());
}

TEST(BatchServer, StopDrainsAdmittedRequestsThenRejectsNewOnes) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  BatchServer server(servable, AdmissionConfig{});
  std::vector<double> weights;
  const auto states = make_states(4, 19);
  for (const auto& state : states) server.decide(state, weights);
  server.stop();
  EXPECT_EQ(server.served(), states.size());
  EXPECT_THROW(server.decide(states[0], weights), std::runtime_error);
  EXPECT_EQ(server.dropped(), 1u);
  server.stop();  // idempotent
}

// The serving boundary rejects NaN/+-Inf observations, naming the first
// bad index, before any work is done: the server counts neither a served
// nor a dropped request and keeps serving valid ones with unchanged bits.
TEST(BatchServer, RejectsNonFiniteObservationsAndKeepsServing) {
  const rl::DdpgAgent agent = make_seeded_agent();
  ActorServable servable(ActorSnapshot::from_agent(agent));
  const std::shared_ptr<const ActorSnapshot> snap = servable.acquire();
  BatchServer server(servable, AdmissionConfig{});
  const auto states = make_states(4, 23);
  DecisionScratch scratch;
  std::vector<double> weights;
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const double bad : bad_values) {
    for (const std::size_t index : {std::size_t{0}, kStateDim - 1}) {
      SCOPED_TRACE("value " + std::to_string(bad) + " at index " +
                   std::to_string(index));
      std::vector<double> state = states[0];
      state[index] = bad;
      const std::string expected_message =
          "observation[" + std::to_string(index) + "]";
      for (int entry = 0; entry < 2; ++entry) {
        try {
          if (entry == 0)
            snap->decide(state, scratch, weights);
          else
            server.decide(state, weights);
          ADD_FAILURE() << "entry point " << entry << " accepted the state";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(expected_message),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
  EXPECT_EQ(server.served(), 0u);
  EXPECT_EQ(server.dropped(), 0u);

  std::vector<double> expected;
  for (const auto& state : states) {
    EXPECT_EQ(server.decide(state, weights), servable.decide(state, scratch,
                                                            expected));
    EXPECT_EQ(weights, expected);
  }
  EXPECT_EQ(server.served(), states.size());
  EXPECT_EQ(server.dropped(), 0u);
}

TEST(ServeCheckpoint, StandaloneServableRoundTripsBitwise) {
  const rl::DdpgAgent agent = make_seeded_agent();
  const ActorSnapshot snap = ActorSnapshot::from_agent(agent);
  const std::string path = temp_path("standalone.servable");
  save_servable(snap, path);
  const ActorSnapshot loaded = load_servable(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.version, 0u);
  EXPECT_EQ(loaded.consumer_budget, snap.consumer_budget);
  EXPECT_EQ(loaded.min_consumers_per_type, snap.min_consumers_per_type);
  EXPECT_EQ(loaded.rounding, snap.rounding);
  DecisionScratch scratch;
  std::vector<double> got, want;
  for (const auto& state : make_states(10, 29)) {
    loaded.decide(state, scratch, got);
    snap.decide(state, scratch, want);
    EXPECT_EQ(got, want);
    EXPECT_EQ(loaded.decide_allocation(state, scratch),
              agent.act_allocation_greedy(state));
  }
}

TEST(ServeCheckpoint, LoadsServableSectionFromFullTrainingCheckpoint) {
  auto ensemble = workflows::make_msd_ensemble();
  sim::SystemConfig sys_config;
  sys_config.consumer_budget = workflows::kMsdConsumerBudget;
  sys_config.seed = 21;
  sim::MicroserviceSystem system(ensemble, sys_config);

  core::MirasConfig config;
  config.ddpg.actor_hidden = {16, 16};
  config.ddpg.critic_hidden = {16, 16};
  config.seed = 5;
  core::MirasAgent miras(&system, config);
  // Give the normaliser real statistics so the parity below is non-trivial.
  Rng rng(41);
  std::vector<double> state(miras.ddpg().state_dim());
  for (int i = 0; i < 30; ++i) {
    for (double& s : state) s = rng.uniform(0.0, 300.0);
    miras.ddpg().observe_state_only(state);
  }

  const std::string path = temp_path("training.ckpt");
  miras.save_checkpoint(path);
  const ActorSnapshot loaded = load_servable(path);
  std::remove(path.c_str());

  const core::MirasAgent& frozen = miras;  // serving needs only const access
  DecisionScratch scratch;
  std::vector<double> got;
  std::vector<double> probe(frozen.ddpg().state_dim());
  Rng probe_rng(43);
  for (int i = 0; i < 10; ++i) {
    for (double& s : probe) s = probe_rng.uniform(0.0, 800.0);
    loaded.decide(probe, scratch, got);
    const std::vector<double> want = frozen.ddpg().act_greedy(probe);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
    EXPECT_EQ(loaded.decide_allocation(probe, scratch),
              frozen.ddpg().act_allocation_greedy(probe));
  }
}

// Saves a training checkpoint, rewrites it as an older `format` with
// `downgrade`, and requires load_servable() to serve the agent's greedy
// decisions bitwise: the servable section's encoding never changed, so
// serving keeps loading old checkpoints that training refuses to resume.
void expect_servable_loads_after_downgrade(
    std::uint32_t format, void (*downgrade)(const std::string& path)) {
  sim::SystemConfig sys_config;
  sys_config.consumer_budget = workflows::kMsdConsumerBudget;
  sys_config.seed = 21;
  sim::MicroserviceSystem system(workflows::make_msd_ensemble(), sys_config);
  core::MirasConfig config;
  config.ddpg.actor_hidden = {16, 16};
  config.ddpg.critic_hidden = {16, 16};
  config.seed = 5;
  const core::MirasAgent miras(&system, config);

  const std::string path =
      temp_path("format" + std::to_string(format) + "_training.ckpt");
  miras.save_checkpoint(path);
  downgrade(path);
  ASSERT_EQ(persist::CheckpointReader::open(path).format_version(), format);
  const ActorSnapshot loaded = load_servable(path);
  std::remove(path.c_str());

  DecisionScratch scratch;
  std::vector<double> got;
  std::vector<double> probe(miras.ddpg().state_dim());
  Rng probe_rng(47);
  for (int i = 0; i < 10; ++i) {
    for (double& s : probe) s = probe_rng.uniform(0.0, 800.0);
    loaded.decide(probe, scratch, got);
    EXPECT_EQ(got, miras.ddpg().act_greedy(probe));
  }
}

TEST(ServeCheckpoint, LoadsServableFromFormatOneTrainingCheckpoint) {
  // Format 1 differs from format 2 only in how rng streams are stored; the
  // servable section holds none.
  expect_servable_loads_after_downgrade(1, [](const std::string& path) {
    persist::test::stamp_format_version(path, 1);
  });
}

TEST(ServeCheckpoint, LoadsServableFromFormatTwoTrainingCheckpoint) {
  // Format 3 dropped a byte from the "ddpg" section only.
  expect_servable_loads_after_downgrade(
      2, persist::test::downgrade_to_format_two);
}

TEST(ServeCheckpoint, MissingServableSectionFailsLoudly) {
  // A valid container without the section must not be misread.
  persist::CheckpointWriter writer;
  persist::BinaryWriter payload;
  payload.u64(7);
  writer.add_section("unrelated", std::move(payload));
  const std::string path = temp_path("no_servable.ckpt");
  writer.write_file(path);
  EXPECT_THROW(load_servable(path), std::runtime_error);
  std::remove(path.c_str());
}

/// The fields of a servable payload a hostile file can set, encoded by
/// hand in rl::write_servable_export's layout (greedy exploration fields)
/// so a test can plant values the typed structs cannot hold.
struct RawServable {
  std::int64_t budget = kBudget;
  std::uint64_t action_dim = kActionDim;
  std::vector<double> shift = std::vector<double>(kStateDim, 0.0);
  std::vector<double> scale = std::vector<double>(kStateDim, 1.0);
  std::int64_t min_consumers_per_type = 1;
};

/// Writes `raw` around the seeded agent's actor as a standalone servable
/// file and loads it (into `loaded`, if given); returns the
/// std::runtime_error message, or "" if the file loaded.
std::string load_error(const RawServable& raw,
                       ActorSnapshot* loaded = nullptr) {
  persist::BinaryWriter payload;
  payload.u8(static_cast<std::uint8_t>(rl::ExplorationMode::kNone));
  for (int i = 0; i < 4; ++i) payload.f64(0.0);  // epsilons, noise stddevs
  payload.boolean(true);                         // log features
  payload.i64(raw.budget);
  payload.u64(raw.action_dim);
  nn::write_network(payload, make_seeded_agent().actor());
  payload.vec_f64(raw.shift);
  payload.vec_f64(raw.scale);
  payload.u8(static_cast<std::uint8_t>(rl::RoundingMode::kFloor));
  payload.i64(raw.min_consumers_per_type);
  persist::CheckpointWriter writer;
  writer.add_section("servable", std::move(payload));
  // Per-test file: ctest runs the cases as concurrent processes.
  const std::string path = temp_path(
      std::string(::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()) +
      ".servable");
  writer.write_file(path);
  std::string message;
  try {
    ActorSnapshot snap = load_servable(path);
    if (loaded != nullptr) *loaded = std::move(snap);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}

bool mentions(const std::string& message, const std::string& needle) {
  return message.find(needle) != std::string::npos;
}

TEST(ServeCheckpoint, RejectsWidthsThatDoNotFitThePolicy) {
  EXPECT_EQ(load_error(RawServable{}), "");  // the hand layout is valid
  RawServable wide;
  wide.shift.push_back(0.0);
  wide.scale.push_back(1.0);
  EXPECT_TRUE(mentions(load_error(wide), "normaliser width"));
  RawServable uneven;
  uneven.scale.pop_back();
  EXPECT_TRUE(mentions(load_error(uneven), "normaliser shape mismatch"));
  RawServable actions;
  actions.action_dim = kActionDim + 1;
  EXPECT_TRUE(mentions(load_error(actions), "action_dim"));
}

TEST(ServeCheckpoint, RejectsNonFiniteOrNonPositiveNormaliser) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, inf, std::nan("")}) {
    RawServable raw;
    raw.scale[3] = bad;
    EXPECT_TRUE(mentions(load_error(raw), "normaliser scale 3")) << bad;
  }
  for (const double bad : {inf, -inf, std::nan("")}) {
    RawServable raw;
    raw.shift[5] = bad;
    EXPECT_TRUE(mentions(load_error(raw), "normaliser shift 5")) << bad;
  }
}

TEST(ServeCheckpoint, RejectsBudgetOutsideIntRange) {
  const std::int64_t int_max = std::numeric_limits<int>::max();
  for (const std::int64_t bad :
       {std::int64_t{0}, std::int64_t{-3}, int_max + 1,
        std::numeric_limits<std::int64_t>::min()}) {
    RawServable raw;
    raw.budget = bad;
    EXPECT_TRUE(mentions(load_error(raw), "consumer budget")) << bad;
  }
  RawServable largest;
  largest.budget = int_max;
  EXPECT_EQ(load_error(largest), "");
}

TEST(ServeCheckpoint, RejectsNegativeMinimumPerType) {
  const std::int64_t int_max = std::numeric_limits<int>::max();
  for (const std::int64_t bad : {std::int64_t{-1}, int_max + 1}) {
    RawServable raw;
    raw.min_consumers_per_type = bad;
    EXPECT_TRUE(mentions(load_error(raw), "min_consumers_per_type")) << bad;
  }
  // A minimum the budget cannot fund loads; the guardrail then stays off
  // (and its funding check must not overflow).
  RawServable unfunded;
  unfunded.min_consumers_per_type = int_max;
  ActorSnapshot snap;
  ASSERT_EQ(load_error(unfunded, &snap), "");
  DecisionScratch scratch;
  const std::vector<int> allocation =
      snap.decide_allocation(make_states(1, 5)[0], scratch);
  EXPECT_TRUE(rl::satisfies_budget(allocation, kBudget));
}

}  // namespace
}  // namespace miras::serve
