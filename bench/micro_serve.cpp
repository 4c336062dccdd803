// Serving-path microbenchmark: decisions/sec and tail latency across
// client counts x admission batch sizes x worker lanes, plus a hot-swap
// arm that proves weight publication drops nothing under load.
//
// Arms (one JSON record each, with --json <path>):
//   SERVE_direct_gemv/clients:{1,8}          every client calls
//       ActorServable::decide directly (single-request GEMV path, no
//       admission queue) through its own DecisionScratch.
//   SERVE_admission/clients:8/max_batch:{1,8,16}   clients go through the
//       BatchServer; max_batch:1 serialises every request into its own
//       pass (the no-coalescing baseline), larger values let the worker
//       batch whatever is queued into one GEMM.
//   SERVE_lanes/clients:16/max_batch:8/lanes:{1,2,4,8}   the lane sweep:
//       the same admission path sharded across N worker lanes (N GEMM
//       streams off one snapshot). Decisions/sec should scale with lanes
//       up to core count; on a 1-CPU box the curve is flat by physics and
//       the `cpus` field says so.
//   SERVE_hotswap/clients:8/max_batch:8/lanes:4   as admission, with a
//       publisher republishing a perturbed snapshot every ~2 ms; reports
//       swaps and dropped (the latter must be 0), and asserts that within
//       every lane's drained telemetry stream the serving version is
//       monotone nondecreasing (a lane may only move forward).
//
// Fields: decisions_per_sec, p50_ns, p99_ns (per-request completion
// latency), bytes_per_op (heap bytes allocated per decision over the
// steady-state measurement window — alloc_counter.h replaces the global
// allocator to count them; 0 is the contract for the direct, admission, and
// lane arms), served, swaps, dropped, clients, max_batch, lanes, cpus.
//
// This harness owns its timing loop (throughput and percentiles are
// cross-thread quantities) and links no google-benchmark.
// The `cpus` field is load-bearing: on a 1-core box the batched-vs-serial
// ratio collapses toward 1 and the lane sweep cannot scale, and the
// artifact must say so. The bounds CI checks on these fields live in
// bench/gates.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/rng.h"
#include "rl/ddpg.h"
#include "serve/admission.h"
#include "serve/servable.h"

namespace miras::serve {
namespace {

// LIGO-ish state/action widths with 3 x 64 hidden: big enough that a
// decision is real work (thousands of MACs), small enough that the
// admission arms measure queue mechanics (the thing the batched/serial
// ratio floor is about) rather than pure GEMM arithmetic — the kernels get
// their own dedicated coverage in test_kernels and micro_nn. The
// batched/serial ratio is ~(C+O)/(C+O/B) for GEMV cost C and per-pass
// admission overhead O; a smaller C keeps the floor comparison about O.
constexpr std::size_t kStateDim = 24;
constexpr std::size_t kActionDim = 12;
constexpr int kBudget = 40;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ActorSnapshot make_snapshot() {
  rl::DdpgConfig config;
  config.actor_hidden = {64, 64, 64};
  config.critic_hidden = {16, 16};  // critics are dead weight here; keep tiny
  config.seed = 7;
  rl::DdpgAgent agent(kStateDim, kActionDim, kBudget, config);
  Rng rng(55);
  std::vector<double> state(kStateDim);
  for (int i = 0; i < 64; ++i) {
    for (double& s : state) s = rng.uniform(0.0, 400.0);
    agent.observe_state_only(state);
  }
  return ActorSnapshot::from_agent(agent);
}

std::vector<std::vector<double>> make_states(std::size_t count) {
  Rng rng(91);
  std::vector<std::vector<double>> states(count);
  for (auto& s : states) {
    s.resize(kStateDim);
    for (double& v : s) v = rng.uniform(0.0, 600.0);
  }
  return states;
}

struct ArmResult {
  std::string op;
  std::size_t clients = 0;
  std::size_t max_batch = 0;  // 0 = no admission queue (direct arm)
  std::size_t lanes = 0;      // 0 = no admission queue (direct arm)
  double decisions_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double bytes_per_op = 0.0;
  std::uint64_t served = 0;
  std::uint64_t swaps = 0;
  std::uint64_t dropped = 0;
  /// Mean rows per admission pass over the merged telemetry window (0 =
  /// direct arm, no admission queue). The batched/serial throughput ratio
  /// is only meaningful when this actually approaches max_batch.
  double mean_batch = 0.0;
  /// Per-lane serving-version order violations in the drained telemetry
  /// (must be 0: versions may only increase within a lane's stream).
  std::uint64_t version_order_violations = 0;
};

double mean_batch_from(const BatchServer& server) {
  std::vector<TelemetryRecord> records;
  if (server.telemetry_snapshot(records) == 0) return 0.0;
  double rows = 0.0;
  for (const TelemetryRecord& rec : records) rows += rec.batch_size;
  return rows / static_cast<double>(records.size());
}

/// The per-lane serving-version monotonicity contract: a lane re-pins the
/// snapshot only forward, so within one lane's drained record stream the
/// version may never decrease. Returns the number of violations (0 is the
/// contract; counted into the arm's failure path like dropped requests).
std::uint64_t version_monotonicity_violations(const BatchServer& server) {
  std::vector<TelemetryRecord> records;
  std::uint64_t violations = 0;
  for (std::size_t l = 0; l < server.lane_count(); ++l) {
    server.telemetry(l).snapshot(records);
    for (std::size_t i = 1; i < records.size(); ++i)
      if (records[i].snapshot_version < records[i - 1].snapshot_version)
        ++violations;
  }
  return violations;
}

double percentile(std::vector<std::uint64_t>& lat, double q) {
  if (lat.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(lat.size() - 1) + 0.5);
  std::nth_element(lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(idx),
                   lat.end());
  return static_cast<double>(lat[idx]);
}

/// Runs `clients` threads against `issue` (one blocking decision per call)
/// for warmup + measure; latencies and counters cover only the measurement
/// window. `issue(client, state) -> void` must be steady-state
/// allocation-free for bytes_per_op to mean anything.
template <typename Issue>
ArmResult run_clients(std::string op, std::size_t clients, double warmup_ms,
                      double measure_ms, const Issue& issue) {
  const auto states = make_states(64);
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  // Per-client latency buffers, preallocated so recording never allocates
  // inside the measurement window.
  std::vector<std::vector<std::uint64_t>> latencies(clients);
  for (auto& v : latencies) v.reserve(1 << 20);

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& state = states[i % states.size()];
        ++i;
        const std::uint64_t t0 = now_ns();
        issue(c, state);
        const std::uint64_t t1 = now_ns();
        if (measuring.load(std::memory_order_relaxed)) {
          if (latencies[c].size() < latencies[c].capacity())
            latencies[c].push_back(t1 - t0);
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(warmup_ms * 1000)));
  const std::uint64_t bytes_before = bench::allocation_mark();
  const std::uint64_t t_begin = now_ns();
  measuring = true;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<long>(measure_ms * 1000)));
  measuring = false;
  const std::uint64_t t_end = now_ns();
  const std::uint64_t bytes_after = bench::allocation_mark();
  stop = true;
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> merged;
  std::size_t total = 0;
  for (const auto& v : latencies) total += v.size();
  merged.reserve(total);
  for (const auto& v : latencies) merged.insert(merged.end(), v.begin(), v.end());

  ArmResult r;
  r.op = std::move(op);
  r.clients = clients;
  r.served = ops.load();
  const double secs = static_cast<double>(t_end - t_begin) / 1e9;
  r.decisions_per_sec = secs > 0.0 ? static_cast<double>(r.served) / secs : 0.0;
  r.p50_ns = percentile(merged, 0.50);
  r.p99_ns = percentile(merged, 0.99);
  r.bytes_per_op =
      r.served > 0
          ? static_cast<double>(bytes_after - bytes_before) /
                static_cast<double>(r.served)
          : 0.0;
  return r;
}

ArmResult run_direct(const ActorServable& servable, std::size_t clients,
                     double warmup_ms, double measure_ms) {
  // One scratch + output per client; warmed before the threads start so
  // the steady-state loop is allocation-free.
  std::vector<DecisionScratch> scratch(clients);
  std::vector<std::vector<double>> out(clients);
  const auto warm = make_states(1);
  for (std::size_t c = 0; c < clients; ++c)
    servable.decide(warm[0], scratch[c], out[c]);
  ArmResult r = run_clients(
      "SERVE_direct_gemv/clients:" + std::to_string(clients), clients,
      warmup_ms, measure_ms, [&](std::size_t c, const std::vector<double>& s) {
        servable.decide(s, scratch[c], out[c]);
      });
  return r;
}

ArmResult run_admission(const ActorServable& servable, std::size_t clients,
                        std::size_t max_batch, double warmup_ms,
                        double measure_ms) {
  AdmissionConfig config;
  config.max_batch = max_batch;
  BatchServer server(servable, config);
  std::vector<std::vector<double>> out(clients);
  const auto warm = make_states(1);
  for (std::size_t c = 0; c < clients; ++c) server.decide(warm[0], out[c]);
  ArmResult r = run_clients(
      "SERVE_admission/clients:" + std::to_string(clients) +
          "/max_batch:" + std::to_string(max_batch),
      clients, warmup_ms, measure_ms,
      [&](std::size_t c, const std::vector<double>& s) {
        server.decide(s, out[c]);
      });
  server.stop();
  r.max_batch = max_batch;
  r.lanes = 1;
  r.dropped = server.dropped();
  r.mean_batch = mean_batch_from(server);
  return r;
}

/// The lane sweep: same admission path, N worker lanes off one snapshot.
ArmResult run_lanes(const ActorServable& servable, std::size_t clients,
                    std::size_t max_batch, std::size_t lanes,
                    double warmup_ms, double measure_ms) {
  AdmissionConfig config;
  config.max_batch = max_batch;
  config.lanes = lanes;
  BatchServer server(servable, config);
  std::vector<std::vector<double>> out(clients);
  const auto warm = make_states(1);
  for (std::size_t c = 0; c < clients; ++c) server.decide(warm[0], out[c]);
  ArmResult r = run_clients(
      "SERVE_lanes/clients:" + std::to_string(clients) +
          "/max_batch:" + std::to_string(max_batch) +
          "/lanes:" + std::to_string(lanes),
      clients, warmup_ms, measure_ms,
      [&](std::size_t c, const std::vector<double>& s) {
        server.decide(s, out[c]);
      });
  server.stop();
  r.max_batch = max_batch;
  r.lanes = lanes;
  r.dropped = server.dropped();
  r.version_order_violations = version_monotonicity_violations(server);
  r.mean_batch = mean_batch_from(server);
  return r;
}

ArmResult run_hotswap(ActorServable& servable, std::size_t clients,
                      std::size_t max_batch, std::size_t lanes,
                      double warmup_ms, double measure_ms) {
  // Precompute a pool of perturbed snapshots; the publisher republishes
  // from the pool every ~2 ms while the clients hammer the server.
  std::vector<ActorSnapshot> pool;
  Rng rng(77);
  for (int i = 0; i < 8; ++i) {
    ActorSnapshot snap = *servable.acquire();
    snap.policy.perturb_parameters(0.01, rng);
    pool.push_back(std::move(snap));
  }
  AdmissionConfig config;
  config.max_batch = max_batch;
  config.lanes = lanes;
  BatchServer server(servable, config);
  std::vector<std::vector<double>> out(clients);
  const auto warm = make_states(1);
  for (std::size_t c = 0; c < clients; ++c) server.decide(warm[0], out[c]);

  std::atomic<bool> stop_publisher{false};
  std::atomic<std::uint64_t> swaps{0};
  std::thread publisher([&] {
    std::size_t i = 0;
    while (!stop_publisher.load(std::memory_order_relaxed)) {
      servable.publish(pool[i % pool.size()]);
      ++i;
      swaps.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(2000));
    }
  });

  ArmResult r = run_clients(
      "SERVE_hotswap/clients:" + std::to_string(clients) +
          "/max_batch:" + std::to_string(max_batch) +
          "/lanes:" + std::to_string(lanes),
      clients, warmup_ms, measure_ms,
      [&](std::size_t c, const std::vector<double>& s) {
        server.decide(s, out[c]);
      });
  stop_publisher = true;
  publisher.join();
  server.stop();
  r.max_batch = max_batch;
  r.lanes = lanes;
  r.swaps = swaps.load();
  r.dropped = server.dropped();
  // With swaps landing mid-stream the per-lane version order is the
  // contract worth asserting here (not just zero drops).
  r.version_order_violations = version_monotonicity_violations(server);
  r.mean_batch = mean_batch_from(server);
  return r;
}

bool write_serve_json(const std::string& path,
                      const std::vector<ArmResult>& records, unsigned cpus) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ArmResult& r = records[i];
    out << "  {\"op\": \"" << r.op << "\", \"clients\": " << r.clients
        << ", \"max_batch\": " << r.max_batch << ", \"lanes\": " << r.lanes
        << ", \"decisions_per_sec\": " << r.decisions_per_sec
        << ", \"p50_ns\": " << r.p50_ns << ", \"p99_ns\": " << r.p99_ns
        << ", \"bytes_per_op\": " << r.bytes_per_op
        << ", \"mean_batch\": " << r.mean_batch
        << ", \"served\": " << r.served << ", \"swaps\": " << r.swaps
        << ", \"dropped\": " << r.dropped << ", \"cpus\": " << cpus << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.good();
}

int serve_main(int argc, char** argv) {
  std::string json_path;
  double measure_ms = 300.0;
  double warmup_ms = 50.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    if ((arg == "--measure-ms" || arg == "--warmup-ms") && i + 1 < argc) {
      // A positive finite number of milliseconds, or the usage line.
      char* end = nullptr;
      const double ms = std::strtod(argv[++i], &end);
      if (end != argv[i] && *end == '\0' && std::isfinite(ms) && ms > 0.0) {
        (arg == "--measure-ms" ? measure_ms : warmup_ms) = ms;
        continue;
      }
    }
    std::fprintf(stderr,
                 "usage: micro_serve [--json path] [--measure-ms n] "
                 "[--warmup-ms n]\n");
    return 2;
  }

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("cpus: %u\n", cpus);

  ActorServable servable(make_snapshot());
  std::vector<ArmResult> records;
  records.push_back(run_direct(servable, 1, warmup_ms, measure_ms));
  records.push_back(run_direct(servable, 8, warmup_ms, measure_ms));
  for (const std::size_t mb : {std::size_t{1}, std::size_t{8}, std::size_t{16}})
    records.push_back(run_admission(servable, 8, mb, warmup_ms, measure_ms));
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}})
    records.push_back(run_lanes(servable, 16, 8, lanes, warmup_ms,
                                measure_ms));
  records.push_back(run_hotswap(servable, 8, 8, 4, warmup_ms, measure_ms));

  bool ok = true;
  for (const ArmResult& r : records) {
    std::printf(
        "%-52s %10.0f dec/s   p50 %8.0f ns   p99 %9.0f ns   %6.1f B/op   "
        "batch %4.1f   swaps %llu dropped %llu\n",
        r.op.c_str(), r.decisions_per_sec, r.p50_ns, r.p99_ns, r.bytes_per_op,
        r.mean_batch, static_cast<unsigned long long>(r.swaps),
        static_cast<unsigned long long>(r.dropped));
    if (r.dropped != 0) {
      std::fprintf(stderr, "FAIL %s: dropped %llu requests\n", r.op.c_str(),
                   static_cast<unsigned long long>(r.dropped));
      ok = false;
    }
    if (r.version_order_violations != 0) {
      std::fprintf(stderr,
                   "FAIL %s: %llu per-lane serving-version order violations\n",
                   r.op.c_str(),
                   static_cast<unsigned long long>(r.version_order_violations));
      ok = false;
    }
  }

  if (!json_path.empty() && !write_serve_json(json_path, records, cpus)) {
    std::fprintf(stderr, "failed to write serve json to %s\n",
                 json_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace miras::serve

int main(int argc, char** argv) { return miras::serve::serve_main(argc, argv); }
