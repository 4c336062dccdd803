// Microbenchmarks of the discrete-event emulator (google-benchmark):
// raw typed-event-queue throughput, window-step throughput for MSD and LIGO
// under steady and burst load, event throughput and window stepping on a
// generated 128-task-type ensemble, reset-reuse cycles, and per-thread
// episode scaling on pooled systems. Every benchmark reports bytes_per_op;
// the steady-state event-stepping paths must report exactly 0. Pass
// `--json <path>` to dump records with all user counters (events_per_sec,
// cpus, ...) — the BENCH_sim.json CI artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/contracts.h"
#include "common/object_pool.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/system.h"
#include "workflows/generated.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras {
namespace {

std::unique_ptr<sim::MicroserviceSystem> make_msd_system(std::uint64_t seed) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed;
  return std::make_unique<sim::MicroserviceSystem>(
      workflows::make_msd_ensemble(), config);
}

// The 128-task-type scenario the generated arms run: short lognormal
// services and a consumer budget large enough that the cluster completes
// thousands of tasks per simulated second.
constexpr int kGeneratedBudget = 2048;

workflows::Ensemble make_generated_bench_ensemble() {
  workflows::GeneratedOptions options;
  options.num_task_types = 128;
  options.num_workflows = 32;
  options.service_mean_min = 0.05;
  options.service_mean_max = 0.5;
  options.consumer_budget = kGeneratedBudget;
  options.utilization = 0.85;
  options.seed = 99;
  return workflows::make_generated_ensemble(options);
}

// Consumers apportioned to each type's offered load (arrival rate x visit
// count x mean service time), largest-remainder rounded so the counts sum
// to exactly `budget`, with at least one consumer wherever load exists.
// The generated ensemble's per-type load is deliberately uneven, so an
// even split would pin the heavy types above utilization 1 and their
// queues (and allocation counts) would grow without bound.
std::vector<int> proportional_allocation(const workflows::Ensemble& ensemble,
                                         int budget) {
  const std::size_t types = ensemble.num_task_types();
  std::vector<double> load(types, 0.0);
  for (std::size_t w = 0; w < ensemble.num_workflows(); ++w) {
    const auto& graph = ensemble.workflow(w);
    for (std::size_t n = 0; n < graph.num_nodes(); ++n) {
      const std::size_t j = graph.task_type_of(n);
      load[j] += ensemble.arrival_rate(w) *
                 ensemble.task_type(j).service_time.mean();
    }
  }
  double total = 0.0;
  for (const double l : load) total += l;
  std::vector<int> allocation(types, 0);
  int assigned = 0;
  for (std::size_t j = 0; j < types; ++j) {
    if (load[j] <= 0.0) continue;
    allocation[j] = 1;
    ++assigned;
  }
  const int spare = budget - assigned;
  std::vector<std::pair<double, std::size_t>> remainders;
  for (std::size_t j = 0; j < types; ++j) {
    if (load[j] <= 0.0) continue;
    const double share = load[j] / total * static_cast<double>(spare);
    const int whole = static_cast<int>(share);
    allocation[j] += whole;
    assigned += whole;
    remainders.emplace_back(share - whole, j);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (std::size_t i = 0; assigned < budget && !remainders.empty(); ++i) {
    ++allocation[remainders[i % remainders.size()].second];
    ++assigned;
  }
  return allocation;
}

sim::SystemConfig generated_config() {
  sim::SystemConfig config;
  config.consumer_budget = kGeneratedBudget;
  config.seed = 1;
  return config;
}

std::unique_ptr<sim::MicroserviceSystem> make_generated_system(
    const sim::SystemConfig& config) {
  return std::make_unique<sim::MicroserviceSystem>(
      make_generated_bench_ensemble(), config);
}

// Warm-up that pushes every loaded task type's request ring to at least
// `depth` queued requests, then drains the backlog. A workflow burst fills
// only the root types' rings: downstream types drain as fast as upstream
// feeds them, so their rings would still grow on rare steady-state peaks
// long after the warm-up. Here a type gets no consumers until its queue
// reaches `depth`, so work piles up at the first unfilled type on every
// DAG path; from the next window on it is served at `serve_factor` times
// its steady allocation, so its pile drains. The piles also push the
// dependency slab and the event heap past their steady watermarks. The
// backlog drains until no more tasks are live than `steady` has consumers.
// The system must be fresh (no consumers yet, so WIP is queue length),
// with a budget of at least `serve_factor` times `steady`'s total.
void fill_every_queue(sim::MicroserviceSystem& system,
                      const std::vector<int>& steady, double depth,
                      int serve_factor) {
  std::vector<int> allocation(steady.size(), 0);
  std::vector<bool> filled(steady.size());
  sim::WindowStats stats;
  std::uint64_t steady_total = 0;
  for (std::size_t j = 0; j < steady.size(); ++j) {
    filled[j] = steady[j] == 0;
    steady_total += static_cast<std::uint64_t>(steady[j]);
  }
  for (int window = 0;; ++window) {
    MIRAS_EXPECTS(window < 1000);  // every loaded type is reachable
    const std::vector<double> wip = system.observe_wip();
    bool all_filled = true;
    for (std::size_t j = 0; j < steady.size(); ++j) {
      filled[j] = filled[j] || wip[j] >= depth;
      allocation[j] = filled[j] ? serve_factor * steady[j] : 0;
      all_filled = all_filled && filled[j];
    }
    if (all_filled) break;
    system.step(allocation, stats);
  }
  while (system.live_tasks() > steady_total) system.step(allocation, stats);
  system.step(steady, stats);
}

// Warm-up for window stepping under `allocation` (fresh system, budget
// `allocation`'s total): every ring past depth 64, then a 200-per-type
// burst drained with every consumer busy at once, which pushes the event
// heap past anything the steady arrival stream reaches.
void warm_for_windows(sim::MicroserviceSystem& system,
                      const std::vector<int>& allocation) {
  fill_every_queue(system, allocation, 64.0, 1);
  system.inject_burst(sim::BurstSpec{std::vector<std::size_t>(
      system.ensemble().num_workflows(), 200)});
  system.run_for(5000.0);
}

// Typed queue on a fixed schedule/run pattern: 1000 POD events per
// iteration, no closures. The queue lives across iterations (heap capacity reused), like the one
// inside MicroserviceSystem.
void BM_TypedEventQueueScheduleRun(benchmark::State& state) {
  sim::TypedEventQueue events;
  std::uint64_t counter = 0;
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    const sim::SimTime base = events.now();
    sim::Event event;
    event.type = sim::EventType::kConsumerReady;
    for (int i = 0; i < 1000; ++i)
      events.schedule(base + static_cast<double>(i % 97), event);
    events.run_until(base + 100.0,
                     [&counter](sim::Event&&) { ++counter; });
    benchmark::DoNotOptimize(counter);
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TypedEventQueueScheduleRun);

// Steady-state event throughput through the full simulator dispatch path
// (arrivals, dispatches, completions, DAG routing) with no window
// accounting: items processed = events executed, and bytes_per_op must be 0
// — the acceptance criterion for the typed-event core.
void BM_SimEventThroughput(benchmark::State& state) {
  auto system = make_msd_system(1);
  // Warm up: allocate consumers, then push the slab, rings, and heap past
  // any watermark the steady arrival stream can reach (a 200-per-type
  // burst), and drain it. After this nothing on the stepping path grows.
  sim::WindowStats window;
  system->step({4, 4, 3, 3}, window);
  system->inject_burst(sim::BurstSpec{{200, 200, 200}});
  system->run_for(5000.0);
  std::uint64_t executed = system->executed_events();
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    system->run_for(100.0);
    benchmark::DoNotOptimize(system->now());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(system->executed_events() - executed));
}
BENCHMARK(BM_SimEventThroughput);

// Event throughput on the generated 128-type ensemble: the same raw
// stepping path as BM_SimEventThroughput at ~100x the event rate per
// simulated second. bytes_per_op must be exactly 0 at any run length.
// events_per_sec is a rate counter (events executed / second).
void BM_GeneratedEventThroughput(benchmark::State& state) {
  // The measured loop never applies an allocation, so window length,
  // start-up delay and budget headroom only shape the warm-up.
  sim::SystemConfig config = generated_config();
  config.window_length = 1.0;
  config.startup_delay_min = 0.0;
  config.startup_delay_max = 0.0;
  config.consumer_budget = 2 * kGeneratedBudget;
  auto system = make_generated_system(config);
  // Warm up: fill every ring, then serve under consumers in proportion to
  // per-type load (the system is stable under this allocation — queues
  // stay bounded) until the backlog is gone.
  fill_every_queue(*system,
                   proportional_allocation(system->ensemble(),
                                           kGeneratedBudget),
                   128.0, 2);
  system->run_for(200.0);
  std::uint64_t executed = system->executed_events();
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    system->run_for(50.0);
    benchmark::DoNotOptimize(system->now());
  }
  bench::record_bytes_per_op(state, alloc0);
  const auto events =
      static_cast<std::int64_t>(system->executed_events() - executed);
  state.SetItemsProcessed(events);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneratedEventThroughput)->Unit(benchmark::kMillisecond);

// Full window steps (allocation applied, stats packed) on the same
// ensemble.
void BM_GeneratedWindowStep(benchmark::State& state) {
  auto system = make_generated_system(generated_config());
  const std::vector<int> allocation =
      proportional_allocation(system->ensemble(), kGeneratedBudget);
  sim::WindowStats window;
  system->step(allocation, window);  // warm the pools and the record
  const std::uint64_t alloc0 = bench::allocation_mark();
  std::uint64_t executed = system->executed_events();
  for (auto _ : state) {
    system->step(allocation, window);
    benchmark::DoNotOptimize(window.reward);
  }
  bench::record_bytes_per_op(state, alloc0);
  const auto events =
      static_cast<std::int64_t>(system->executed_events() - executed);
  state.SetItemsProcessed(state.iterations());
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeneratedWindowStep)->Unit(benchmark::kMillisecond);

// Window steps into one reused record on a system whose rings, slab and
// heap are warmed past their watermarks: bytes_per_op must be exactly 0.
void BM_MsdWindowStep(benchmark::State& state) {
  auto system = make_msd_system(1);
  const std::vector<int> allocation{4, 4, 3, 3};
  warm_for_windows(*system, allocation);
  sim::WindowStats window;
  system->step(allocation, window);  // shapes the record
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    system->step(allocation, window);
    benchmark::DoNotOptimize(window.reward);
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MsdWindowStep);

void BM_LigoWindowStep(benchmark::State& state) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kLigoConsumerBudget;
  config.seed = 1;
  sim::MicroserviceSystem system(workflows::make_ligo_ensemble(), config);
  const std::vector<int> allocation{4, 3, 4, 3, 3, 3, 4, 3, 3};
  warm_for_windows(system, allocation);
  sim::WindowStats window;
  system.step(allocation, window);  // shapes the record
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    system.step(allocation, window);
    benchmark::DoNotOptimize(window.reward);
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LigoWindowStep);

void BM_MsdBurstDrain(benchmark::State& state) {
  auto system = make_msd_system(1);
  const std::vector<int> allocation{4, 4, 3, 3};
  sim::WindowStats window;
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    state.PauseTiming();
    system->reset();
    system->inject_burst(sim::BurstSpec{{100, 100, 100}});
    state.ResumeTiming();
    for (int k = 0; k < 10; ++k) {
      system->step(allocation, window);
      benchmark::DoNotOptimize(window.reward);
    }
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_MsdBurstDrain);

void BM_SystemReset(benchmark::State& state) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kLigoConsumerBudget;
  config.seed = 1;
  sim::MicroserviceSystem system(workflows::make_ligo_ensemble(), config);
  const std::vector<int> allocation(9, 3);
  sim::WindowStats window;
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    for (int k = 0; k < 3; ++k) system.step(allocation, window);
    benchmark::DoNotOptimize(system.reset());
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_SystemReset);

// Reset-reuse cycle on a warmed system: pooled storage (slab, rings, heap,
// window vectors) keeps its capacity across reset(), so the cycle itself
// stays off the allocator.
void BM_ResetReuse(benchmark::State& state) {
  auto system = make_msd_system(1);
  sim::WindowStats window;
  system->step({4, 4, 3, 3}, window);  // warm the pools
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    benchmark::DoNotOptimize(system->reset());
    system->run_for(30.0);
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResetReuse);

// Per-thread episode scaling on pooled, reseeded systems: 16 20-window
// episodes per iteration, each shard drawing a long-lived system from an
// ObjectPool (per-shard construction serialised the workers on the
// allocator). Real time must *drop* as threads are added.
void BM_PooledEpisodes(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  common::ThreadPool pool(threads);
  constexpr std::size_t kShards = 16;
  common::ObjectPool<sim::MicroserviceSystem> systems;
  const std::vector<int> hold{4, 4, 3, 3};
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    pool.parallel_for(kShards, [&systems, &hold](std::size_t i) {
      std::unique_ptr<sim::MicroserviceSystem> system = systems.try_acquire();
      if (system != nullptr) {
        system->reseed(shard_seed(7, i));
      } else {
        system = make_msd_system(shard_seed(7, i));
      }
      system->reset();
      sim::WindowStats window;
      for (int step = 0; step < 20; ++step) system->step(hold, window);
      benchmark::DoNotOptimize(window.wip.data());
      systems.release(std::move(system));
    });
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kShards));
}
BENCHMARK(BM_PooledEpisodes)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  return miras::bench::run_benchmarks(argc, argv);
}
