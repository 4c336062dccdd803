// Microbenchmarks of the parallel execution layer (google-benchmark):
// seed-shard derivation, lockstep rollout batching, and the evaluation grid
// on a ThreadPool of 1..N workers (same result every time — only the wall
// clock moves). Pooled episode scaling is micro_sim's BM_PooledEpisodes.
// Pass `--json <path>` to dump {op, ns_per_op, bytes_per_op, iterations}
// records (the BENCH_parallel.json CI artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baselines/heft.h"
#include "bench_json.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/synthetic_env.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace miras {
namespace {

void BM_ShardSeed(benchmark::State& state) {
  std::uint64_t root = 0x1234;
  std::uint64_t shard = 0;
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard_seed(root, shard));
    ++shard;
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ShardSeed);

void BM_EvaluationGrid(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  common::ThreadPool pool(threads);
  const workflows::Ensemble ensemble = workflows::make_msd_ensemble();
  core::EvaluationHarness harness(
      [](std::uint64_t seed) {
        sim::SystemConfig config;
        config.consumer_budget = workflows::kMsdConsumerBudget;
        config.seed = seed;
        return std::make_unique<sim::MicroserviceSystem>(
            workflows::make_msd_ensemble(), config);
      },
      &pool);
  const std::vector<core::PolicySpec> policies{{"heft", [&ensemble] {
                                                  return std::make_unique<
                                                      baselines::HeftPolicy>(
                                                      ensemble);
                                                }}};
  const std::vector<core::ScenarioSpec> scenarios{
      {"steady", core::ScenarioConfig{sim::BurstSpec{}, 10}},
      {"burst", core::ScenarioConfig{sim::BurstSpec{{100, 100, 100}}, 10}}};
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4};
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    const core::GridResult grid = harness.run(policies, scenarios, seeds, 4);
    benchmark::DoNotOptimize(grid.summaries.data());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(scenarios.size() * seeds.size()));
}
BENCHMARK(BM_EvaluationGrid)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Lockstep rollout generation at varying group widths: 8 lanes advanced 25
// steps through a fitted dynamics model in groups of `width`. Width 1 is
// the per-sample path (one B=1 GEMM per lane per layer); width 8 amortises
// the whole group into one (8 x D) GEMM per layer. Lane trajectories are
// bit-identical across widths (SyntheticEnvBatch determinism contract) —
// only the wall clock moves.
void BM_SyntheticRolloutLockstep(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kSteps = 25;
  constexpr std::size_t kStateDim = 4;
  constexpr std::size_t kActionDim = 4;
  constexpr int kBudget = 14;

  envmodel::TransitionDataset dataset(kStateDim, kActionDim);
  Rng rng(11);
  for (int i = 0; i < 64; ++i) {
    envmodel::Transition t;
    for (std::size_t j = 0; j < kStateDim; ++j)
      t.state.push_back(rng.uniform(0, 50));
    t.action = {3, 4, 3, 4};
    for (std::size_t j = 0; j < kStateDim; ++j)
      t.next_state.push_back(std::max(t.state[j] + rng.uniform(-2, 2), 0.0));
    dataset.add(std::move(t));
  }
  envmodel::DynamicsModelConfig model_config;
  model_config.epochs = 2;
  envmodel::DynamicsModel model(kStateDim, kActionDim, model_config);
  model.fit(dataset);

  const std::vector<int> allocation(kActionDim, 3);
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    for (std::size_t first = 0; first < kLanes; first += width) {
      const std::size_t count = std::min(width, kLanes - first);
      envmodel::SyntheticEnvBatch batch(&model, nullptr, &dataset, kBudget);
      for (std::size_t l = 0; l < count; ++l)
        batch.add_lane(shard_seed(42, first + l), 0);
      batch.reset_all();
      const std::vector<std::vector<int>> allocations(count, allocation);
      for (std::size_t t = 0; t < kSteps; ++t) batch.step_all(allocations);
      benchmark::DoNotOptimize(batch.state(0).data());
    }
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes * kSteps));
}
BENCHMARK(BM_SyntheticRolloutLockstep)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  return miras::bench::run_benchmarks(argc, argv);
}
