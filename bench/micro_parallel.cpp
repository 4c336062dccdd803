// Microbenchmarks of the parallel execution layer (google-benchmark):
// seed-shard derivation and lockstep rollout batching (same result at every
// width — only the wall clock moves). Pooled episode scaling is micro_sim's
// BM_PooledEpisodes; the evaluation grid on a pool is perfbench's
// eval_ligo_grid workload.
// Pass `--json <path>` to dump {op, ns_per_op, bytes_per_op, iterations}
// records (the BENCH_parallel.json CI artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "envmodel/synthetic_env.h"

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
