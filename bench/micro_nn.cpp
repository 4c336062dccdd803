// Microbenchmarks of the neural-network substrate (google-benchmark):
// matmul and the allocating vs workspace forward passes at the paper's
// network sizes. The full DDPG update is micro_train's
// BM_DdpgUpdateSharded.
// Every benchmark reports a bytes_per_op counter (heap bytes requested per
// timed iteration) — the workspace-based hot paths are expected to sit at
// zero after warmup. Pass `--json <path>` to dump {op, ns_per_op,
// bytes_per_op, iterations} records (the BENCH_nn.json CI artifact).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "nn/network.h"
#include "nn/workspace.h"

namespace miras {
namespace {

void BM_TensorMatmulInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a(n, n), b(n, n), out(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform();
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    a.matmul_into(b, out);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_TensorMatmulInto)->Arg(64)->Arg(128)->Arg(256);

nn::Network make_mlp(std::size_t width, std::size_t in, std::size_t out,
                     Rng& rng) {
  nn::MlpSpec spec;
  spec.input_dim = in;
  spec.hidden_dims = {width, width, width};
  spec.output_dim = out;
  return nn::Network(spec, rng);
}

// Allocating predict(): fresh tensors every call (the thread-safe
// evaluation-grid path). Baseline for the workspace variants below.
void BM_ActorForward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) benchmark::DoNotOptimize(net.predict(batch));
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForward)->Arg(64)->Arg(256);  // 256 = paper's MSD actor

// Workspace predict_batch(): same numbers, zero allocations after warmup.
void BM_ActorForwardBatched(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  nn::Workspace ws;
  nn::Tensor out;
  net.predict_batch(batch, ws, out);  // warmup sizes the workspace
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    net.predict_batch(batch, ws, out);
    benchmark::DoNotOptimize(out.data());
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForwardBatched)->Arg(64)->Arg(256);

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  return miras::bench::run_benchmarks(argc, argv);
}
