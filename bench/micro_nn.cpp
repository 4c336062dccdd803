// Microbenchmarks of the neural-network substrate (google-benchmark):
// matmul, gradient-block forward/backward passes at the paper's network
// sizes, the batched vs per-sample inference paths, and the Adam step. The
// full DDPG update is micro_train's BM_DdpgUpdateSharded.
// Every benchmark reports a bytes_per_op counter (heap bytes requested per
// timed iteration) — the workspace-based hot paths are expected to sit at
// zero after warmup. Pass `--json <path>` to dump {op, ns_per_op,
// bytes_per_op, iterations} records (the BENCH_nn.json CI artifact).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
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

// The same 64 samples pushed through one at a time (64 GEMVs per layer
// instead of one GEMM) — what the lockstep rollout batching removes.
void BM_ActorForwardPerSample(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Network net = make_mlp(width, 4, 4, rng);
  const std::vector<double> x(4, 0.5);
  std::vector<double> y;
  nn::Workspace ws;
  net.predict_one(x, ws, y);  // warmup sizes the workspace
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      net.predict_one(x, ws, y);
      benchmark::DoNotOptimize(y.data());
    }
  }
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForwardPerSample)->Arg(64)->Arg(256);

// Forward + mean-squared loss + backward of the whole batch, one
// gradient block (kRowsPerBlock rows) per TrainPass; the block gradients
// are left in the passes.
void forward_backward(const nn::Network& net, const nn::Tensor& batch,
                      const nn::Tensor& target,
                      std::vector<nn::TrainPass>& passes) {
  for (std::size_t m = 0; m < passes.size(); ++m) {
    const nn::RowRange rows = nn::row_block(batch.rows(), m);
    nn::TrainPass& pass = passes[m];
    nn::prepare_pass(net.layers(), pass);
    nn::copy_rows(batch, rows, pass.in);
    nn::copy_rows(target, rows, pass.target);
    pass.loss = nn::mse_loss_partial_into(net.forward_shard(pass.in, pass),
                                          pass.target, target.size(),
                                          pass.loss_grad);
    benchmark::DoNotOptimize(
        net.backward_shard(pass.in, pass.loss_grad, pass).data());
  }
}

void BM_ActorForwardBackward(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  nn::Network net = make_mlp(width, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  nn::Tensor target(64, 4, 0.25);
  std::vector<nn::TrainPass> passes(nn::num_row_blocks(batch.rows()));
  // Warmup sizes every pass's caches, accumulators and loss gradient.
  forward_backward(net, batch, target, passes);
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) forward_backward(net, batch, target, passes);
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_ActorForwardBackward)->Arg(64)->Arg(256);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(4);
  nn::Network net = make_mlp(256, 4, 4, rng);
  nn::Tensor batch(64, 4, 0.5);
  nn::Tensor target(64, 4, 0.25);
  std::vector<nn::TrainPass> passes(nn::num_row_blocks(batch.rows()));
  forward_backward(net, batch, target, passes);
  nn::reduce_gradients(passes, passes.size(), net.layers());
  nn::AdamOptimizer adam(1e-3);
  adam.step_scaled(net.layers(), 1.0);  // warmup allocates the moments
  const std::uint64_t alloc0 = bench::allocation_mark();
  for (auto _ : state) adam.step_scaled(net.layers(), 1.0);
  bench::record_bytes_per_op(state, alloc0);
}
BENCHMARK(BM_AdamStep);

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  return miras::bench::run_benchmarks(argc, argv);
}
