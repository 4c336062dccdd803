// Figure 6: MIRAS policy-training traces (§VI-C).
//
// Runs the iterative model-based training loop (Algorithm 2) on MSD
// (Fig. 6a) and LIGO (Fig. 6b) and prints the aggregated evaluation reward
// after each outer iteration — the paper's y-axis (aggregated reward over
// 25 eval steps for MSD, 100 for LIGO; horizontal axis is the iteration).
// Expected shape: poor early iterations, convergence after a handful of
// iterations, then a stable plateau with run-to-run noise.
//
// Default scale: 8 iterations x 500 real steps with 64-unit networks
// (~1 minute per dataset). --full: the paper's 11 iterations x 1000/2000
// steps with 3x256 / 3x512 networks (hours).
#include <iostream>
#include <memory>
#include <sstream>

#include "bench_util.h"
#include "core/miras_agent.h"
#include "dist/learner.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras {
namespace {

void run_fig6(const std::string& name, workflows::Ensemble ensemble,
              int budget, core::MirasConfig config,
              const bench::BenchOptions& options, common::ThreadPool* pool,
              core::CollectionBackend* backend, std::ostream& out) {
  sim::SystemConfig system_config;
  system_config.consumer_budget = budget;
  system_config.seed = options.seed;
  sim::MicroserviceSystem system(std::move(ensemble), system_config);

  out << "\n=== Figure 6 (" << name << "): " << config.outer_iterations
      << " iterations x " << config.real_steps_per_iteration
      << " real steps, eval over " << config.eval_steps << " steps\n";
  core::MirasAgent agent(&system, config);
  // The agent's work shares the section pool (nested parallel_for is fine
  // — the section thread participates), and distributed collection runs
  // the same fixed seed-sharded schedule: the trace is byte-identical at
  // any --threads or --collectors value.
  agent.enable_parallel_training(pool);
  agent.enable_distributed_collection(backend);
  Table table({"iteration", "real_steps_total", "dataset_size",
               "model_train_loss", "eval_aggregate_reward"});
  bench::train_with_checkpoints(
      agent, options, "fig6_" + bench::to_lower(name) + ".ckpt",
      [&](const core::IterationTrace& trace) {
        table.add_row(
            {std::to_string(trace.iteration),
             std::to_string(trace.iteration * config.real_steps_per_iteration),
             std::to_string(trace.dataset_size),
             format_double(trace.model_train_loss, 4),
             format_double(trace.eval_aggregate_reward, 1)});
        out << "  iteration " << trace.iteration
            << ": eval aggregated reward "
            << format_double(trace.eval_aggregate_reward, 1) << "\n";
      });
  bench::emit(table, options, "Figure 6 training trace — " + name, out);
}

struct Fig6Section {
  std::string name;
  workflows::Ensemble ensemble;
  int budget = 0;
  core::MirasConfig config;
};

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  using namespace miras;
  const auto options = bench::parse_options(argc, argv);

  std::vector<Fig6Section> sections;
  if (options.dataset.empty() || options.dataset == "msd") {
    core::MirasConfig config = options.full ? core::miras_msd_config()
                                            : core::miras_msd_fast_config();
    config.seed = options.seed + 4;
    sections.push_back(Fig6Section{"MSD", workflows::make_msd_ensemble(),
                                   workflows::kMsdConsumerBudget, config});
  }
  if (options.dataset.empty() || options.dataset == "ligo") {
    core::MirasConfig config = options.full ? core::miras_ligo_config()
                                            : core::miras_ligo_fast_config();
    config.seed = options.seed + 5;
    sections.push_back(Fig6Section{"LIGO", workflows::make_ligo_ensemble(),
                                   workflows::kLigoConsumerBudget, config});
  }

  // A checkpoint file holds ONE section's training state, so resuming (or
  // checkpointing to an explicit path) only makes sense for a single
  // dataset.
  if ((!options.resume.empty() || !options.checkpoint_path.empty()) &&
      sections.size() > 1) {
    std::cerr << "fig6: --resume/--checkpoint-path apply to one training "
                 "run; pick it with --dataset msd|ligo\n";
    return 2;
  }

  // Distributed-collection flag validation, mirroring the checkpoint
  // refusals above: unsupported combinations exit 2 up front instead of
  // failing mid-run.
  if (options.collectors == 0 && options.dist_kill_after > 0) {
    std::cerr << "fig6: --dist-kill-after requires --collectors N with "
                 "N >= 1\n";
    return 2;
  }
  if (options.collectors > 0 && sections.size() > 1) {
    std::cerr << "fig6: --collectors applies to one training run; pick it "
                 "with --dataset msd|ligo\n";
    return 2;
  }

  // Collector processes must be forked while this process is still
  // single-threaded, so the pool is built before any ThreadPool exists.
  std::unique_ptr<dist::CollectorPool> collector_pool;
  if (options.collectors > 0) {
    const Fig6Section& section = sections.front();
    const std::uint64_t fingerprint =
        core::config_fingerprint(section.config);
    sim::SystemConfig system_config;
    system_config.consumer_budget = section.budget;
    const core::EnvFactory factory =
        core::system_factory(section.ensemble, system_config);
    dist::PoolOptions pool_options;
    pool_options.collectors = options.collectors;
    pool_options.config_fingerprint = fingerprint;
    pool_options.kill_collector_after = options.dist_kill_after;
    collector_pool = std::make_unique<dist::CollectorPool>(
        pool_options,
        dist::make_fork_pipe_spawner(section.config, factory, fingerprint));
  }

  // The two training traces are independent; run them concurrently with
  // buffered output, printed in dataset order so stdout never depends on
  // timing.
  const auto pool = bench::make_pool(options);
  std::vector<std::ostringstream> buffers(sections.size());
  {
    const bench::ScopedTimer timer("fig6 total", options.threads);
    const auto run_section = [&](std::size_t i) {
      Fig6Section& section = sections[i];
      run_fig6(section.name, std::move(section.ensemble), section.budget,
               section.config, options, pool.get(), collector_pool.get(),
               buffers[i]);
    };
    if (pool != nullptr) {
      pool->parallel_for(sections.size(), run_section);
    } else {
      for (std::size_t i = 0; i < sections.size(); ++i) run_section(i);
    }
  }
  for (const auto& buffer : buffers) std::cout << buffer.str();
  return 0;
}
