// Figure 5: predictive-model accuracy (§VI-B).
//
// Collects transitions from the emulated microservice workflow system with
// random actions that change every 4 steps, trains the dynamics model, and
// compares on a held-out 100-point trace:
//   - ground truth (red dashed line in the paper),
//   - fixed-input prediction: model fed the *true* current state and action
//     (blue line),
//   - iterative prediction: model fed its *own* previous prediction, true
//     actions (green dotted line — exercises the look-ahead capability used
//     in policy learning).
// Reported for the immediate reward and the first WIP dimension, for MSD
// and LIGO. Default scale: 3,000 / 6,000 training entries (paper: 14,000 /
// 37,000 — pass --full).
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "common/rng.h"
#include "envmodel/dataset.h"
#include "envmodel/dynamics_model.h"
#include "rl/action.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras {
namespace {

using bench::BenchOptions;

struct Fig5Setup {
  std::string name;
  workflows::Ensemble ensemble;
  int budget;
  std::size_t train_entries;
  envmodel::DynamicsModelConfig model_config;
};

envmodel::TransitionDataset collect_random_trace(
    sim::MicroserviceSystem& system, std::size_t entries, std::uint64_t seed) {
  envmodel::TransitionDataset data(system.state_dim(), system.action_dim());
  Rng rng(seed);
  std::vector<double> state = system.reset();
  std::vector<int> action;
  sim::WindowStats window;
  for (std::size_t step = 0; step < entries; ++step) {
    if (step % 4 == 0) {  // actions change every 4 steps (§VI-B)
      std::vector<double> weights(system.action_dim());
      double total = 0.0;
      for (double& w : weights) {
        w = rng.exponential(1.0);
        total += w;
      }
      for (double& w : weights) w /= total;
      action = rl::allocation_from_weights(weights, system.consumer_budget(),
                                           rl::RoundingMode::kLargestRemainder);
    }
    system.step(action, window);
    data.add(envmodel::Transition{state, action, window.wip, window.reward});
    state = window.wip;
    if ((step + 1) % 25 == 0) state = system.reset();  // reset cadence (§VI-A3)
  }
  return data;
}

void run_fig5(const Fig5Setup& setup, const BenchOptions& options,
              std::ostream& out) {
  sim::SystemConfig config;
  config.consumer_budget = setup.budget;
  config.seed = options.seed;
  sim::MicroserviceSystem system(setup.ensemble, config);

  out << "\n=== Figure 5 (" << setup.name << "): collecting "
      << setup.train_entries << " training + 100 test entries\n";
  envmodel::TransitionDataset all =
      collect_random_trace(system, setup.train_entries + 100, options.seed + 7);
  auto [train, test] = all.split_tail(100);

  envmodel::DynamicsModel model(system.state_dim(), system.action_dim(),
                                setup.model_config);
  const double train_loss = model.fit(train);
  out << "final-epoch training loss (normalised): " << train_loss
      << ", held-out one-step MSE (raw WIP): " << model.evaluate(test)
      << "\n";

  // Fixed-input and iterative prediction traces over the 100 test points.
  Table table({"step", "reward_truth", "reward_fixed", "reward_iterative",
               "wip0_truth", "wip0_fixed", "wip0_iterative"});
  std::vector<double> rolling_state = test[0].state;
  double fixed_reward_err = 0.0, iter_reward_err = 0.0;
  for (std::size_t k = 0; k < test.size(); ++k) {
    const envmodel::Transition& t = test[k];
    const std::vector<double> fixed = model.predict(t.state, t.action);
    const std::vector<double> iterative = model.predict(rolling_state, t.action);
    const double truth_reward = envmodel::DynamicsModel::reward_of(t.next_state);
    const double fixed_reward = envmodel::DynamicsModel::reward_of(fixed);
    const double iter_reward = envmodel::DynamicsModel::reward_of(iterative);
    table.add_numeric_row({static_cast<double>(k), truth_reward, fixed_reward,
                           iter_reward, t.next_state[0], fixed[0],
                           iterative[0]},
                          2);
    fixed_reward_err += std::abs(fixed_reward - truth_reward);
    iter_reward_err += std::abs(iter_reward - truth_reward);
    rolling_state = iterative;
    for (double& w : rolling_state) w = std::max(w, 0.0);
  }
  bench::emit(table, options, "Figure 5 series — " + setup.name, out);
  out << "mean |reward error|: fixed-input="
      << fixed_reward_err / static_cast<double>(test.size())
      << "  iterative=" << iter_reward_err / static_cast<double>(test.size())
      << "  (iterative should be moderately higher: cumulative error;"
         " both should track the trend)\n";
}

}  // namespace
}  // namespace miras

int main(int argc, char** argv) {
  using namespace miras;
  const auto options = bench::parse_options(argc, argv);

  std::vector<Fig5Setup> setups;
  if (options.dataset.empty() || options.dataset == "msd") {
    Fig5Setup msd{"MSD", workflows::make_msd_ensemble(),
                  workflows::kMsdConsumerBudget,
                  options.full ? std::size_t{14000} : std::size_t{3000},
                  {}};
    msd.model_config.hidden_dims = {20, 20, 20};  // §VI-A3
    msd.model_config.epochs = options.full ? 60 : 40;
    setups.push_back(std::move(msd));
  }
  if (options.dataset.empty() || options.dataset == "ligo") {
    Fig5Setup ligo{"LIGO", workflows::make_ligo_ensemble(),
                   workflows::kLigoConsumerBudget,
                   options.full ? std::size_t{37000} : std::size_t{6000},
                   {}};
    ligo.model_config.hidden_dims = {20};  // 1-layer, counters overfitting
    ligo.model_config.epochs = options.full ? 60 : 40;
    setups.push_back(std::move(ligo));
  }

  // Dataset sections are independent; run them concurrently with buffered
  // output, printed in dataset order so stdout never depends on timing.
  const auto pool = bench::make_pool(options);
  std::vector<std::ostringstream> buffers(setups.size());
  {
    const bench::ScopedTimer timer("fig5 total", options.threads);
    const auto run_section = [&](std::size_t i) {
      run_fig5(setups[i], options, buffers[i]);
    };
    if (pool != nullptr) {
      pool->parallel_for(setups.size(), run_section);
    } else {
      for (std::size_t i = 0; i < setups.size(); ++i) run_section(i);
    }
  }
  for (const auto& buffer : buffers) std::cout << buffer.str();
  return 0;
}
