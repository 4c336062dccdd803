// MSD burst control: watch three controllers (MIRAS, DRS, MONAD) handle the
// same request burst window by window. Prints the per-window allocation and
// WIP so you can see *how* each controller reacts, not just the score —
// DRS's slow arrival estimates, MONAD's immediate but myopic reaction, and
// MIRAS's learnt anticipation of downstream load.
//
// Build & run:   ./build/examples/msd_burst_control
#include <iomanip>
#include <iostream>

#include "baselines/drs.h"
#include "baselines/monad.h"
#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "sim/system.h"
#include "workflows/msd.h"

namespace {

void narrate(const std::string& name, miras::rl::Policy& policy,
             std::uint64_t seed) {
  using namespace miras;
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed;
  sim::MicroserviceSystem system(workflows::make_msd_ensemble(), config);

  const core::ScenarioConfig scenario{sim::BurstSpec{{150, 100, 150}}, 20};
  std::cout << "\n--- " << name << " under burst (150/100/150)\n";
  std::cout << "win | alloc  In Al Se An | wip    In  Al  Se  An | mean RT\n";

  system.reset();
  system.inject_burst(scenario.burst);
  policy.begin_episode();
  sim::WindowStats last = rl::initial_window_stats(
      system.observe_wip(), system.ensemble().num_workflows(),
      system.ensemble().num_task_types());
  double aggregate = 0.0;
  for (std::size_t k = 0; k < scenario.steps; ++k) {
    const auto allocation = policy.decide(last, system.consumer_budget());
    system.step(allocation, last);
    aggregate += last.reward;
    std::cout << std::setw(3) << k << " |       ";
    for (const int m : allocation) std::cout << std::setw(3) << m;
    std::cout << " |     ";
    for (const double w : last.wip)
      std::cout << std::setw(4) << static_cast<int>(w);
    std::cout << " | " << std::fixed << std::setprecision(1)
              << last.overall_mean_response_time << " s\n";
  }
  std::cout << name << " aggregate reward: " << aggregate << "\n";
}

}  // namespace

int main() {
  using namespace miras;
  const auto ensemble = workflows::make_msd_ensemble();

  // Train MIRAS at reduced scale first.
  sim::SystemConfig train_config;
  train_config.consumer_budget = workflows::kMsdConsumerBudget;
  train_config.seed = 7;
  sim::MicroserviceSystem train_system(workflows::make_msd_ensemble(),
                                       train_config);
  core::MirasConfig miras_config = core::miras_msd_fast_config();
  miras_config.outer_iterations = 6;
  std::cout << "Training MIRAS (" << miras_config.outer_iterations
            << " iterations)...\n";
  core::MirasAgent agent(&train_system, miras_config);
  agent.train();

  auto miras_policy = agent.make_policy();
  baselines::DrsPolicy drs(ensemble);
  baselines::MonadPolicy monad(ensemble);

  narrate("MIRAS", *miras_policy, 99);
  narrate("DRS (stream)", drs, 99);
  narrate("MONAD (one-step MPC)", monad, 99);
  return 0;
}
