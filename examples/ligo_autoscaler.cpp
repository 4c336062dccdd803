// LIGO autoscaler: trains MIRAS on the 9-microservice LIGO ensemble and
// replays a large burst, printing the share of consumers given to the
// shared Coire tail stage over time. The paper's §VI-D observation is that
// MIRAS "puts aside certain tasks, e.g., Coire ... at the beginning and
// focuses on other tasks", then returns to drain the Coire queue once
// upstream pressure subsides — the long-term-return behaviour that myopic
// controllers cannot express.
//
// Build & run:   ./build/examples/ligo_autoscaler   (several minutes)
#include <iomanip>
#include <iostream>

#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "sim/system.h"
#include "workflows/ligo.h"

int main() {
  using namespace miras;

  sim::SystemConfig system_config;
  system_config.consumer_budget = workflows::kLigoConsumerBudget;
  system_config.seed = 17;
  sim::MicroserviceSystem system(workflows::make_ligo_ensemble(),
                                 system_config);

  core::MirasConfig config = core::miras_ligo_fast_config();
  config.outer_iterations = 8;
  std::cout << "Training MIRAS on LIGO (" << config.outer_iterations
            << " iterations, 9 task types, budget "
            << workflows::kLigoConsumerBudget << ")...\n";
  core::MirasAgent agent(&system, config);
  for (const auto& trace : agent.train())
    std::cout << "  iteration " << trace.iteration << ": eval reward "
              << trace.eval_aggregate_reward << "\n";

  // Replay the paper's second (largest) LIGO burst and narrate Coire.
  sim::SystemConfig eval_config = system_config;
  eval_config.seed = 555;
  sim::MicroserviceSystem eval_system(workflows::make_ligo_ensemble(),
                                      eval_config);
  auto policy = agent.make_policy();

  std::cout << "\nBurst 150/150/80/50 (DataFind/CAT/Full/Injection):\n";
  std::cout << "win | coire_alloc coire_wip | upstream_alloc total_wip | "
               "completed\n";
  eval_system.reset();
  eval_system.inject_burst(sim::BurstSpec{{150, 150, 80, 50}});
  policy->begin_episode();
  sim::WindowStats last = rl::initial_window_stats(
      eval_system.observe_wip(), eval_system.ensemble().num_workflows(),
      eval_system.ensemble().num_task_types());
  for (int k = 0; k < 40; ++k) {
    const auto allocation =
        policy->decide(last, eval_system.consumer_budget());
    eval_system.step(allocation, last);
    int upstream_alloc = 0;
    for (std::size_t j = 0; j < allocation.size(); ++j)
      if (j != workflows::LigoTasks::kCoire)
        upstream_alloc += allocation[j];
    double total_wip = 0.0;
    std::size_t completed = 0;
    for (const double w : last.wip) total_wip += w;
    for (const std::size_t c : last.completed) completed += c;
    std::cout << std::setw(3) << k << " | " << std::setw(11)
              << allocation[workflows::LigoTasks::kCoire] << " "
              << std::setw(9)
              << static_cast<int>(last.wip[workflows::LigoTasks::kCoire])
              << " | " << std::setw(14) << upstream_alloc << " "
              << std::setw(9) << static_cast<int>(total_wip) << " | "
              << std::setw(9) << completed << "\n";
  }
  std::cout << "\nLook for: small Coire share while upstream queues are\n"
               "loaded, then a larger share once the pipeline drains.\n";
  return 0;
}
