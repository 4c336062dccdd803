#include "sim/system.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/contracts.h"
#include "common/stats.h"
#include "workflows/msd.h"

namespace miras::sim {
namespace {

using workflows::Ensemble;
using workflows::ServiceTimeModel;
using workflows::WorkflowGraph;

// One task type, one single-node workflow: an M/M/c queue in disguise.
Ensemble single_queue_ensemble(double arrival_rate, double service_mean) {
  Ensemble ensemble("single");
  const auto a = ensemble.add_task_type(
      "A", ServiceTimeModel::exponential(service_mean));
  WorkflowGraph wf("w");
  wf.add_node(a);
  ensemble.add_workflow(std::move(wf), arrival_rate);
  return ensemble;
}

SystemConfig fast_config(int budget) {
  SystemConfig config;
  config.consumer_budget = budget;
  config.window_length = 30.0;
  config.seed = 42;
  return config;
}

TEST(System, DimensionsFromEnsemble) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  EXPECT_EQ(system.state_dim(), 4u);
  EXPECT_EQ(system.action_dim(), 4u);
  EXPECT_EQ(system.consumer_budget(), 14);
}

TEST(System, ResetReturnsZeroWip) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  const auto state = system.reset();
  EXPECT_EQ(state.size(), 4u);
  for (const double w : state) EXPECT_DOUBLE_EQ(w, 0.0);
}

TEST(System, StepAdvancesClockByWindow) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  WindowStats window;
  system.step({3, 3, 3, 3}, window);
  EXPECT_DOUBLE_EQ(system.now(), 30.0);
  system.step({3, 3, 3, 3}, window);
  EXPECT_DOUBLE_EQ(system.now(), 60.0);
}

TEST(System, RunForAdvancesClockWithoutWindowAccounting) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  system.run_for(50.0);
  EXPECT_DOUBLE_EQ(system.now(), 50.0);
  EXPECT_GT(system.executed_events(), 0u);
  EXPECT_EQ(system.counters().tasks_enqueued,
            system.counters().tasks_completed + system.live_tasks());

  // With consumers up, raw stepping completes tasks and still conserves.
  WindowStats window;
  system.step({4, 4, 3, 3}, window);
  const std::uint64_t events_before = system.executed_events();
  const std::uint64_t completed_before = system.counters().tasks_completed;
  system.run_for(50.0);
  EXPECT_DOUBLE_EQ(system.now(), 130.0);
  EXPECT_GT(system.executed_events(), events_before);
  EXPECT_GT(system.counters().tasks_completed, completed_before);
  EXPECT_EQ(system.counters().tasks_enqueued,
            system.counters().tasks_completed + system.live_tasks());

  system.run_for(0.0);
  EXPECT_DOUBLE_EQ(system.now(), 130.0);
  EXPECT_THROW(system.run_for(-1.0), ContractViolation);
}

TEST(System, RewardIsOneMinusTotalWip) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  WindowStats window;
  system.step({0, 0, 0, 0}, window);
  EXPECT_DOUBLE_EQ(window.reward, 1.0 - sum_of(window.wip));
}

TEST(System, ZeroConsumersQueuesEverything) {
  MicroserviceSystem system(single_queue_ensemble(0.5, 2.0), fast_config(10));
  system.reset();
  WindowStats window;
  system.step({0}, window);
  // ~15 arrivals expected in 30 s; none can be served.
  EXPECT_GT(window.wip[0], 5.0);
  EXPECT_EQ(system.counters().tasks_completed, 0u);
}

TEST(System, AmpleConsumersKeepWipLow) {
  MicroserviceSystem system(single_queue_ensemble(0.5, 2.0), fast_config(10));
  system.reset();
  WindowStats window;
  for (int k = 0; k < 10; ++k) system.step({10}, window);
  // Offered load is 1 Erlang; with 10 consumers WIP stays near steady state.
  EXPECT_LT(window.wip[0], 6.0);
  EXPECT_GT(system.counters().workflows_completed, 50u);
}

TEST(System, BudgetEnforced) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  WindowStats window;
  EXPECT_THROW(system.step({14, 14, 14, 14}, window), ContractViolation);
  EXPECT_THROW(system.step({-1, 5, 5, 5}, window), ContractViolation);
  EXPECT_THROW(system.step({5, 5, 5}, window),
               ContractViolation);  // wrong arity
  EXPECT_NO_THROW(system.step({14, 0, 0, 0}, window));
}

TEST(System, BurstInjectionCountsArrivals) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  system.inject_burst(BurstSpec{{10, 20, 30}});
  EXPECT_EQ(system.counters().workflows_arrived, 60u);
  // Burst roots all land in Ingest's queue immediately.
  EXPECT_DOUBLE_EQ(system.observe_wip()[workflows::MsdTasks::kIngest], 60.0);
}

TEST(System, BurstArityChecked) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  EXPECT_THROW(system.inject_burst(BurstSpec{{1, 2}}), ContractViolation);
}

TEST(System, StartupDelayGatesService) {
  // With startup delays of exactly 5-10 s, a burst present at t=0 cannot
  // finish any 1 s task before t = 5 s... but all should finish well within
  // one 30 s window once consumers are up.
  Ensemble ensemble("det");
  const auto a =
      ensemble.add_task_type("A", ServiceTimeModel::deterministic(1.0));
  WorkflowGraph wf("w");
  wf.add_node(a);
  ensemble.add_workflow(std::move(wf), 0.0);  // no steady stream

  SystemConfig config = fast_config(5);
  MicroserviceSystem system(std::move(ensemble), config);
  system.reset();
  system.inject_burst(BurstSpec{{5}});
  WindowStats window;
  system.step({5}, window);
  EXPECT_DOUBLE_EQ(window.wip[0], 0.0);
  EXPECT_EQ(system.counters().workflows_completed, 5u);
  // Response times must include the startup delay: every request waited at
  // least 5 s + 1 s service.
  EXPECT_GE(window.mean_response_time[0], 6.0);
  EXPECT_LE(window.mean_response_time[0], 11.0);
}

TEST(System, ResponseTimeOfUncontendedChain) {
  // Chain A -> B with deterministic 2 s + 3 s service and idle system:
  // response time = startup wait (5-10 s) + 5 s once pools are warm; after
  // the first window, near 5 s exactly.
  Ensemble ensemble("chain");
  const auto a = ensemble.add_task_type("A", ServiceTimeModel::deterministic(2.0));
  const auto b = ensemble.add_task_type("B", ServiceTimeModel::deterministic(3.0));
  WorkflowGraph wf("w");
  const auto n0 = wf.add_node(a);
  const auto n1 = wf.add_node(b);
  wf.add_edge(n0, n1);
  ensemble.add_workflow(std::move(wf), 0.0);

  MicroserviceSystem system(std::move(ensemble), fast_config(4));
  system.reset();
  WindowStats window;
  system.step({2, 2}, window);  // warm the pools
  system.inject_burst(BurstSpec{{1}});
  system.step({2, 2}, window);
  EXPECT_EQ(window.completed[0], 1u);
  EXPECT_NEAR(window.mean_response_time[0], 5.0, 1e-9);
}

TEST(System, FanInJoinGatesDownstream) {
  // Diamond: A -> (B, C) -> D. With B much slower than C, D's task count
  // must stay 0 until B finishes.
  Ensemble ensemble("diamond");
  const auto a = ensemble.add_task_type("A", ServiceTimeModel::deterministic(1.0));
  const auto b = ensemble.add_task_type("B", ServiceTimeModel::deterministic(20.0));
  const auto c = ensemble.add_task_type("C", ServiceTimeModel::deterministic(1.0));
  const auto d = ensemble.add_task_type("D", ServiceTimeModel::deterministic(1.0));
  WorkflowGraph wf("w");
  const auto n0 = wf.add_node(a);
  const auto n1 = wf.add_node(b);
  const auto n2 = wf.add_node(c);
  const auto n3 = wf.add_node(d);
  wf.add_edge(n0, n1);
  wf.add_edge(n0, n2);
  wf.add_edge(n1, n3);
  wf.add_edge(n2, n3);
  ensemble.add_workflow(std::move(wf), 0.0);

  SystemConfig config = fast_config(8);
  config.window_length = 15.0;  // B (20 s) cannot finish within one window
  MicroserviceSystem system(std::move(ensemble), config);
  system.reset();
  WindowStats window;
  system.step({2, 2, 2, 2}, window);  // warm pools
  system.inject_burst(BurstSpec{{1}});
  system.step({2, 2, 2, 2}, window);
  // A and C done, B still running, D not yet published.
  EXPECT_DOUBLE_EQ(window.wip[3], 0.0);
  EXPECT_DOUBLE_EQ(window.wip[1], 1.0);
  system.step({2, 2, 2, 2}, window);
  EXPECT_EQ(system.counters().workflows_completed, 1u);
}

TEST(System, ScaleDownDoesNotLoseTasks) {
  MicroserviceSystem system(single_queue_ensemble(0.0, 5.0), fast_config(10));
  system.reset();
  system.inject_burst(BurstSpec{{20}});
  WindowStats window;
  system.step({10}, window);  // start serving
  system.step({0}, window);   // brutal scale-down mid-flight
  system.step({10}, window);
  for (int i = 0; i < 10; ++i) system.step({10}, window);
  // Every injected workflow eventually completes; none lost.
  EXPECT_EQ(system.counters().workflows_completed, 20u);
  EXPECT_EQ(system.counters().tasks_enqueued,
            system.counters().tasks_completed);
}

TEST(System, ObserveWipMatchesStepState) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  WindowStats window;
  system.step({4, 4, 3, 3}, window);
  EXPECT_EQ(window.wip, system.observe_wip());
}

TEST(System, WindowStatsInternallyConsistent) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  WindowStats stats;
  system.step({4, 4, 3, 3}, stats);
  EXPECT_EQ(stats.wip.size(), 4u);
  EXPECT_EQ(stats.reward, reward_from_wip(stats.wip));
  EXPECT_EQ(stats.allocation, (std::vector<int>{4, 4, 3, 3}));
  EXPECT_EQ(stats.arrivals.size(), 3u);
  EXPECT_EQ(stats.completed.size(), 3u);
  EXPECT_EQ(stats.task_arrivals.size(), 4u);
  EXPECT_EQ(stats.task_completions.size(), 4u);
  // mean_response_time is zero exactly for types with no completions.
  for (std::size_t w = 0; w < 3; ++w) {
    if (stats.completed[w] == 0)
      EXPECT_DOUBLE_EQ(stats.mean_response_time[w], 0.0);
    else
      EXPECT_GT(stats.mean_response_time[w], 0.0);
  }
}

TEST(System, ResetClearsEverything) {
  MicroserviceSystem system(workflows::make_msd_ensemble(), fast_config(14));
  system.reset();
  system.inject_burst(BurstSpec{{50, 50, 50}});
  WindowStats window;
  system.step({4, 4, 3, 3}, window);
  const auto state = system.reset();
  for (const double w : state) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_DOUBLE_EQ(system.now(), 0.0);
  EXPECT_EQ(system.counters().workflows_arrived, 0u);
  EXPECT_EQ(system.live_tasks(), 0u);
}

TEST(System, LittlesLawOnSingleQueue) {
  // M/M/c sanity: with lambda = 0.4/s, mean service 2 s, c = 2 (rho = 0.4),
  // long-run average WIP should match the Erlang-C prediction (~0.87).
  SystemConfig config = fast_config(2);
  config.seed = 7;
  MicroserviceSystem system(single_queue_ensemble(0.4, 2.0), config);
  system.reset();
  WindowStats window;
  system.step({2}, window);  // warm-up
  RunningStats wip;
  for (int k = 0; k < 400; ++k) {
    system.step({2}, window);
    wip.add(window.wip[0]);
  }
  // End-of-window sampling of L; Erlang-C for (0.4, 0.5, 2) gives ~0.95.
  EXPECT_NEAR(wip.mean(), 0.95, 0.35);
}

TEST(System, InvalidConfigRejected) {
  SystemConfig bad = fast_config(0);
  EXPECT_THROW(
      MicroserviceSystem(workflows::make_msd_ensemble(), bad),
      ContractViolation);
  SystemConfig bad_window = fast_config(10);
  bad_window.window_length = 0.0;
  EXPECT_THROW(
      MicroserviceSystem(workflows::make_msd_ensemble(), bad_window),
      ContractViolation);
  SystemConfig bad_delay = fast_config(10);
  bad_delay.startup_delay_max = 1.0;
  bad_delay.startup_delay_min = 2.0;
  EXPECT_THROW(
      MicroserviceSystem(workflows::make_msd_ensemble(), bad_delay),
      ContractViolation);
}

}  // namespace
}  // namespace miras::sim
