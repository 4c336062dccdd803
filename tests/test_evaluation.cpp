#include "core/evaluation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "baselines/simple.h"
#include "common/contracts.h"
#include "workflows/msd.h"

namespace miras::core {
namespace {

sim::MicroserviceSystem make_msd_system(std::uint64_t seed = 3) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kMsdConsumerBudget;
  config.seed = seed;
  return sim::MicroserviceSystem(workflows::make_msd_ensemble(), config);
}

TEST(Evaluation, ProducesOneWindowPerStep) {
  auto system = make_msd_system();
  baselines::UniformPolicy uniform(4);
  const EvaluationTrace trace =
      run_scenario(system, uniform, ScenarioConfig{{}, 12});
  EXPECT_EQ(trace.windows.size(), 12u);
  EXPECT_EQ(trace.policy_name, "uniform");
  EXPECT_EQ(trace.response_time_series().size(), 12u);
  EXPECT_EQ(trace.total_wip_series().size(), 12u);
}

TEST(Evaluation, AggregateRewardSumsWindows) {
  auto system = make_msd_system();
  baselines::UniformPolicy uniform(4);
  const EvaluationTrace trace =
      run_scenario(system, uniform, ScenarioConfig{{}, 8});
  double expected = 0.0;
  for (const auto& w : trace.windows) expected += w.reward;
  EXPECT_DOUBLE_EQ(trace.aggregate_reward(), expected);
}

TEST(Evaluation, BurstInflatesEarlyWip) {
  auto with_burst = make_msd_system(5);
  auto without_burst = make_msd_system(5);
  baselines::UniformPolicy uniform(4);
  const auto burst_trace = run_scenario(
      with_burst, uniform, ScenarioConfig{sim::BurstSpec{{100, 50, 50}}, 5});
  const auto calm_trace =
      run_scenario(without_burst, uniform, ScenarioConfig{{}, 5});
  EXPECT_GT(burst_trace.total_wip_series()[0],
            calm_trace.total_wip_series()[0] + 50.0);
}

TEST(Evaluation, ResponseSeriesCarriesForwardOverEmptyWindows) {
  auto system = make_msd_system(7);
  // Zero allocation: nothing ever completes; the series must stay at 0
  // rather than oscillate.
  baselines::StaticPolicy frozen({0, 0, 0, 0});
  const auto trace = run_scenario(system, frozen, ScenarioConfig{{}, 6});
  for (const double r : trace.response_time_series()) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(Evaluation, TailMeanUsesLastWindows) {
  EvaluationTrace trace;
  for (int i = 0; i < 4; ++i) {
    sim::WindowStats stats;
    stats.wip = {0.0};
    stats.completed = {1};
    stats.overall_mean_response_time = static_cast<double>(i + 1);
    trace.windows.push_back(stats);
  }
  // Series: 1 2 3 4; tail(2) = 3.5; full mean = 2.5.
  EXPECT_DOUBLE_EQ(trace.tail_mean_response_time(2), 3.5);
  EXPECT_DOUBLE_EQ(trace.mean_response_time(), 2.5);
  EXPECT_DOUBLE_EQ(trace.tail_mean_response_time(100), 2.5);
}

TEST(Evaluation, TailMeanOfZeroWindowsRejected) {
  auto system = make_msd_system();
  baselines::UniformPolicy uniform(4);
  const auto trace = run_scenario(system, uniform, ScenarioConfig{{}, 4});
  EXPECT_THROW((void)trace.tail_mean_response_time(0), ContractViolation);
  EXPECT_TRUE(std::isfinite(trace.tail_mean_response_time(1)));
}

TEST(Evaluation, GridRejectsZeroTailWindows) {
  const EvaluationHarness harness([](std::uint64_t seed) {
    sim::SystemConfig config;
    config.consumer_budget = workflows::kMsdConsumerBudget;
    config.seed = seed;
    return std::make_unique<sim::MicroserviceSystem>(
        workflows::make_msd_ensemble(), config);
  });
  const std::vector<PolicySpec> policies = {
      {"uniform", [] { return std::make_unique<baselines::UniformPolicy>(4); }}};
  const std::vector<ScenarioSpec> scenarios = {{"calm", ScenarioConfig{{}, 3}}};
  EXPECT_THROW((void)harness.run(policies, scenarios, {1, 2}, 0),
               ContractViolation);
  const GridResult grid = harness.run(policies, scenarios, {1, 2}, 1);
  EXPECT_TRUE(std::isfinite(grid.summary(0, 0).tail_response_time.mean()));
}

void expect_same_stats(const sim::WindowStats& a, const sim::WindowStats& b) {
  EXPECT_EQ(a.wip, b.wip);
  EXPECT_EQ(a.reward, b.reward);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.overall_mean_response_time, b.overall_mean_response_time);
  EXPECT_EQ(a.task_arrivals, b.task_arrivals);
  EXPECT_EQ(a.task_completions, b.task_completions);
  EXPECT_EQ(a.allocation, b.allocation);
}

/// Uniform allocation that keeps a copy of every WindowStats it is shown.
class RecordingPolicy final : public rl::Policy {
 public:
  std::string name() const override { return "recording"; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override {
    seen.push_back(last_window);
    return uniform_.decide(last_window, budget);
  }
  std::vector<sim::WindowStats> seen;

 private:
  baselines::UniformPolicy uniform_{4};
};

TEST(Evaluation, DecideSeesThePreviousWindow) {
  const sim::BurstSpec burst{{30, 20, 10}};
  auto system = make_msd_system(17);
  RecordingPolicy recorder;
  const auto trace = run_scenario(system, recorder, ScenarioConfig{burst, 6});
  ASSERT_EQ(recorder.seen.size(), 6u);

  // Call 0 sees the post-burst state with zeroed history.
  auto reference = make_msd_system(17);
  reference.reset();
  reference.inject_burst(burst);
  const sim::WindowStats initial = rl::initial_window_stats(
      reference.observe_wip(), reference.ensemble().num_workflows(),
      reference.ensemble().num_task_types());
  EXPECT_GT(sum_of(initial.wip), 0.0);
  expect_same_stats(recorder.seen[0], initial);
  // Call k sees exactly window k - 1.
  for (std::size_t k = 1; k < recorder.seen.size(); ++k) {
    SCOPED_TRACE("call " + std::to_string(k));
    expect_same_stats(recorder.seen[k], trace.windows[k - 1]);
  }
}

TEST(Evaluation, ZeroStepsRejected) {
  auto system = make_msd_system();
  baselines::UniformPolicy uniform(4);
  EXPECT_THROW(run_scenario(system, uniform, ScenarioConfig{{}, 0}),
               ContractViolation);
}

TEST(Evaluation, DeterministicForSameSeedAndPolicy) {
  auto a = make_msd_system(11);
  auto b = make_msd_system(11);
  baselines::ProportionalPolicy pa(4), pb(4);
  const auto ta = run_scenario(a, pa, ScenarioConfig{{}, 10});
  const auto tb = run_scenario(b, pb, ScenarioConfig{{}, 10});
  EXPECT_EQ(ta.total_wip_series(), tb.total_wip_series());
  EXPECT_DOUBLE_EQ(ta.aggregate_reward(), tb.aggregate_reward());
}

TEST(Evaluation, ReactivePolicyBeatsFrozenUnderBurst) {
  // Sanity: proportional allocation must clear a burst far better than a
  // frozen zero allocation — establishes that the harness exposes policy
  // quality differences at all.
  auto reactive_system = make_msd_system(13);
  auto frozen_system = make_msd_system(13);
  baselines::ProportionalPolicy reactive(4);
  baselines::StaticPolicy frozen({0, 0, 0, 0});
  const ScenarioConfig scenario{sim::BurstSpec{{60, 40, 40}}, 15};
  const auto reactive_trace =
      run_scenario(reactive_system, reactive, scenario);
  const auto frozen_trace = run_scenario(frozen_system, frozen, scenario);
  EXPECT_GT(reactive_trace.aggregate_reward(),
            frozen_trace.aggregate_reward());
  EXPECT_LT(reactive_trace.total_wip_series().back(),
            frozen_trace.total_wip_series().back());
}

}  // namespace
}  // namespace miras::core
