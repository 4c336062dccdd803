#include "core/evaluation.h"

#include <utility>

#include "common/contracts.h"
#include "common/stats.h"

namespace miras::core {

double EvaluationTrace::aggregate_reward() const {
  double total = 0.0;
  for (const auto& window : windows) total += window.reward;
  return total;
}

std::vector<double> EvaluationTrace::response_time_series() const {
  std::vector<double> series;
  series.reserve(windows.size());
  double last = 0.0;
  for (const auto& window : windows) {
    std::size_t completed = 0;
    for (const std::size_t c : window.completed) completed += c;
    if (completed > 0) last = window.overall_mean_response_time;
    series.push_back(last);
  }
  return series;
}

std::vector<double> EvaluationTrace::total_wip_series() const {
  std::vector<double> series;
  series.reserve(windows.size());
  for (const auto& window : windows) series.push_back(sum_of(window.wip));
  return series;
}

double EvaluationTrace::mean_response_time() const {
  return mean_of(response_time_series());
}

namespace {

/// Mean of the last min(count, size) entries of `series`; 0 when empty.
double tail_mean(const std::vector<double>& series, std::size_t count) {
  MIRAS_EXPECTS(count > 0);
  if (series.empty()) return 0.0;
  const std::size_t tail = std::min(count, series.size());
  double total = 0.0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i)
    total += series[i];
  return total / static_cast<double>(tail);
}

}  // namespace

double EvaluationTrace::tail_mean_response_time(std::size_t count) const {
  return tail_mean(response_time_series(), count);
}

const GridCell& GridResult::cell(std::size_t scenario, std::size_t policy,
                                 std::size_t replication) const {
  const std::size_t index =
      (scenario * num_policies + policy) * num_replications + replication;
  MIRAS_EXPECTS(index < cells.size());
  return cells[index];
}

const GridSummary& GridResult::summary(std::size_t scenario,
                                       std::size_t policy) const {
  const std::size_t index = scenario * num_policies + policy;
  MIRAS_EXPECTS(index < summaries.size());
  return summaries[index];
}

EvaluationHarness::EvaluationHarness(EnvFactory make_system,
                                     common::ThreadPool* pool)
    : make_system_(std::move(make_system)), pool_(pool) {
  MIRAS_EXPECTS(make_system_ != nullptr);
}

GridResult EvaluationHarness::run(const std::vector<PolicySpec>& policies,
                                  const std::vector<ScenarioSpec>& scenarios,
                                  const std::vector<std::uint64_t>& seeds,
                                  std::size_t tail_windows) const {
  MIRAS_EXPECTS(!policies.empty());
  MIRAS_EXPECTS(!scenarios.empty());
  MIRAS_EXPECTS(!seeds.empty());
  MIRAS_EXPECTS(tail_windows > 0);

  GridResult result;
  result.num_policies = policies.size();
  result.num_replications = seeds.size();
  result.cells.resize(scenarios.size() * policies.size() * seeds.size());

  // Every cell is an independent deterministic episode: its own system
  // (seeded by replication) and its own fresh policy instance. Results land
  // in index slots, so scheduling cannot reorder anything.
  auto run_cell = [&](std::size_t index) {
    const std::size_t replication = index % seeds.size();
    const std::size_t policy_index = (index / seeds.size()) % policies.size();
    const std::size_t scenario_index =
        index / (seeds.size() * policies.size());
    GridCell& cell = result.cells[index];
    cell.scenario_index = scenario_index;
    cell.policy_index = policy_index;
    cell.replication = replication;
    cell.system_seed = seeds[replication];
    // Per-cell construction was the allocation hot spot of the grid.
    std::unique_ptr<sim::MicroserviceSystem> system =
        acquire_system(spare_systems_, make_system_, cell.system_seed);
    const std::unique_ptr<rl::Policy> policy = policies[policy_index].make();
    MIRAS_EXPECTS(policy != nullptr);
    cell.trace =
        run_scenario(*system, *policy, scenarios[scenario_index].config);
    cell.trace.policy_name = policies[policy_index].label;
    spare_systems_.release(std::move(system));
  };
  // Cells are claimed one at a time. The default chunk would hand out one
  // whole (scenario, policy) block of replications per claim, and blocks
  // differ in cost by policy, so a pass would end with threads idle behind
  // the slowest block. One atomic claim per ~1 ms cell costs nothing.
  if (pool_ != nullptr) {
    pool_->parallel_for(result.cells.size(), run_cell, /*chunk=*/1);
  } else {
    for (std::size_t i = 0; i < result.cells.size(); ++i) run_cell(i);
  }

  // Serial merge in index order: replication-level samples are add()ed,
  // window-level response times are merged cell-by-cell via merge().
  result.summaries.reserve(scenarios.size() * policies.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      GridSummary summary;
      summary.scenario = scenarios[s].label;
      summary.policy = policies[p].label;
      summary.replications = seeds.size();
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        const EvaluationTrace& trace = result.cell(s, p, k).trace;
        const std::vector<double> series = trace.response_time_series();
        summary.aggregate_reward.add(trace.aggregate_reward());
        summary.tail_response_time.add(tail_mean(series, tail_windows));
        summary.final_total_wip.add(sum_of(trace.windows.back().wip));
        RunningStats windows;
        for (const double rt : series) windows.add(rt);
        summary.response_time.merge(windows);
      }
      result.summaries.push_back(std::move(summary));
    }
  }
  return result;
}

EvaluationTrace run_scenario(sim::MicroserviceSystem& env, rl::Policy& policy,
                             const ScenarioConfig& scenario) {
  MIRAS_EXPECTS(scenario.steps > 0);
  EvaluationTrace trace;
  trace.policy_name = policy.name();
  trace.windows.reserve(scenario.steps);

  env.reset();
  if (!scenario.burst.counts.empty()) env.inject_burst(scenario.burst);

  policy.begin_episode();
  const sim::WindowStats initial = rl::initial_window_stats(
      env.observe_wip(), env.ensemble().num_workflows(),
      env.ensemble().num_task_types());

  // Each window steps straight into its slot of the reserved trace, and
  // the next decide() reads it there: no per-window copy.
  for (std::size_t step = 0; step < scenario.steps; ++step) {
    const sim::WindowStats& last_window =
        step == 0 ? initial : trace.windows.back();
    const std::vector<int> allocation =
        policy.decide(last_window, env.consumer_budget());
    env.step(allocation, trace.windows.emplace_back());
  }
  return trace;
}

}  // namespace miras::core
