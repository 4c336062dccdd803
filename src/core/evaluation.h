// Evaluation harness: runs a policy on the emulated system under the
// paper's burst scenarios (§VI-D) and records the per-window series that
// Figures 7 and 8 plot. EvaluationHarness runs the whole policy x scenario
// x seed grid — every cell is an independent deterministic episode — on a
// ThreadPool, with results written into preallocated index slots and
// summaries merged serially in index order, so the output is bit-identical
// for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/object_pool.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/collection.h"
#include "rl/policy.h"
#include "sim/system.h"

namespace miras::core {

struct ScenarioConfig {
  /// Requests injected at t = 0, per workflow type (empty = no burst).
  sim::BurstSpec burst;
  /// Control windows to run.
  std::size_t steps = 25;
};

struct EvaluationTrace {
  std::string policy_name;
  std::vector<sim::WindowStats> windows;

  /// Sum of per-window rewards (the paper's aggregated reward).
  double aggregate_reward() const;

  /// Overall mean response time per window (Figures 7/8 y-axis). Windows
  /// in which nothing completed carry forward the previous value so the
  /// series stays plottable.
  std::vector<double> response_time_series() const;

  /// Total WIP per window.
  std::vector<double> total_wip_series() const;

  /// Mean over the response_time_series (scalar summary used in
  /// EXPERIMENTS.md).
  double mean_response_time() const;

  /// Mean response time over the tail (last `count` windows, or all of
  /// them when fewer) — the "long-term return" the paper emphasises. 0 for
  /// an empty trace. `count` must be positive (ContractViolation otherwise).
  double tail_mean_response_time(std::size_t count) const;
};

/// Resets `env`, injects the scenario's burst, then runs `policy` for
/// scenario.steps windows.
EvaluationTrace run_scenario(sim::MicroserviceSystem& env, rl::Policy& policy,
                             const ScenarioConfig& scenario);

/// One policy of an evaluation grid. Cells run concurrently, so the grid
/// takes a *factory* and builds a fresh policy instance per cell; stateful
/// policies (DRS's EWMA estimators, MONAD's profiles) then never share
/// mutable state across threads. Policies that view a trained agent (e.g.
/// DdpgPolicy) must use the agent's const greedy path.
struct PolicySpec {
  std::string label;
  std::function<std::unique_ptr<rl::Policy>()> make;
};

/// One labelled burst scenario of the grid.
struct ScenarioSpec {
  std::string label;
  ScenarioConfig config;
};

/// One (scenario, policy, replication) cell of the grid.
struct GridCell {
  std::size_t scenario_index = 0;
  std::size_t policy_index = 0;
  std::size_t replication = 0;
  std::uint64_t system_seed = 0;
  EvaluationTrace trace;
};

/// Per (scenario, policy) statistics merged over replications. The window-
/// level response-time stats are built per cell and combined with
/// RunningStats::merge() in replication order.
struct GridSummary {
  std::string scenario;
  std::string policy;
  std::size_t replications = 0;
  RunningStats aggregate_reward;    // one sample per replication
  RunningStats response_time;       // every window of every replication
  RunningStats tail_response_time;  // one sample per replication
  RunningStats final_total_wip;     // one sample per replication
};

struct GridResult {
  std::size_t num_policies = 0;
  std::size_t num_replications = 0;
  /// Scenario-major, then policy, then replication.
  std::vector<GridCell> cells;
  /// Scenario-major, then policy.
  std::vector<GridSummary> summaries;

  const GridCell& cell(std::size_t scenario, std::size_t policy,
                       std::size_t replication = 0) const;
  const GridSummary& summary(std::size_t scenario, std::size_t policy) const;
};

class EvaluationHarness {
 public:
  /// `make_system` builds the evaluation system for a given seed and must be
  /// pure in it (EnvFactory): the harness recycles systems across grid
  /// cells through acquire_system() instead of constructing one per cell.
  /// `pool` (optional, must outlive the harness) runs the grid cells.
  /// Without a pool the grid runs inline — by construction this produces
  /// exactly the same result as any pool, just on one core.
  explicit EvaluationHarness(EnvFactory make_system,
                             common::ThreadPool* pool = nullptr);

  /// Runs every (scenario, policy, seed) cell. Replication k of every cell
  /// uses system seed seeds[k], so all policies and scenarios face the same
  /// arrival trace per replication. `tail_windows` (positive) sizes the
  /// tail-mean response-time summary.
  GridResult run(const std::vector<PolicySpec>& policies,
                 const std::vector<ScenarioSpec>& scenarios,
                 const std::vector<std::uint64_t>& seeds,
                 std::size_t tail_windows) const;

 private:
  EnvFactory make_system_;
  common::ThreadPool* pool_;
  /// Idle systems recycled across cells (and across run() calls). At most
  /// one per concurrent worker ever exists; reseed() makes which cell gets
  /// which object irrelevant, so results stay bit-identical.
  mutable common::ObjectPool<sim::MicroserviceSystem> spare_systems_;
};

}  // namespace miras::core
