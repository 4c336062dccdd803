// Seeded procedural workflow-ensemble generator. MSD and LIGO pin the
// paper-scale scenarios (4 and 9 task types); benches and property tests
// that run clusters far past that need ensembles with 64-256 task types
// that are still a pure deterministic function of a seed. Random DAG topologies with a guaranteed predecessor
// edge per non-first node (no disconnected floaters), lognormal service
// means, and arrival rates normalised so the offered load hits a target
// fraction of the consumer budget.
#pragma once

#include <cstdint>

#include "workflows/ensemble.h"

namespace miras::workflows {

struct GeneratedOptions {
  std::size_t num_task_types = 128;
  std::size_t num_workflows = 32;
  /// Node-count range per workflow DAG (inclusive).
  std::size_t min_nodes = 4;
  std::size_t max_nodes = 12;
  /// Service-time mean range (seconds, uniform per task type) and shared
  /// coefficient of variation (lognormal, like MSD/LIGO).
  double service_mean_min = 1.0;
  double service_mean_max = 8.0;
  double service_cv = 0.5;
  /// Probability of each additional forward edge beyond the spanning
  /// predecessor edge (fan-in/fan-out density).
  double extra_edge_prob = 0.25;
  /// Arrival rates are scaled uniformly so offered_load() ==
  /// utilization * consumer_budget (consumer-seconds per second).
  int consumer_budget = 128;
  double utilization = 0.7;
  std::uint64_t seed = 1;
};

/// Builds a validated ensemble; bit-identical for equal options.
Ensemble make_generated_ensemble(const GeneratedOptions& options = {});

}  // namespace miras::workflows
