#include "baselines/drs.h"

#include <limits>

#include "baselines/queueing.h"
#include "common/contracts.h"

namespace miras::baselines {

DrsPolicy::DrsPolicy(const workflows::Ensemble& ensemble, DrsConfig config)
    : config_(config) {
  MIRAS_EXPECTS(config_.window_length > 0.0);
  for (std::size_t j = 0; j < ensemble.num_task_types(); ++j)
    service_rates_.push_back(1.0 / ensemble.task_type(j).service_time.mean());
  begin_episode();
}

void DrsPolicy::begin_episode() {
  arrival_rate_.assign(service_rates_.size(), Ewma(config_.ewma_alpha));
}

double DrsPolicy::cost(std::size_t j, int m) const {
  MIRAS_EXPECTS(j < service_rates_.size());
  MIRAS_EXPECTS(m >= 0);
  const double lambda =
      arrival_rate_[j].empty() ? 0.0 : arrival_rate_[j].value();
  if (lambda <= 0.0) return 0.0;
  const double mu = service_rates_[j];
  if (m == 0 || !mmc_stable(lambda, mu, static_cast<std::size_t>(m))) {
    // Unstable: price the backlog growth over the horizon, offset so any
    // unstable configuration costs more than any stable one.
    const double deficit = lambda - static_cast<double>(m) * mu;
    return 1e6 + deficit * config_.instability_horizon;
  }
  return mmc_expected_in_system(lambda, mu, static_cast<std::size_t>(m));
}

std::vector<int> DrsPolicy::decide(const sim::WindowStats& last_window,
                                   int budget) {
  const std::size_t j_count = service_rates_.size();
  // Update arrival-rate estimates from the last window's observed arrivals.
  if (last_window.task_arrivals.size() == j_count) {
    for (std::size_t j = 0; j < j_count; ++j)
      arrival_rate_[j].add(
          static_cast<double>(last_window.task_arrivals[j]) /
          config_.window_length);
  }

  // Greedy marginal-gain water-filling: hand each consumer to the queue
  // whose expected in-system count drops the most. The M/M/c L(m) curve is
  // convex in m, so greedy is optimal for the separable objective. A
  // hand-out changes only the winner's marginal gain, so gains are cached
  // and only the winner's is recomputed: O(J + B) cost() calls per decide
  // instead of O(J * B). Each queue's cost(j, m + 1) is kept too and becomes
  // its next gain's cost(j, m), so a hand-out costs one cost() call, not
  // two. cost() is pure within a decide, so the gains are the same doubles
  // and, with the same strict-> scan (lowest j wins ties), the allocation
  // matches the naive loop's.
  std::vector<int> allocation(j_count, 0);
  gains_.resize(j_count);
  next_costs_.resize(j_count);
  for (std::size_t j = 0; j < j_count; ++j) {
    next_costs_[j] = cost(j, 1);
    gains_[j] = cost(j, 0) - next_costs_[j];
  }
  for (int consumer = 0; consumer < budget; ++consumer) {
    double best_gain = 0.0;
    std::size_t best_j = j_count;
    for (std::size_t j = 0; j < j_count; ++j) {
      if (gains_[j] > best_gain) {
        best_gain = gains_[j];
        best_j = j;
      }
    }
    if (best_j == j_count) break;  // no queue benefits from more consumers
    const int held = ++allocation[best_j];
    const double held_cost = next_costs_[best_j];
    next_costs_[best_j] = cost(best_j, held + 1);
    gains_[best_j] = held_cost - next_costs_[best_j];
  }
  return allocation;
}

}  // namespace miras::baselines
