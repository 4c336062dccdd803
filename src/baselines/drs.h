// DRS baseline (Fu et al., "DRS: Dynamic Resource Scheduling for Real-Time
// Analytics over Fast Streams", ICDCS 2015), adapted to the microservice
// workflow setting as the paper's "stream" comparator (§VI-D).
//
// DRS models each microservice as an M/M/c queue in a Jackson open queueing
// network and allocates the consumer budget to minimise the total expected
// number of requests in the system. Arrival rates are estimated with a slow
// EWMA over observed per-queue arrivals (DRS targets stationary streams —
// this is why it "does not react responsively to condition changes");
// service rates come from profiled task means.
#pragma once

#include <vector>

#include "common/stats.h"
#include "rl/policy.h"
#include "workflows/ensemble.h"

namespace miras::baselines {

struct DrsConfig {
  /// EWMA weight for arrival-rate estimation (slow on purpose).
  double ewma_alpha = 0.2;
  /// Control-window length in seconds (converts counts to rates).
  double window_length = 30.0;
  /// Penalty horizon (seconds) used to price unstable configurations.
  double instability_horizon = 300.0;
};

class DrsPolicy final : public rl::Policy {
 public:
  DrsPolicy(const workflows::Ensemble& ensemble, DrsConfig config = {});

  std::string name() const override { return "drs"; }
  void begin_episode() override;
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

  /// Expected-in-system cost of giving `m` consumers to task type `j` at
  /// the current arrival-rate estimates (exposed for tests).
  double cost(std::size_t j, int m) const;

 private:
  DrsConfig config_;
  std::vector<double> service_rates_;  // mu_j = 1 / mean service time
  std::vector<Ewma> arrival_rate_;     // lambda_j estimates (req/s)
  // decide() scratch: marginal gains cost(j, m) - cost(j, m + 1), and
  // cost(j, m + 1), at each queue's current allocation m.
  std::vector<double> gains_;
  std::vector<double> next_costs_;
};

}  // namespace miras::baselines
