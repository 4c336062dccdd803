#include "workflows/service_time.h"

#include <cmath>

#include "common/contracts.h"

namespace miras::workflows {

ServiceTimeModel::ServiceTimeModel(Kind kind, double mean, double cv)
    : kind_(kind), mean_(mean), cv_(cv) {
  MIRAS_EXPECTS(mean > 0.0);
  MIRAS_EXPECTS(cv >= 0.0);
  if (kind_ == Kind::kLognormal) {
    // E[X] = exp(mu + sigma^2/2), CV^2 = exp(sigma^2) - 1.
    log_sigma_ = std::sqrt(std::log(1.0 + cv * cv));
    log_mu_ = std::log(mean) - 0.5 * log_sigma_ * log_sigma_;
  }
}

ServiceTimeModel ServiceTimeModel::deterministic(double mean) {
  return {Kind::kDeterministic, mean, 0.0};
}

ServiceTimeModel ServiceTimeModel::exponential(double mean) {
  return {Kind::kExponential, mean, 1.0};
}

ServiceTimeModel ServiceTimeModel::lognormal(double mean, double cv) {
  return {Kind::kLognormal, mean, cv};
}

}  // namespace miras::workflows
