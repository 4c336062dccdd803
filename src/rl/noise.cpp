#include "rl/noise.h"

#include <algorithm>

#include "common/contracts.h"

namespace miras::rl {

GaussianActionNoise::GaussianActionNoise(double stddev) : stddev_(stddev) {
  MIRAS_EXPECTS(stddev >= 0.0);
}

std::vector<double> GaussianActionNoise::apply(
    const std::vector<double>& action, Rng& rng) const {
  std::vector<double> noisy = action;
  for (double& a : noisy)
    a = std::clamp(a + rng.normal(0.0, stddev_), 0.0, 1.0);
  return noisy;
}

AdaptiveParameterNoise::AdaptiveParameterNoise(double initial_stddev,
                                               double target_distance,
                                               double adaptation)
    : stddev_(initial_stddev),
      target_distance_(target_distance),
      adaptation_(adaptation) {
  MIRAS_EXPECTS(initial_stddev > 0.0);
  MIRAS_EXPECTS(target_distance > 0.0);
  MIRAS_EXPECTS(adaptation > 1.0);
}

void AdaptiveParameterNoise::set_stddev(double stddev) {
  MIRAS_EXPECTS(stddev > 0.0);
  stddev_ = stddev;
}

void AdaptiveParameterNoise::adapt(double measured_distance) {
  MIRAS_EXPECTS(measured_distance >= 0.0);
  if (measured_distance > target_distance_) {
    stddev_ /= adaptation_;
  } else {
    stddev_ *= adaptation_;
  }
}

}  // namespace miras::rl
