// Exploration noise.
//
// MIRAS explores with adaptive *parameter-space* noise (Plappert et al.,
// ICLR 2018; paper §IV-D): a perturbed copy of the actor's weights drives
// exploration, and the perturbation scale sigma adapts so that the induced
// action-space distance tracks a target delta. Gaussian action-space noise
// is provided for the ablation that shows why action noise breaks the
// consumer-budget constraint.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace miras::rl {

/// Additive Gaussian action noise (no renormalisation — deliberately, so
/// the constraint-violation ablation can observe raw perturbed weights).
class GaussianActionNoise {
 public:
  explicit GaussianActionNoise(double stddev);

  /// Returns action + N(0, stddev) per element, clipped to [0, 1].
  /// Note the result is NOT renormalised to the simplex.
  std::vector<double> apply(const std::vector<double>& action, Rng& rng) const;

  double stddev() const { return stddev_; }

 private:
  double stddev_;
};

/// Adaptive scale controller for parameter-space noise. The owner measures
/// the action-space distance between the clean and the perturbed policy on
/// a batch of states and calls adapt(); sigma is multiplied or divided by
/// the adaptation coefficient to steer the distance toward the target.
class AdaptiveParameterNoise {
 public:
  AdaptiveParameterNoise(double initial_stddev, double target_distance,
                         double adaptation = 1.01);

  double stddev() const { return stddev_; }
  double target_distance() const { return target_distance_; }

  /// `measured_distance` is the mean L2 action distance between the clean
  /// and perturbed policies.
  void adapt(double measured_distance);

  /// Restores a previously observed sigma (checkpoint resume). Must be
  /// positive.
  void set_stddev(double stddev);

 private:
  double stddev_;
  double target_distance_;
  double adaptation_;
};

}  // namespace miras::rl
