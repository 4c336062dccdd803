// Per-task service-time models. The paper notes that "the processing time of
// each microservice is not fixed, due to variant sizes of input data"
// (§II-C); we model that with deterministic, exponential, or lognormal
// distributions parameterised by mean and coefficient of variation.
#pragma once

#include "common/rng.h"

namespace miras::workflows {

class ServiceTimeModel {
 public:
  enum class Kind { kDeterministic, kExponential, kLognormal };

  /// Always exactly `mean` seconds. Requires mean > 0.
  static ServiceTimeModel deterministic(double mean);

  /// Exponential with the given mean (> 0).
  static ServiceTimeModel exponential(double mean);

  /// Lognormal with the given mean (> 0) and coefficient of variation
  /// (>= 0); this is the default for scientific image-processing tasks whose
  /// run time scales with input size.
  static ServiceTimeModel lognormal(double mean, double cv);

  Kind kind() const { return kind_; }
  double mean() const { return mean_; }
  double cv() const { return cv_; }

  /// Draws one service time (always > 0). Inline: the simulator calls it
  /// once per task dispatch.
  double sample(Rng& rng) const {
    switch (kind_) {
      case Kind::kDeterministic:
        return mean_;
      case Kind::kExponential:
        return rng.exponential(1.0 / mean_);
      case Kind::kLognormal:
        return rng.lognormal(log_mu_, log_sigma_);
    }
    return mean_;
  }

 private:
  ServiceTimeModel(Kind kind, double mean, double cv);

  Kind kind_;
  double mean_;
  double cv_;
  // Precomputed lognormal parameters.
  double log_mu_ = 0.0;
  double log_sigma_ = 0.0;
};

}  // namespace miras::workflows
