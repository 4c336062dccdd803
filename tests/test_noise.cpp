#include "rl/noise.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.h"
#include "common/stats.h"

namespace miras::rl {
namespace {

TEST(GaussianActionNoise, ZeroStddevIsIdentity) {
  GaussianActionNoise noise(0.0);
  Rng rng(1);
  const std::vector<double> action{0.2, 0.5, 0.3};
  EXPECT_EQ(noise.apply(action, rng), action);
}

TEST(GaussianActionNoise, OutputClippedToUnitInterval) {
  GaussianActionNoise noise(5.0);  // huge noise
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto noisy = noise.apply({0.5, 0.5}, rng);
    for (const double a : noisy) {
      EXPECT_GE(a, 0.0);
      EXPECT_LE(a, 1.0);
    }
  }
}

TEST(GaussianActionNoise, DoesNotRenormalise) {
  // The whole point of the ablation: perturbed weights may leave the
  // simplex (sum != 1).
  GaussianActionNoise noise(0.3);
  Rng rng(3);
  int off_simplex = 0;
  for (int i = 0; i < 100; ++i) {
    const auto noisy = noise.apply({0.34, 0.33, 0.33}, rng);
    if (std::abs(sum_of(noisy) - 1.0) > 0.05) ++off_simplex;
  }
  EXPECT_GT(off_simplex, 50);
}

TEST(GaussianActionNoise, PerturbationScaleMatchesStddev) {
  GaussianActionNoise noise(0.05);
  Rng rng(4);
  RunningStats deltas;
  for (int i = 0; i < 5000; ++i) {
    const auto noisy = noise.apply({0.5}, rng);
    deltas.add(noisy[0] - 0.5);
  }
  EXPECT_NEAR(deltas.stddev(), 0.05, 0.005);
  EXPECT_NEAR(deltas.mean(), 0.0, 0.005);
}

TEST(GaussianActionNoise, NegativeStddevRejected) {
  EXPECT_THROW(GaussianActionNoise(-0.1), ContractViolation);
}

TEST(AdaptiveParameterNoise, GrowsWhenDistanceBelowTarget) {
  AdaptiveParameterNoise noise(0.1, 0.2);
  noise.adapt(0.05);  // measured < target -> widen exploration
  EXPECT_GT(noise.stddev(), 0.1);
}

TEST(AdaptiveParameterNoise, ShrinksWhenDistanceAboveTarget) {
  AdaptiveParameterNoise noise(0.1, 0.2);
  noise.adapt(0.5);
  EXPECT_LT(noise.stddev(), 0.1);
}

TEST(AdaptiveParameterNoise, ConvergesTowardTargetUnderProportionalFeedback) {
  // If the induced distance is proportional to sigma (distance = 2 sigma),
  // adaptation should settle sigma near target/2.
  AdaptiveParameterNoise noise(1.0, 0.2);
  for (int i = 0; i < 500; ++i) noise.adapt(2.0 * noise.stddev());
  EXPECT_NEAR(noise.stddev(), 0.1, 0.02);
}

TEST(AdaptiveParameterNoise, InvalidParameters) {
  EXPECT_THROW(AdaptiveParameterNoise(0.0, 0.1), ContractViolation);
  EXPECT_THROW(AdaptiveParameterNoise(0.1, 0.0), ContractViolation);
  EXPECT_THROW(AdaptiveParameterNoise(0.1, 0.1, 1.0), ContractViolation);
}

TEST(AdaptiveParameterNoise, NegativeDistanceRejected) {
  AdaptiveParameterNoise noise(0.1, 0.2);
  EXPECT_THROW(noise.adapt(-1.0), ContractViolation);
}

}  // namespace
}  // namespace miras::rl
