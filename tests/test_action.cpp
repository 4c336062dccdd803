#include "rl/action.h"

#include <gtest/gtest.h>

#include <numeric>

#include "common/contracts.h"
#include "common/rng.h"

namespace miras::rl {
namespace {

int total(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

TEST(Action, FloorMatchesPaperFormula) {
  // m_j = floor(C * a_j), §IV-D.
  const auto alloc =
      allocation_from_weights({0.5, 0.3, 0.2}, 10, RoundingMode::kFloor);
  EXPECT_EQ(alloc, (std::vector<int>{5, 3, 2}));
}

TEST(Action, FloorStrandsFractionalConsumers) {
  const auto alloc =
      allocation_from_weights({0.33, 0.33, 0.34}, 10, RoundingMode::kFloor);
  EXPECT_EQ(alloc, (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(total(alloc), 9);  // one consumer stranded, sum < C
}

TEST(Action, LargestRemainderUsesExactBudget) {
  const auto alloc = allocation_from_weights({0.33, 0.33, 0.34}, 10,
                                             RoundingMode::kLargestRemainder);
  EXPECT_EQ(total(alloc), 10);
  EXPECT_EQ(alloc[2], 4);  // largest fraction gets the leftover
}

TEST(Action, UnnormalisedWeightsAreNormalised) {
  const auto a =
      allocation_from_weights({5.0, 3.0, 2.0}, 10, RoundingMode::kFloor);
  const auto b =
      allocation_from_weights({0.5, 0.3, 0.2}, 10, RoundingMode::kFloor);
  EXPECT_EQ(a, b);
}

TEST(Action, ZeroWeightsFallBackToUniform) {
  const auto alloc = allocation_from_weights({0.0, 0.0, 0.0, 0.0}, 8,
                                             RoundingMode::kLargestRemainder);
  EXPECT_EQ(alloc, (std::vector<int>{2, 2, 2, 2}));
}

TEST(Action, SingleTypeGetsWholeBudget) {
  const auto alloc =
      allocation_from_weights({1.0}, 7, RoundingMode::kFloor);
  EXPECT_EQ(alloc, (std::vector<int>{7}));
}

TEST(Action, NegativeWeightRejected) {
  EXPECT_THROW(allocation_from_weights({0.5, -0.1}, 10, RoundingMode::kFloor),
               ContractViolation);
}

TEST(Action, EmptyWeightsRejected) {
  EXPECT_THROW(allocation_from_weights({}, 10, RoundingMode::kFloor),
               ContractViolation);
  EXPECT_THROW(allocation_from_weights({0.5}, 0, RoundingMode::kFloor),
               ContractViolation);
}

TEST(Action, WeightsFromAllocationInverse) {
  // Weights w_j = m_j / C map back to exactly the allocation m.
  EXPECT_EQ(allocation_from_weights({0.5, 0.3, 0.2}, 10, RoundingMode::kFloor),
            (std::vector<int>{5, 3, 2}));
}

TEST(Action, SatisfiesBudgetChecks) {
  EXPECT_TRUE(satisfies_budget({1, 2, 3}, 6));
  EXPECT_TRUE(satisfies_budget({1, 2, 3}, 10));
  EXPECT_FALSE(satisfies_budget({4, 4}, 7));
  EXPECT_FALSE(satisfies_budget({-1, 2}, 10));
  EXPECT_TRUE(satisfies_budget({}, 5));
}

// Property sweep: for random weights, both rounding modes always satisfy
// the budget, never produce negatives, and largest-remainder is exact.
class ActionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ActionProperty, InvariantsHoldForRandomWeights) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const auto j_count = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const int budget = static_cast<int>(rng.uniform_int(1, 40));
    std::vector<double> weights(j_count);
    for (double& w : weights) w = rng.uniform() < 0.2 ? 0.0 : rng.exponential(1.0);

    const auto floor_alloc =
        allocation_from_weights(weights, budget, RoundingMode::kFloor);
    EXPECT_TRUE(satisfies_budget(floor_alloc, budget));

    const auto exact_alloc = allocation_from_weights(
        weights, budget, RoundingMode::kLargestRemainder);
    EXPECT_TRUE(satisfies_budget(exact_alloc, budget));
    EXPECT_EQ(total(exact_alloc), budget);

    // Largest-remainder never gives any type less than floor does.
    for (std::size_t j = 0; j < j_count; ++j)
      EXPECT_GE(exact_alloc[j], floor_alloc[j]);
  }
}

TEST_P(ActionProperty, MonotoneInWeight) {
  // Raising one type's weight (others fixed) never lowers its allocation.
  Rng rng(GetParam() ^ 0x5555);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> weights(4);
    for (double& w : weights) w = rng.exponential(1.0);
    const int budget = 20;
    const auto base = allocation_from_weights(weights, budget,
                                              RoundingMode::kLargestRemainder);
    std::vector<double> boosted = weights;
    boosted[1] *= 3.0;
    const auto after = allocation_from_weights(boosted, budget,
                                               RoundingMode::kLargestRemainder);
    EXPECT_GE(after[1], base[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActionProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(MinimumAllocation, TopsUpFromSpareBudget) {
  std::vector<int> alloc{5, 0, 0};  // total 5, budget 9: spare available
  enforce_minimum_allocation(alloc, 1, 9);
  EXPECT_EQ(alloc, (std::vector<int>{5, 1, 1}));
}

TEST(MinimumAllocation, TakesFromRichestWhenBudgetExhausted) {
  std::vector<int> alloc{8, 1, 0};  // total 9 == budget
  enforce_minimum_allocation(alloc, 1, 9);
  EXPECT_EQ(alloc, (std::vector<int>{7, 1, 1}));
}

TEST(MinimumAllocation, NoopWhenAlreadySatisfied) {
  std::vector<int> alloc{3, 3, 3};
  enforce_minimum_allocation(alloc, 1, 9);
  EXPECT_EQ(alloc, (std::vector<int>{3, 3, 3}));
}

TEST(MinimumAllocation, ZeroMinimumIsNoop) {
  std::vector<int> alloc{9, 0, 0};
  enforce_minimum_allocation(alloc, 0, 9);
  EXPECT_EQ(alloc, (std::vector<int>{9, 0, 0}));
}

TEST(MinimumAllocation, BudgetTooSmallRejected) {
  std::vector<int> alloc{1, 1, 1};
  EXPECT_THROW(enforce_minimum_allocation(alloc, 2, 5), ContractViolation);
}

TEST(MinimumAllocation, PreservesBudgetProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto j_count = static_cast<std::size_t>(rng.uniform_int(1, 9));
    const int budget =
        static_cast<int>(rng.uniform_int(static_cast<int>(j_count), 40));
    std::vector<double> weights(j_count);
    for (double& w : weights) w = rng.exponential(1.0);
    auto alloc =
        allocation_from_weights(weights, budget, RoundingMode::kFloor);
    enforce_minimum_allocation(alloc, 1, budget);
    EXPECT_TRUE(satisfies_budget(alloc, budget));
    for (const int m : alloc) EXPECT_GE(m, 1);
  }
}

}  // namespace
}  // namespace miras::rl
