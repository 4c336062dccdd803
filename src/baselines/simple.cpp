#include "baselines/simple.h"

#include "common/contracts.h"
#include "rl/action.h"

namespace miras::baselines {

UniformPolicy::UniformPolicy(std::size_t num_task_types)
    : num_task_types_(num_task_types) {
  MIRAS_EXPECTS(num_task_types > 0);
}

std::vector<int> UniformPolicy::decide(const sim::WindowStats& /*last_window*/,
                                       int budget) {
  std::vector<int> allocation(num_task_types_,
                              budget / static_cast<int>(num_task_types_));
  int leftover = budget % static_cast<int>(num_task_types_);
  for (std::size_t j = 0; leftover > 0; ++j, --leftover) ++allocation[j];
  return allocation;
}

ProportionalPolicy::ProportionalPolicy(std::size_t num_task_types)
    : num_task_types_(num_task_types) {
  MIRAS_EXPECTS(num_task_types > 0);
}

std::vector<int> ProportionalPolicy::decide(
    const sim::WindowStats& last_window, int budget) {
  MIRAS_EXPECTS(last_window.wip.size() == num_task_types_);
  return rl::allocation_from_weights(last_window.wip, budget,
                                     rl::RoundingMode::kLargestRemainder);
}

RandomPolicy::RandomPolicy(std::size_t num_task_types, std::uint64_t seed)
    : num_task_types_(num_task_types), rng_(seed) {
  MIRAS_EXPECTS(num_task_types > 0);
}

std::vector<double> RandomPolicy::random_weights() {
  return rl::uniform_simplex_weights(num_task_types_, rng_);
}

std::vector<int> RandomPolicy::decide(const sim::WindowStats& /*last_window*/,
                                      int budget) {
  return rl::allocation_from_weights(random_weights(), budget,
                                     rl::RoundingMode::kLargestRemainder);
}

StaticPolicy::StaticPolicy(std::vector<int> allocation)
    : allocation_(std::move(allocation)) {
  MIRAS_EXPECTS(!allocation_.empty());
}

std::vector<int> StaticPolicy::decide(const sim::WindowStats& /*last_window*/,
                                      int budget) {
  MIRAS_EXPECTS(rl::satisfies_budget(allocation_, budget));
  return allocation_;
}

}  // namespace miras::baselines
