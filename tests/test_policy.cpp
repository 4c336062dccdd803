#include "rl/policy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"

#include "common/contracts.h"
#include "core/miras_agent.h"
#include "rl/action.h"
#include "rl/ddpg.h"

namespace miras {
namespace {

TEST(InitialWindowStats, ShapesAndZeroHistory) {
  const auto stats = rl::initial_window_stats({1.0, 2.0, 3.0}, 2, 3);
  EXPECT_EQ(stats.wip, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_DOUBLE_EQ(stats.reward, 1.0 - 6.0);
  EXPECT_EQ(stats.completed, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(stats.mean_response_time, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(stats.task_arrivals, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(stats.task_completions, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(stats.allocation, (std::vector<int>{0, 0, 0}));
}

rl::DdpgConfig tiny_config() {
  rl::DdpgConfig config;
  config.actor_hidden = {8, 8};
  config.critic_hidden = {8, 8};
  config.seed = 2;
  return config;
}

TEST(DdpgPolicy, NameAndBudgetChecked) {
  rl::DdpgAgent agent(2, 2, 10, tiny_config());
  core::DdpgPolicy policy(&agent, "miras");
  EXPECT_EQ(policy.name(), "miras");
  const auto stats = rl::initial_window_stats({3.0, 4.0}, 1, 2);
  EXPECT_THROW(policy.decide(stats, 99), ContractViolation);  // wrong budget
  const auto alloc = policy.decide(stats, 10);
  EXPECT_TRUE(rl::satisfies_budget(alloc, 10));
}

TEST(DdpgPolicy, IsGreedyAndDeterministic) {
  rl::DdpgAgent agent(2, 2, 10, tiny_config());
  core::DdpgPolicy policy(&agent, "p");
  const auto stats = rl::initial_window_stats({5.0, 1.0}, 1, 2);
  const auto a = policy.decide(stats, 10);
  const auto b = policy.decide(stats, 10);
  EXPECT_EQ(a, b);
  // Matches the agent's own greedy action.
  EXPECT_EQ(a, agent.act_allocation({5.0, 1.0}, /*explore=*/false));
}

TEST(DdpgPolicy, RespectsMinimumAllocationGuardrail) {
  rl::DdpgConfig config = tiny_config();
  config.min_consumers_per_type = 1;
  rl::DdpgAgent agent(3, 3, 9, config);
  core::DdpgPolicy policy(&agent, "p");
  const auto stats = rl::initial_window_stats({100.0, 0.0, 0.0}, 1, 3);
  const auto alloc = policy.decide(stats, 9);
  for (const int m : alloc) EXPECT_GE(m, 1);
}

TEST(DdpgPolicy, ReusedScratchMatchesFreshGreedyPathBitwise) {
  // One policy (and so one scratch) decides 200 states whose magnitudes
  // span 0 to 1e4; every decision must match the allocating greedy path,
  // and the scratch path's weights must match act_greedy bit for bit.
  constexpr std::size_t kDim = 9;
  constexpr int kBudget = 30;
  rl::DdpgConfig config = tiny_config();
  config.actor_hidden = {16, 16};
  rl::DdpgAgent agent(kDim, kDim, kBudget, config);
  Rng rng(404);
  auto random_state = [&](double magnitude) {
    std::vector<double> state(kDim);
    for (double& w : state)
      w = rng.uniform() < 0.2 ? 0.0 : std::floor(rng.uniform() * magnitude);
    return state;
  };
  // Non-trivial normaliser statistics, so the resolved map is not identity.
  const std::vector<double> action(kDim, 1.0 / kDim);
  for (int k = 0; k < 8; ++k)
    agent.observe(random_state(100.0), action, -1.0, random_state(100.0));

  core::DdpgPolicy policy(&agent, "p");
  rl::DecisionScratch scratch;
  std::vector<double> weights;
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> state =
        random_state(std::pow(10.0, 4.0 * i / 199.0));
    const auto stats = rl::initial_window_stats(state, 1, kDim);
    EXPECT_EQ(policy.decide(stats, kBudget),
              agent.act_allocation_greedy(state))
        << "state " << i;
    agent.act_greedy(state, scratch, weights);
    const std::vector<double> fresh = agent.act_greedy(state);
    ASSERT_EQ(weights.size(), fresh.size());
    for (std::size_t j = 0; j < kDim; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(weights[j]),
                std::bit_cast<std::uint64_t>(fresh[j]))
          << "state " << i << " weight " << j;
  }
}

TEST(DdpgPolicy, NullAgentRejected) {
  EXPECT_THROW(core::DdpgPolicy(nullptr, "x"), ContractViolation);
}

}  // namespace
}  // namespace miras
