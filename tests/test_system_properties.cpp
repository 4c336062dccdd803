// Property-based tests of the emulator's global invariants, swept across
// seeds, ensembles, and random allocation sequences.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "rl/action.h"
#include "sim/system.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras::sim {
namespace {

struct PropertyCase {
  std::uint64_t seed;
  bool use_ligo;
};

class SystemPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  static MicroserviceSystem make_system(const PropertyCase& param) {
    SystemConfig config;
    config.seed = param.seed;
    config.consumer_budget = param.use_ligo ? workflows::kLigoConsumerBudget
                                            : workflows::kMsdConsumerBudget;
    if (param.use_ligo)
      return MicroserviceSystem(workflows::make_ligo_ensemble(), config);
    return MicroserviceSystem(workflows::make_msd_ensemble(), config);
  }

  static std::vector<int> random_allocation(Rng& rng, std::size_t j_count,
                                            int budget) {
    std::vector<double> weights(j_count);
    for (double& w : weights) w = rng.exponential(1.0);
    return rl::allocation_from_weights(weights, budget,
                                       rl::RoundingMode::kLargestRemainder);
  }
};

TEST_P(SystemPropertyTest, ConservationHoldsEveryWindow) {
  MicroserviceSystem system = make_system(GetParam());
  Rng rng(GetParam().seed ^ 0xabcdef);
  system.reset();
  system.inject_burst(
      BurstSpec{std::vector<std::size_t>(system.ensemble().num_workflows(), 5)});
  for (int k = 0; k < 40; ++k) {
    (void)system.step(random_allocation(rng, system.action_dim(),
                                        system.consumer_budget()));
    // Every enqueued task is either live (queued/in service) or completed.
    EXPECT_EQ(system.counters().tasks_enqueued,
              system.counters().tasks_completed + system.live_tasks());
    // Workflows never complete more often than they arrive.
    EXPECT_LE(system.counters().workflows_completed,
              system.counters().workflows_arrived);
  }
}

TEST_P(SystemPropertyTest, WipNonNegativeAndFinite) {
  MicroserviceSystem system = make_system(GetParam());
  Rng rng(GetParam().seed ^ 0x123456);
  system.reset();
  for (int k = 0; k < 30; ++k) {
    const StepResult result = system.step(random_allocation(
        rng, system.action_dim(), system.consumer_budget()));
    for (const double w : result.state) {
      EXPECT_GE(w, 0.0);
      EXPECT_TRUE(std::isfinite(w));
    }
    EXPECT_TRUE(std::isfinite(result.reward));
  }
}

TEST_P(SystemPropertyTest, IdenticalSeedsGiveIdenticalTrajectories) {
  MicroserviceSystem a = make_system(GetParam());
  MicroserviceSystem b = make_system(GetParam());
  Rng rng_a(99), rng_b(99);
  a.reset();
  b.reset();
  for (int k = 0; k < 20; ++k) {
    const auto alloc_a =
        random_allocation(rng_a, a.action_dim(), a.consumer_budget());
    const auto alloc_b =
        random_allocation(rng_b, b.action_dim(), b.consumer_budget());
    ASSERT_EQ(alloc_a, alloc_b);
    const StepResult ra = a.step(alloc_a);
    const StepResult rb = b.step(alloc_b);
    EXPECT_EQ(ra.state, rb.state);
    EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
    EXPECT_EQ(ra.stats.completed, rb.stats.completed);
    EXPECT_EQ(ra.stats.task_arrivals, rb.stats.task_arrivals);
  }
}

TEST_P(SystemPropertyTest, ResetIsReproducible) {
  // After reset() the system must behave as a fresh system with the
  // post-reset RNG state; two resets of the same system with the same
  // subsequent allocations stay internally consistent (no stale events).
  MicroserviceSystem system = make_system(GetParam());
  system.reset();
  for (int k = 0; k < 5; ++k) (void)system.step(
      std::vector<int>(system.action_dim(), 1));
  const auto state = system.reset();
  for (const double w : state) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_EQ(system.live_tasks(), 0u);
  // Events from before the reset must not fire afterwards: run a window
  // with zero consumers; the only WIP must come from fresh arrivals, and
  // completions must be zero.
  const StepResult result =
      system.step(std::vector<int>(system.action_dim(), 0));
  EXPECT_EQ(system.counters().tasks_completed, 0u);
  (void)result;
}

TEST_P(SystemPropertyTest, ReseedMatchesFreshConstruction) {
  // reseed(s) must leave a (possibly well-used) system bit-identical to a
  // freshly constructed one with master seed s — the contract the pooled
  // parallel layers (EvaluationHarness, MirasAgent) rely on to reuse
  // environments across cells/episodes.
  const PropertyCase param = GetParam();
  MicroserviceSystem fresh = make_system(param);

  PropertyCase other = param;
  other.seed = param.seed + 1000;  // construct with a *different* seed
  MicroserviceSystem reused = make_system(other);
  Rng warm_rng(7);
  reused.reset();
  for (int k = 0; k < 8; ++k)  // dirty the slab, rings, heap, and counters
    (void)reused.step(random_allocation(warm_rng, reused.action_dim(),
                                        reused.consumer_budget()));
  reused.reseed(param.seed);

  // Both now replay the factory path: reset() then identical allocations.
  EXPECT_EQ(fresh.reset(), reused.reset());
  Rng rng_a(param.seed ^ 0x77), rng_b(param.seed ^ 0x77);
  for (int k = 0; k < 15; ++k) {
    const auto alloc = random_allocation(rng_a, fresh.action_dim(),
                                         fresh.consumer_budget());
    ASSERT_EQ(alloc, random_allocation(rng_b, reused.action_dim(),
                                       reused.consumer_budget()));
    const StepResult ra = fresh.step(alloc);
    const StepResult rb = reused.step(alloc);
    EXPECT_EQ(ra.state, rb.state);
    EXPECT_EQ(ra.reward, rb.reward);  // exact bits, not near-equality
    EXPECT_EQ(ra.stats.arrivals, rb.stats.arrivals);
    EXPECT_EQ(ra.stats.completed, rb.stats.completed);
    EXPECT_EQ(ra.stats.mean_response_time, rb.stats.mean_response_time);
  }
  EXPECT_EQ(fresh.counters().workflows_arrived,
            reused.counters().workflows_arrived);
  EXPECT_EQ(fresh.counters().tasks_completed,
            reused.counters().tasks_completed);
}

TEST_P(SystemPropertyTest, MoreConsumersNeverHurtThroughputOnAverage) {
  // Run the same seed with budget-starved vs budget-rich uniform
  // allocations; the rich system must complete at least as many workflows.
  const PropertyCase param = GetParam();
  MicroserviceSystem starved = make_system(param);
  MicroserviceSystem rich = make_system(param);
  starved.reset();
  rich.reset();
  const std::size_t j_count = starved.action_dim();
  for (int k = 0; k < 30; ++k) {
    (void)starved.step(std::vector<int>(j_count, 0));
    (void)rich.step(std::vector<int>(
        j_count, rich.consumer_budget() / static_cast<int>(j_count)));
  }
  EXPECT_GE(rich.counters().workflows_completed,
            starved.counters().workflows_completed);
  EXPECT_EQ(starved.counters().workflows_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEnsembles, SystemPropertyTest,
    ::testing::Values(PropertyCase{1, false}, PropertyCase{2, false},
                      PropertyCase{3, false}, PropertyCase{4, true},
                      PropertyCase{5, true}, PropertyCase{6, true},
                      PropertyCase{7, false}, PropertyCase{8, true}),
    [](const auto& info) {
      return (info.param.use_ligo ? std::string("ligo_seed") : "msd_seed") +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace miras::sim
