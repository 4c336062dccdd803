// Property-based tests of the emulator's global invariants, swept across
// seeds, ensembles, and random allocation sequences.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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

// Bitwise equality: == would let -0.0 match 0.0.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

void expect_same_window(const WindowStats& a, const WindowStats& b, int k) {
  EXPECT_TRUE(same_bits(a.wip, b.wip)) << "window " << k;
  EXPECT_TRUE(same_bits(a.reward, b.reward)) << "window " << k;
  EXPECT_EQ(a.arrivals, b.arrivals) << "window " << k;
  EXPECT_EQ(a.completed, b.completed) << "window " << k;
  EXPECT_TRUE(same_bits(a.mean_response_time, b.mean_response_time))
      << "window " << k;
  EXPECT_TRUE(
      same_bits(a.overall_mean_response_time, b.overall_mean_response_time))
      << "window " << k;
  EXPECT_EQ(a.task_arrivals, b.task_arrivals) << "window " << k;
  EXPECT_EQ(a.task_completions, b.task_completions) << "window " << k;
  EXPECT_EQ(a.allocation, b.allocation) << "window " << k;
}

TEST_P(SystemPropertyTest, ConservationHoldsEveryWindow) {
  MicroserviceSystem system = make_system(GetParam());
  Rng rng(GetParam().seed ^ 0xabcdef);
  system.reset();
  system.inject_burst(
      BurstSpec{std::vector<std::size_t>(system.ensemble().num_workflows(), 5)});
  WindowStats window;
  for (int k = 0; k < 40; ++k) {
    system.step(random_allocation(rng, system.action_dim(),
                                  system.consumer_budget()),
                window);
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
  WindowStats window;
  for (int k = 0; k < 30; ++k) {
    system.step(random_allocation(rng, system.action_dim(),
                                  system.consumer_budget()),
                window);
    for (const double w : window.wip) {
      EXPECT_GE(w, 0.0);
      EXPECT_TRUE(std::isfinite(w));
    }
    EXPECT_TRUE(std::isfinite(window.reward));
  }
}

TEST_P(SystemPropertyTest, IdenticalSeedsGiveIdenticalTrajectories) {
  MicroserviceSystem a = make_system(GetParam());
  MicroserviceSystem b = make_system(GetParam());
  Rng rng_a(99), rng_b(99);
  a.reset();
  b.reset();
  WindowStats ra, rb;
  for (int k = 0; k < 20; ++k) {
    const auto alloc_a =
        random_allocation(rng_a, a.action_dim(), a.consumer_budget());
    const auto alloc_b =
        random_allocation(rng_b, b.action_dim(), b.consumer_budget());
    ASSERT_EQ(alloc_a, alloc_b);
    a.step(alloc_a, ra);
    b.step(alloc_b, rb);
    EXPECT_EQ(ra.wip, rb.wip);
    EXPECT_DOUBLE_EQ(ra.reward, rb.reward);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.task_arrivals, rb.task_arrivals);
  }
}

TEST_P(SystemPropertyTest, ResetIsReproducible) {
  // After reset() the system must behave as a fresh system with the
  // post-reset RNG state; two resets of the same system with the same
  // subsequent allocations stay internally consistent (no stale events).
  MicroserviceSystem system = make_system(GetParam());
  system.reset();
  WindowStats window;
  for (int k = 0; k < 5; ++k)
    system.step(std::vector<int>(system.action_dim(), 1), window);
  const auto state = system.reset();
  for (const double w : state) EXPECT_DOUBLE_EQ(w, 0.0);
  EXPECT_EQ(system.live_tasks(), 0u);
  // Events from before the reset must not fire afterwards: run a window
  // with zero consumers; the only WIP must come from fresh arrivals, and
  // completions must be zero.
  system.step(std::vector<int>(system.action_dim(), 0), window);
  EXPECT_EQ(system.counters().tasks_completed, 0u);
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
  WindowStats ra, rb;
  for (int k = 0; k < 8; ++k)  // dirty the slab, rings, heap, and counters
    reused.step(random_allocation(warm_rng, reused.action_dim(),
                                  reused.consumer_budget()),
                rb);
  reused.reseed(param.seed);

  // Both now replay the factory path: reset() then identical allocations.
  EXPECT_EQ(fresh.reset(), reused.reset());
  Rng rng_a(param.seed ^ 0x77), rng_b(param.seed ^ 0x77);
  for (int k = 0; k < 15; ++k) {
    const auto alloc = random_allocation(rng_a, fresh.action_dim(),
                                         fresh.consumer_budget());
    ASSERT_EQ(alloc, random_allocation(rng_b, reused.action_dim(),
                                       reused.consumer_budget()));
    fresh.step(alloc, ra);
    reused.step(alloc, rb);
    EXPECT_EQ(ra.wip, rb.wip);
    EXPECT_EQ(ra.reward, rb.reward);  // exact bits, not near-equality
    EXPECT_EQ(ra.arrivals, rb.arrivals);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_EQ(ra.mean_response_time, rb.mean_response_time);
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
  WindowStats window;
  for (int k = 0; k < 30; ++k) {
    starved.step(std::vector<int>(j_count, 0), window);
    rich.step(std::vector<int>(
                  j_count, rich.consumer_budget() / static_cast<int>(j_count)),
              window);
  }
  EXPECT_GE(rich.counters().workflows_completed,
            starved.counters().workflows_completed);
  EXPECT_EQ(starved.counters().workflows_completed, 0u);
}

TEST_P(SystemPropertyTest, ReusedRecordMatchesFreshRecord) {
  // step() overwrites every field of the caller's record: stepping into one
  // reused record equals stepping into a fresh one each window, bit for
  // bit. A burst drains under an even split, then the consumers go, so a
  // window with completions is followed by windows without any — where a
  // stale per-type or overall mean response time would survive.
  const PropertyCase param = GetParam();
  MicroserviceSystem fresh_system = make_system(param);
  MicroserviceSystem reused_system = make_system(param);
  const BurstSpec burst{
      std::vector<std::size_t>(fresh_system.ensemble().num_workflows(), 20)};
  for (MicroserviceSystem* system : {&fresh_system, &reused_system}) {
    system->reset();
    system->inject_burst(burst);
  }
  const std::size_t j_count = fresh_system.action_dim();
  const std::vector<int> drain(
      j_count, fresh_system.consumer_budget() / static_cast<int>(j_count));
  const std::vector<int> idle(j_count, 0);

  // Start from a record of the wrong shape and stale values throughout.
  WindowStats reused;
  reused.wip.assign(j_count + 3, -1.0);
  reused.reward = -1.0;
  reused.arrivals.assign(11, 7);
  reused.completed.assign(11, 7);
  reused.mean_response_time.assign(11, 123.0);
  reused.overall_mean_response_time = 123.0;
  reused.task_arrivals.assign(1, 7);
  reused.task_completions.assign(1, 7);
  reused.allocation.assign(2, 7);

  bool completions_then_none = false;
  std::size_t previous_completed = 0;
  for (int k = 0; k < 14; ++k) {
    const std::vector<int>& allocation = k < 10 ? drain : idle;
    WindowStats fresh;
    fresh_system.step(allocation, fresh);
    reused_system.step(allocation, reused);
    expect_same_window(fresh, reused, k);
    std::size_t completed = 0;
    for (const std::size_t c : fresh.completed) completed += c;
    completions_then_none =
        completions_then_none || (previous_completed > 0 && completed == 0);
    previous_completed = completed;
  }
  EXPECT_TRUE(completions_then_none);
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
