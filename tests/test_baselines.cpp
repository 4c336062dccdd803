#include <gtest/gtest.h>

#include <numeric>

#include "baselines/drs.h"
#include "baselines/heft.h"
#include "baselines/monad.h"
#include "baselines/queueing.h"
#include "baselines/simple.h"
#include "common/contracts.h"
#include "common/rng.h"
#include "rl/action.h"
#include "workflows/generated.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras::baselines {
namespace {

int total(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

sim::WindowStats stats_with(const std::vector<double>& wip,
                            const std::vector<std::size_t>& task_arrivals,
                            std::size_t num_workflows) {
  sim::WindowStats stats = rl::initial_window_stats(
      wip, num_workflows, wip.size());
  stats.task_arrivals = task_arrivals;
  return stats;
}

// ---------------------------------------------------------------- queueing
TEST(ErlangC, NoWaitWithoutLoad) {
  EXPECT_DOUBLE_EQ(erlang_c_wait_probability(0.0, 1.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(mmc_expected_in_system(0.0, 1.0, 3), 0.0);
}

TEST(ErlangC, SingleServerMatchesMM1) {
  // For M/M/1, P(wait) = rho and L = rho / (1 - rho).
  const double lambda = 0.6, mu = 1.0;
  EXPECT_NEAR(erlang_c_wait_probability(lambda, mu, 1), 0.6, 1e-12);
  EXPECT_NEAR(mmc_expected_in_system(lambda, mu, 1), 0.6 / 0.4, 1e-12);
}

TEST(ErlangC, KnownTwoServerValue) {
  // lambda = 0.4, mu = 0.5, c = 2: a = 0.8, rho = 0.4; P(wait) = 0.22857,
  // Lq = 0.15238, L = 0.95238 (computed analytically).
  EXPECT_NEAR(mmc_expected_in_system(0.4, 0.5, 2), 0.95238, 0.001);
  EXPECT_NEAR(erlang_c_wait_probability(0.4, 0.5, 2), 0.22857, 0.001);
}

TEST(ErlangC, MoreServersLowerL) {
  const double lambda = 2.0, mu = 1.0;
  double previous = 1e9;
  for (std::size_t c = 3; c < 10; ++c) {
    const double l = mmc_expected_in_system(lambda, mu, c);
    EXPECT_LT(l, previous);
    previous = l;
  }
  // L approaches the offered load (2 Erlangs) from above.
  EXPECT_NEAR(mmc_expected_in_system(lambda, mu, 20), 2.0, 0.01);
}

TEST(ErlangC, StabilityGuard) {
  EXPECT_FALSE(mmc_stable(2.0, 1.0, 2));
  EXPECT_TRUE(mmc_stable(1.9, 1.0, 2));
  EXPECT_THROW(erlang_c_wait_probability(2.0, 1.0, 2), ContractViolation);
}

// --------------------------------------------------------------------- DRS
TEST(Drs, RespectsBudget) {
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  const auto alloc = drs.decide(
      stats_with({5, 5, 5, 5}, {10, 8, 6, 9}, 3), 14);
  EXPECT_TRUE(rl::satisfies_budget(alloc, 14));
}

TEST(Drs, AllocatesNothingWithoutTraffic) {
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  const auto alloc = drs.decide(stats_with({0, 0, 0, 0}, {0, 0, 0, 0}, 3), 14);
  EXPECT_EQ(total(alloc), 0);
}

TEST(Drs, FavoursTheLoadedQueue) {
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  // Segment (mean 8 s) receives far more arrivals than the rest.
  const auto alloc = drs.decide(
      stats_with({0, 0, 0, 0}, {2, 2, 40, 2}, 3), 14);
  for (std::size_t j = 0; j < 4; ++j) {
    if (j == workflows::MsdTasks::kSegment) continue;
    EXPECT_GT(alloc[workflows::MsdTasks::kSegment], alloc[j]);
  }
}

TEST(Drs, StabilisesEveryActiveQueueWhenBudgetAllows) {
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  // Uniform moderate traffic: lambda_j = 10/30 req/s. Service rates are
  // 1/2, 1/6, 1/8, 1/3 => minimum stable m are 1, 3, 3, 2.
  const auto alloc = drs.decide(
      stats_with({1, 1, 1, 1}, {10, 10, 10, 10}, 3), 14);
  EXPECT_GT(alloc[0] * (1.0 / 2.0), 10.0 / 30.0);
  EXPECT_GT(alloc[1] * (1.0 / 6.0), 10.0 / 30.0);
  EXPECT_GT(alloc[2] * (1.0 / 8.0), 10.0 / 30.0);
  EXPECT_GT(alloc[3] * (1.0 / 3.0), 10.0 / 30.0);
}

TEST(Drs, ReactsSlowlyToBursts) {
  // The defining DRS weakness (§VI-D): one burst window barely moves its
  // EWMA arrival estimate.
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  for (int k = 0; k < 20; ++k)
    (void)drs.decide(stats_with({1, 1, 1, 1}, {3, 3, 3, 3}, 3), 14);
  const double cost_before = drs.cost(2, 2);
  (void)drs.decide(stats_with({100, 100, 100, 100}, {300, 3, 3, 3}, 3), 14);
  // After one burst window the type-2 estimate (non-burst queue) is almost
  // unchanged.
  EXPECT_NEAR(drs.cost(2, 2), cost_before, 0.05 * cost_before + 0.05);
}

TEST(Drs, BeginEpisodeResetsEstimates) {
  const auto ensemble = workflows::make_msd_ensemble();
  DrsPolicy drs(ensemble);
  (void)drs.decide(stats_with({5, 5, 5, 5}, {50, 50, 50, 50}, 3), 14);
  drs.begin_episode();
  const auto alloc = drs.decide(stats_with({0, 0, 0, 0}, {0, 0, 0, 0}, 3), 14);
  EXPECT_EQ(total(alloc), 0);
}

// Reference water-filling: re-evaluates both costs of every queue on every
// hand-out, at the estimates `drs` holds now. decide() caches the gains;
// its allocations must match this loop exactly, ties included.
std::vector<int> naive_water_fill(const DrsPolicy& drs, std::size_t j_count,
                                  int budget) {
  std::vector<int> allocation(j_count, 0);
  for (int consumer = 0; consumer < budget; ++consumer) {
    double best_gain = 0.0;
    std::size_t best_j = j_count;
    for (std::size_t j = 0; j < j_count; ++j) {
      const double gain =
          drs.cost(j, allocation[j]) - drs.cost(j, allocation[j] + 1);
      if (gain > best_gain) {
        best_gain = gain;
        best_j = j;
      }
    }
    if (best_j == j_count) break;
    ++allocation[best_j];
  }
  return allocation;
}

// Decides `stats` at every budget 0..2C on copies of `drs` (so each sees the
// same estimate update) and checks each against the reference. Returns the
// allocations, indexed by budget.
std::vector<std::vector<int>> expect_matches_reference(
    const DrsPolicy& drs, const sim::WindowStats& stats, int capacity) {
  const std::size_t j_count = stats.task_arrivals.size();
  std::vector<std::vector<int>> allocations;
  for (int budget = 0; budget <= 2 * capacity; ++budget) {
    DrsPolicy trial = drs;
    allocations.push_back(trial.decide(stats, budget));
    EXPECT_EQ(allocations.back(), naive_water_fill(trial, j_count, budget))
        << "budget " << budget;
  }
  return allocations;
}

// Per type, one of four regimes: silent, light, heavy, or far beyond any
// budget (unstable at every allocation).
sim::WindowStats random_window(Rng& rng, std::size_t j_count) {
  static constexpr std::int64_t kScales[] = {0, 10, 100, 5000};
  std::vector<std::size_t> arrivals(j_count);
  for (std::size_t& a : arrivals) {
    const std::int64_t scale = kScales[rng.uniform_int(0, 3)];
    a = static_cast<std::size_t>(rng.uniform_int(0, scale));
  }
  return stats_with(std::vector<double>(j_count, 1.0), arrivals, 1);
}

void expect_random_histories_match(const workflows::Ensemble& ensemble,
                                   int capacity, std::uint64_t seed) {
  Rng rng(seed);
  DrsPolicy drs(ensemble);
  for (int window = 0; window < 12; ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    const sim::WindowStats stats =
        random_window(rng, ensemble.num_task_types());
    expect_matches_reference(drs, stats, capacity);
    (void)drs.decide(stats, capacity);  // advance the EWMA history
  }
}

TEST(Drs, MatchesReferenceOnRandomHistories) {
  expect_random_histories_match(workflows::make_msd_ensemble(),
                                workflows::kMsdConsumerBudget, 11);
  expect_random_histories_match(workflows::make_ligo_ensemble(),
                                workflows::kLigoConsumerBudget, 12);
  workflows::GeneratedOptions options;
  options.num_task_types = 24;
  options.num_workflows = 6;
  options.consumer_budget = 32;
  expect_random_histories_match(workflows::make_generated_ensemble(options),
                                options.consumer_budget, 13);
}

TEST(Drs, MatchesReferenceOnExactTies) {
  // Types 0 and 1 are identical and see identical traffic, so whenever
  // they hold equal allocations their gains tie bit-for-bit and type 0
  // must win: type 1 never gets ahead of type 0.
  workflows::Ensemble ensemble("twins");
  for (const double mean : {4.0, 4.0, 2.0})
    ensemble.add_task_type("t", workflows::ServiceTimeModel::exponential(mean));
  DrsPolicy drs(ensemble);
  const int capacity = 10;
  for (int window = 0; window < 3; ++window) {
    const auto allocations = expect_matches_reference(
        drs, stats_with({1, 1, 1}, {20, 20, 5}, 1), capacity);
    std::size_t ties_broken = 0;
    for (std::size_t b = 0; b < allocations.size(); ++b) {
      const std::vector<int>& alloc = allocations[b];
      EXPECT_GE(alloc[0], alloc[1]);
      if (b + 1 < allocations.size() && alloc[0] == alloc[1] &&
          allocations[b + 1][0] == alloc[0] + 1)
        ++ties_broken;
    }
    EXPECT_GT(ties_broken, 0u);
    (void)drs.decide(stats_with({1, 1, 1}, {20, 20, 5}, 1), capacity);
  }
}

TEST(Drs, MatchesReferenceWhenEveryQueueIsUnstable) {
  // No budget up to 2C stabilises any queue: every consumer still lowers
  // the backlog-growth penalty, so the whole budget is handed out.
  const auto ensemble = workflows::make_msd_ensemble();
  const int capacity = workflows::kMsdConsumerBudget;
  DrsPolicy drs(ensemble);
  const sim::WindowStats flood =
      stats_with({9, 9, 9, 9}, {90000, 70000, 80000, 60000}, 3);
  const auto allocations = expect_matches_reference(drs, flood, capacity);
  (void)drs.decide(flood, 0);
  for (std::size_t j = 0; j < 4; ++j)
    EXPECT_GT(drs.cost(j, 2 * capacity), 1e6);  // unstable even at 2C
  for (std::size_t budget = 0; budget < allocations.size(); ++budget)
    EXPECT_EQ(total(allocations[budget]), static_cast<int>(budget));
}

// -------------------------------------------------------------------- HEFT
TEST(Heft, UpwardRanksOfChain) {
  const auto ensemble = workflows::make_msd_ensemble();
  // Type1 chain: Ingest(2) -> Align(6) -> Analyze(3).
  const auto ranks =
      HeftPolicy::upward_ranks(ensemble.workflow(0), ensemble);
  EXPECT_DOUBLE_EQ(ranks[2], 3.0);        // Analyze
  EXPECT_DOUBLE_EQ(ranks[1], 6.0 + 3.0);  // Align
  EXPECT_DOUBLE_EQ(ranks[0], 2.0 + 9.0);  // Ingest
}

TEST(Heft, UpwardRanksTakeMaxBranch) {
  const auto ensemble = workflows::make_msd_ensemble();
  // Type3 diamond: Ingest -> (Align(6) || Segment(8)) -> Analyze(3).
  const auto ranks =
      HeftPolicy::upward_ranks(ensemble.workflow(2), ensemble);
  // Ingest's rank takes the slower branch: 2 + max(6, 8) + 3 = 13.
  EXPECT_DOUBLE_EQ(ranks[0], 13.0);
}

TEST(Heft, PrioritiesAreUpstreamHeavy) {
  const auto ensemble = workflows::make_msd_ensemble();
  HeftPolicy heft(ensemble);
  // Ingest heads every workflow: its priority must exceed Analyze's (the
  // universal sink).
  EXPECT_GT(heft.priorities()[workflows::MsdTasks::kIngest],
            heft.priorities()[workflows::MsdTasks::kAnalyze]);
}

TEST(Heft, RespectsBudgetAndUsesItFully) {
  const auto ensemble = workflows::make_msd_ensemble();
  HeftPolicy heft(ensemble);
  const auto alloc =
      heft.decide(stats_with({5, 5, 5, 5}, {0, 0, 0, 0}, 3), 14);
  EXPECT_TRUE(rl::satisfies_budget(alloc, 14));
  EXPECT_EQ(total(alloc), 14);  // largest-remainder allocation is exact
}

TEST(Heft, WeighsQueueByPriority) {
  const auto ensemble = workflows::make_msd_ensemble();
  HeftPolicy heft(ensemble);
  // Equal WIP everywhere: allocation ordering must follow priorities.
  const auto alloc =
      heft.decide(stats_with({10, 10, 10, 10}, {0, 0, 0, 0}, 3), 14);
  EXPECT_GE(alloc[workflows::MsdTasks::kIngest],
            alloc[workflows::MsdTasks::kAnalyze]);
}

TEST(Heft, IdleSystemStagesByPriority) {
  const auto ensemble = workflows::make_msd_ensemble();
  HeftPolicy heft(ensemble);
  const auto alloc = heft.decide(stats_with({0, 0, 0, 0}, {0, 0, 0, 0}, 3), 14);
  EXPECT_EQ(total(alloc), 14);  // still provisions warm capacity
}

// ------------------------------------------------------------------- MONAD
TEST(Monad, DrainRates) {
  const auto ensemble = workflows::make_msd_ensemble();
  MonadPolicy monad(ensemble);
  EXPECT_DOUBLE_EQ(monad.drain_per_consumer(workflows::MsdTasks::kIngest),
                   30.0 / 2.0);
  EXPECT_DOUBLE_EQ(monad.drain_per_consumer(workflows::MsdTasks::kSegment),
                   30.0 / 8.0);
}

TEST(Monad, RespectsBudget) {
  const auto ensemble = workflows::make_msd_ensemble();
  MonadPolicy monad(ensemble);
  const auto alloc =
      monad.decide(stats_with({50, 50, 50, 50}, {10, 10, 10, 10}, 3), 14);
  EXPECT_TRUE(rl::satisfies_budget(alloc, 14));
  EXPECT_EQ(total(alloc), 14);  // saturated demand uses everything
}

TEST(Monad, StopsAllocatingWhenDemandExhausted) {
  const auto ensemble = workflows::make_msd_ensemble();
  MonadPolicy monad(ensemble);
  // Tiny backlog, no arrivals: one consumer per loaded type suffices.
  const auto alloc =
      monad.decide(stats_with({1, 0, 0, 0}, {0, 0, 0, 0}, 3), 14);
  EXPECT_EQ(alloc[0], 1);
  EXPECT_EQ(total(alloc), 1);
}

TEST(Monad, ReactsImmediatelyToBacklog) {
  // Unlike DRS, MONAD sees the burst in WIP at once.
  const auto ensemble = workflows::make_msd_ensemble();
  MonadPolicy monad(ensemble);
  const auto alloc =
      monad.decide(stats_with({200, 0, 0, 0}, {0, 0, 0, 0}, 3), 14);
  EXPECT_EQ(alloc[0], 14);
}

TEST(Monad, BalancesByMarginalDrain) {
  const auto ensemble = workflows::make_msd_ensemble();
  MonadPolicy monad(ensemble);
  // Huge equal backlogs: greedy maximises drained tasks; Ingest drains 15
  // per consumer-window vs Segment's 3.75, so Ingest is favoured.
  const auto alloc =
      monad.decide(stats_with({500, 500, 500, 500}, {0, 0, 0, 0}, 3), 14);
  EXPECT_GT(alloc[workflows::MsdTasks::kIngest],
            alloc[workflows::MsdTasks::kSegment]);
}

// ------------------------------------------------------------------ simple
TEST(Uniform, SplitsEvenlyWithRoundRobinRemainder) {
  UniformPolicy uniform(4);
  const auto alloc = uniform.decide(stats_with({0, 0, 0, 0}, {}, 3), 14);
  EXPECT_EQ(alloc, (std::vector<int>{4, 4, 3, 3}));
}

TEST(Proportional, FollowsWip) {
  ProportionalPolicy prop(3);
  const auto alloc = prop.decide(stats_with({10, 0, 10}, {}, 2), 10);
  EXPECT_EQ(alloc, (std::vector<int>{5, 0, 5}));
}

TEST(Proportional, UniformWhenIdle) {
  ProportionalPolicy prop(2);
  const auto alloc = prop.decide(stats_with({0, 0}, {}, 2), 10);
  EXPECT_EQ(alloc, (std::vector<int>{5, 5}));
}

TEST(Random, AlwaysSatisfiesBudgetExactly) {
  RandomPolicy random(5, 77);
  for (int i = 0; i < 100; ++i) {
    const auto alloc = random.decide(stats_with({0, 0, 0, 0, 0}, {}, 1), 30);
    EXPECT_TRUE(rl::satisfies_budget(alloc, 30));
    EXPECT_EQ(total(alloc), 30);
  }
}

TEST(Random, WeightsAreSimplex) {
  RandomPolicy random(4, 78);
  for (int i = 0; i < 50; ++i) {
    const auto w = random.random_weights();
    double sum = 0.0;
    for (const double x : w) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Static, ReturnsFixedAllocationAndValidatesBudget) {
  StaticPolicy fixed({3, 3, 3});
  EXPECT_EQ(fixed.decide(stats_with({0, 0, 0}, {}, 1), 10),
            (std::vector<int>{3, 3, 3}));
  EXPECT_THROW(fixed.decide(stats_with({0, 0, 0}, {}, 1), 8),
               ContractViolation);
}

TEST(Policies, NamesAreStable) {
  const auto ensemble = workflows::make_msd_ensemble();
  EXPECT_EQ(DrsPolicy(ensemble).name(), "drs");
  EXPECT_EQ(HeftPolicy(ensemble).name(), "heft");
  EXPECT_EQ(MonadPolicy(ensemble).name(), "monad");
  EXPECT_EQ(UniformPolicy(2).name(), "uniform");
  EXPECT_EQ(ProportionalPolicy(2).name(), "proportional");
  EXPECT_EQ(RandomPolicy(2, 1).name(), "random");
  EXPECT_EQ(StaticPolicy({1}).name(), "static");
}

}  // namespace
}  // namespace miras::baselines
