// Golden summaries of the LIGO evaluation grid: fig8's three bursts x
// {DRS, HEFT, MONAD, greedy DDPG on a fixed-seed actor} x 4 seeds x 40
// windows through EvaluationHarness. Every GridSummary statistic is pinned
// as a hexfloat and compared with exact equality, so any drift in the event
// engine, the baselines' decide() or the greedy actor path — across
// commits, not just within one run — fails here. The constants were
// recorded by printing these summaries with "%a" before the event heap's
// integer key, the flat dispatch tables and the scratch-reusing decides
// went in.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/drs.h"
#include "baselines/heft.h"
#include "baselines/monad.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "core/trainer_config.h"
#include "workflows/ligo.h"

namespace miras::core {
namespace {

constexpr std::size_t kWindows = 40;

/// count, mean, m2, min, max of one RunningStats.
using GoldenStats = std::array<double, 5>;

struct GoldenSummary {
  const char* scenario;
  const char* policy;
  std::size_t replications;
  GoldenStats aggregate_reward;
  GoldenStats response_time;
  GoldenStats tail_response_time;
  GoldenStats final_total_wip;
};

std::unique_ptr<sim::MicroserviceSystem> make_ligo_system(std::uint64_t seed) {
  sim::SystemConfig config;
  config.consumer_budget = workflows::kLigoConsumerBudget;
  config.seed = seed;
  return std::make_unique<sim::MicroserviceSystem>(
      workflows::make_ligo_ensemble(), config);
}

GridResult run_ligo_grid(common::ThreadPool* pool) {
  const workflows::Ensemble ensemble = workflows::make_ligo_ensemble();
  rl::DdpgConfig ddpg = miras_ligo_fast_config().ddpg;
  ddpg.seed = 31;
  const std::size_t dim = ensemble.num_task_types();
  const rl::DdpgAgent actor(dim, dim, workflows::kLigoConsumerBudget, ddpg);
  const workflows::Ensemble* e = &ensemble;
  const rl::DdpgAgent* a = &actor;
  const std::vector<PolicySpec> policies = {
      {"drs", [e] { return std::make_unique<baselines::DrsPolicy>(*e); }},
      {"heft", [e] { return std::make_unique<baselines::HeftPolicy>(*e); }},
      {"monad", [e] { return std::make_unique<baselines::MonadPolicy>(*e); }},
      {"ddpg", [a] { return std::make_unique<DdpgPolicy>(a, "ddpg"); }}};
  const std::vector<ScenarioSpec> scenarios = {
      {"burst0", ScenarioConfig{sim::BurstSpec{{100, 100, 50, 30}}, kWindows}},
      {"burst1", ScenarioConfig{sim::BurstSpec{{150, 150, 80, 50}}, kWindows}},
      {"burst2", ScenarioConfig{sim::BurstSpec{{80, 80, 80, 80}}, kWindows}}};
  const std::vector<std::uint64_t> seeds = {11, 12, 13, 14};
  const EvaluationHarness harness(make_ligo_system, pool);
  return harness.run(policies, scenarios, seeds, kWindows / 4);
}

void expect_stats(const RunningStats& stats, const GoldenStats& golden,
                  const std::string& where) {
  EXPECT_EQ(static_cast<double>(stats.count()), golden[0]) << where;
  EXPECT_EQ(stats.mean(), golden[1]) << where;
  EXPECT_EQ(stats.m2(), golden[2]) << where;
  EXPECT_EQ(stats.min(), golden[3]) << where;
  EXPECT_EQ(stats.max(), golden[4]) << where;
}

const std::vector<GoldenSummary> kGolden = {
    {"burst0", "drs", 4,
     {0x1p+2, -0x1.e628p+11, 0x1.b6c76p+17, -0x1.00ep+12, -0x1.b46p+11},
     {0x1.4p+7, 0x1.f1c9c040ec2c8p+6, 0x1.4f1fe8b2517dcp+21, 0x0p+0,
      0x1.c9ad83f27908fp+8},
     {0x1p+2, 0x1.b6fe17771b5ep+4, 0x1.5676bdc08bf5p+3, 0x1.9064323bae897p+4,
      0x1.d6e4519f2b98ep+4},
     {0x1p+2, 0x1p+3, 0x1.8p+2, 0x1.cp+2, 0x1.4p+3}},
    {"burst0", "heft", 4,
     {0x1p+2, -0x1.c8fp+11, 0x1.c7aaffffffffep+16, -0x1.ddcp+11, -0x1.a54p+11},
     {0x1.4p+7, 0x1.dc99a158131bap+6, 0x1.85ecaa240c796p+19, 0x0p+0,
      0x1.414aab321fc2ep+8},
     {0x1p+2, 0x1.87b196449eb89p+6, 0x1.6f47372a3146p+8, 0x1.57732b31317cfp+6,
      0x1.c2464a327a1bap+6},
     {0x1p+2, 0x1.9p+4, 0x1.ccp+7, 0x1.ap+3, 0x1.1p+5}},
    {"burst0", "monad", 4,
     {0x1p+2, -0x1.87a8p+11, 0x1.40c4cp+16, -0x1.9fep+11, -0x1.6f6p+11},
     {0x1.4p+7, 0x1.8f4c8ada8c716p+6, 0x1.9097e7f1a7e7cp+20, 0x0p+0,
      0x1.7710dd4e23015p+8},
     {0x1p+2, 0x1.2ab6affe1be1ap+5, 0x1.32d4e51601ba2p+5, 0x1.0cd47c412310dp+5,
      0x1.513301beb06d6p+5},
     {0x1p+2, 0x1.18p+3, 0x1.06p+5, 0x1.4p+2, 0x1.8p+3}},
    {"burst0", "ddpg", 4,
     {0x1p+2, -0x1.993cp+12, 0x1.6bdcac0000002p+20, -0x1.ccp+12, -0x1.613p+12},
     {0x1.4p+7, 0x1.57266724e0588p+8, 0x1.fefc13a589f3ep+21,
      0x1.4ae55f41d376bp+4, 0x1.7b407e9ed8de9p+9},
     {0x1p+2, 0x1.8a04cab5de62cp+8, 0x1.5f34a1361fcaap+14, 0x1.2067b3bcf8489p+8,
      0x1.f4286009e9d53p+8},
     {0x1p+2, 0x1.5p+6, 0x1.b17ffffffffffp+10, 0x1.d8p+5, 0x1.dp+6}},
    {"burst1", "drs", 4,
     {0x1p+2, -0x1.c1ap+12, 0x1.179bc00000003p+19, -0x1.d5dp+12, -0x1.9b1p+12},
     {0x1.4p+7, 0x1.ba961efdc8157p+7, 0x1.485e52da57p+22, 0x0p+0,
      0x1.18b45c4aea607p+9},
     {0x1p+2, 0x1.f2f00b5eac542p+4, 0x1.5f09dabf3f44bp+6, 0x1.aad7cce790785p+4,
      0x1.3841d8ca9de87p+5},
     {0x1p+2, 0x1p+3, 0x1.4p+4, 0x1.4p+2, 0x1.6p+3}},
    {"burst1", "heft", 4,
     {0x1p+2, -0x1.af7cp+12, 0x1.5bafafffffffep+18, -0x1.bdep+12, -0x1.8fbp+12},
     {0x1.4p+7, 0x1.4fca1888d18ebp+7, 0x1.227d1eb027d05p+21, 0x0p+0,
      0x1.c0c9e91490b4p+8},
     {0x1p+2, 0x1.7e8faa28273f8p+6, 0x1.3c7b046a4fe66p+8, 0x1.5f2d4f423a70ap+6,
      0x1.b65f1a860d92p+6},
     {0x1p+2, 0x1.e8p+4, 0x1.2e8p+9, 0x1.6p+3, 0x1.6p+5}},
    {"burst1", "monad", 4,
     {0x1p+2, -0x1.8574p+12, 0x1.8b402ffffffffp+18, -0x1.9cbp+12, -0x1.671p+12},
     {0x1.4p+7, 0x1.637f361e0ecd2p+7, 0x1.017e3beb2e328p+22, 0x0p+0,
      0x1.1c2ad54e8405bp+9},
     {0x1p+2, 0x1.2731097e10166p+5, 0x1.3adc15286df35p+3, 0x1.1917861d351a7p+5,
      0x1.3790a3c0a39fp+5},
     {0x1p+2, 0x1.18p+3, 0x1.86p+5, 0x1.8p+1, 0x1.8p+3}},
    {"burst1", "ddpg", 4,
     {0x1p+2, -0x1.8678p+13, 0x1.83e89fffffffcp+20, -0x1.a01p+13, -0x1.6acp+13},
     {0x1.4p+7, 0x1.c64ff1f67913cp+8, 0x1.328db030d9608p+23,
      0x1.45b721643718dp+4, 0x1.f9dbcdb74665bp+9},
     {0x1p+2, 0x1.83f5c840b214cp+9, 0x1.e520455aa94ddp+10, 0x1.7403fe7d8446ep+9,
      0x1.8f51328c45bp+9},
     {0x1p+2, 0x1.e2p+7, 0x1.3fp+11, 0x1.9ap+7, 0x1.0fp+8}},
    {"burst2", "drs", 4,
     {0x1p+2, -0x1.51dp+12, 0x1.b29ap+18, -0x1.703p+12, -0x1.37fp+12},
     {0x1.4p+7, 0x1.47e52a90ac56p+7, 0x1.e6e395f62d111p+21, 0x0p+0,
      0x1.f7f07b9844aa7p+8},
     {0x1p+2, 0x1.d6d3577fa5ba8p+4, 0x1.03d67b3549baep+4, 0x1.a2661cf5cea93p+4,
      0x1.f1a9e1cafb28ap+4},
     {0x1p+2, 0x1.bp+2, 0x1.6cp+4, 0x1p+2, 0x1.4p+3}},
    {"burst2", "heft", 4,
     {0x1p+2, -0x1.4208p+12, 0x1.532d800000002p+17, -0x1.4eap+12, -0x1.2c4p+12},
     {0x1.4p+7, 0x1.1f7bd026082adp+7, 0x1.8268f3b8fa83dp+20, 0x0p+0,
      0x1.90cdac189a12fp+8},
     {0x1p+2, 0x1.86aec6ebea854p+6, 0x1.253b50e37eea1p+9, 0x1.3baaf2e653447p+6,
      0x1.bc82e4cb59b5ep+6},
     {0x1p+2, 0x1.04p+5, 0x1.128p+9, 0x1.ap+3, 0x1.58p+5}},
    {"burst2", "monad", 4,
     {0x1p+2, -0x1.2358p+12, 0x1.07774p+18, -0x1.351p+12, -0x1.096p+12},
     {0x1.4p+7, 0x1.261de9c09f18bp+7, 0x1.68ca818bcddc8p+21, 0x0p+0,
      0x1.d021c3fd543afp+8},
     {0x1p+2, 0x1.381c2995a6c21p+5, 0x1.59e80ba72954ep+6, 0x1.fa05de9f841bp+4,
      0x1.593bd74d6ca4dp+5},
     {0x1p+2, 0x1.28p+3, 0x1.6cp+4, 0x1.8p+2, 0x1.8p+3}},
    {"burst2", "ddpg", 4,
     {0x1p+2, -0x1.217p+13, 0x1.5700fp+21, -0x1.381p+13, -0x1.e9dp+12},
     {0x1.4p+7, 0x1.abcae5b41bf95p+8, 0x1.063595cbb9a84p+23,
      0x1.4d99a4fb2e75fp+4, 0x1.d8cc48f4fbd43p+9},
     {0x1p+2, 0x1.57898bc0d318fp+9, 0x1.dc15fda074b17p+14, 0x1.0cedc3030ab51p+9,
      0x1.7a587fe46b496p+9},
     {0x1p+2, 0x1.46p+7, 0x1.2c4p+12, 0x1.ap+6, 0x1.8p+7}},
};

void expect_matches_golden(const GridResult& grid) {
  ASSERT_EQ(grid.summaries.size(), kGolden.size());
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    const GridSummary& s = grid.summaries[i];
    const GoldenSummary& g = kGolden[i];
    const std::string where = std::string(g.scenario) + "/" + g.policy;
    EXPECT_EQ(s.scenario, g.scenario);
    EXPECT_EQ(s.policy, g.policy);
    EXPECT_EQ(s.replications, g.replications) << where;
    expect_stats(s.aggregate_reward, g.aggregate_reward,
                 where + " aggregate_reward");
    expect_stats(s.response_time, g.response_time, where + " response_time");
    expect_stats(s.tail_response_time, g.tail_response_time,
                 where + " tail_response_time");
    expect_stats(s.final_total_wip, g.final_total_wip,
                 where + " final_total_wip");
  }
}

TEST(GridGolden, LigoGridSummariesMatchRecordingInline) {
  expect_matches_golden(run_ligo_grid(nullptr));
}

TEST(GridGolden, LigoGridSummariesMatchRecordingOnPool) {
  common::ThreadPool pool(2);
  expect_matches_golden(run_ligo_grid(&pool));
}

}  // namespace
}  // namespace miras::core
