// Golden summaries of the LIGO evaluation grid: fig8's three bursts x
// {DRS, HEFT, MONAD, greedy DDPG on a fixed-seed actor} x 4 seeds x 40
// windows through EvaluationHarness. Every GridSummary statistic is pinned
// as a hexfloat and compared with exact equality, so any drift in the event
// engine, the baselines' decide() or the greedy actor path — across
// commits, not just within one run — fails here.
//
// Recording: the engine of commit 4907e33 with Rng's ziggurat normal
// sampler (src/common/rng.{h,cpp} of the commit that introduced it; its
// lognormal service times and the actor's initial weights changed every
// summary). Generator: run_ligo_grid(nullptr), printing each summary's
// scenario, policy and replications, then count, mean, m2, min and max of
// its four RunningStats with "%a", in kGolden's layout.
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
     {0x1p+2, -0x1.e428p+11, 0x1.aa2e5fffffffdp+17, -0x1.01dp+12, -0x1.b52p+11},
     {0x1.4p+7, 0x1.eaf13c196cd92p+6, 0x1.4891a89b710cep+21, 0x0p+0,
      0x1.b4d3c281ab011p+8},
     {0x1p+2, 0x1.adba6791bcaaap+4, 0x1.67a5afb6226ebp+2, 0x1.9c8cd1510fa25p+4,
      0x1.cd754d8e53cf3p+4},
     {0x1p+2, 0x1.ep+2, 0x1.5p+4, 0x1p+2, 0x1.4p+3}},
    {"burst0", "heft", 4,
     {0x1p+2, -0x1.d49p+11, 0x1.d489p+16, -0x1.e88p+11, -0x1.b06p+11},
     {0x1.4p+7, 0x1.f26a4344c974p+6, 0x1.817a8173df46p+19, 0x0p+0,
      0x1.35da136c4f2acp+8},
     {0x1p+2, 0x1.97db75b16b76ap+6, 0x1.7c705223ecc95p+8, 0x1.5528c3704ce6ap+6,
      0x1.b845ab275645dp+6},
     {0x1p+2, 0x1.e4p+4, 0x1.f6cp+8, 0x1.6p+3, 0x1.38p+5}},
    {"burst0", "monad", 4,
     {0x1p+2, -0x1.8368p+11, 0x1.14cbp+14, -0x1.8e6p+11, -0x1.784p+11},
     {0x1.4p+7, 0x1.8b489de039b41p+6, 0x1.887f8d45b56cbp+20, 0x0p+0,
      0x1.6892db6446eb2p+8},
     {0x1p+2, 0x1.21073aa5a89f7p+5, 0x1.23abc9e5dee51p+5, 0x1.0a5602a1545adp+5,
      0x1.482881ff864a3p+5},
     {0x1p+2, 0x1.48p+3, 0x1.96p+5, 0x1.4p+2, 0x1.cp+3}},
    {"burst0", "ddpg", 4,
     {0x1p+2, -0x1.0d0ep+13, 0x1.d87098p+19, -0x1.20d8p+13, -0x1.ecep+12},
     {0x1.4p+7, 0x1.9424afbf1aa71p+8, 0x1.2862d6f989fdep+23,
      0x1.46bcf4932c052p+4, 0x1.06e99aa8c0778p+10},
     {0x1p+2, 0x1.6296623b4bb18p+9, 0x1.1cff75369c52cp+12, 0x1.52cc7500c08efp+9,
      0x1.7ebc25d2e4c2ap+9},
     {0x1p+2, 0x1.9fp+7, 0x1.6a2p+11, 0x1.54p+7, 0x1.dep+7}},
    {"burst1", "drs", 4,
     {0x1p+2, -0x1.c2d8p+12, 0x1.7319a00000002p+19, -0x1.e06p+12, -0x1.999p+12},
     {0x1.4p+7, 0x1.b65ba9e74a58fp+7, 0x1.4e73e10a3e7b3p+22, 0x0p+0,
      0x1.25ed76bf7bf9ep+9},
     {0x1p+2, 0x1.d5ff228f24e16p+4, 0x1.62afc4706b396p+2, 0x1.c3bf53b4083bap+4,
      0x1.f1ee8d036f0c6p+4},
     {0x1p+2, 0x1.bp+2, 0x1.4cp+4, 0x1p+2, 0x1.2p+3}},
    {"burst1", "heft", 4,
     {0x1p+2, -0x1.b6b8p+12, 0x1.3d583fffffffdp+18, -0x1.c94p+12, -0x1.998p+12},
     {0x1.4p+7, 0x1.513226286194p+7, 0x1.3d2d7713b5edep+21, 0x0p+0,
      0x1.bcb77dbfedda8p+8},
     {0x1p+2, 0x1.6303a394a091cp+6, 0x1.867ef5ef33f11p+8, 0x1.26194234a9509p+6,
      0x1.8ed27038d7c24p+6},
     {0x1p+2, 0x1.ep+4, 0x1.d4p+7, 0x1.3p+4, 0x1.4p+5}},
    {"burst1", "monad", 4,
     {0x1p+2, -0x1.8078p+12, 0x1.5964800000005p+17, -0x1.8fp+12, -0x1.6b4p+12},
     {0x1.4p+7, 0x1.55b2feefba8d8p+7, 0x1.070f96922a718p+22, 0x0p+0,
      0x1.fc9e4d5a04aa9p+8},
     {0x1p+2, 0x1.1ae70f203a36cp+5, 0x1.55526a2ebc838p+4, 0x1.f74cf84a99c26p+4,
      0x1.2a74d0fc27426p+5},
     {0x1p+2, 0x1.38p+3, 0x1.16p+5, 0x1.4p+2, 0x1.ap+3}},
    {"burst1", "ddpg", 4,
     {0x1p+2, -0x1.a0ep+13, 0x1.81fcbfffffffap+19, -0x1.ae78p+13,
      -0x1.8af8p+13},
     {0x1.4p+7, 0x1.9cbdfd55747dcp+8, 0x1.29f75ad09d257p+23,
      0x1.49598d5a86f6dp+4, 0x1.1a32236a0b078p+10},
     {0x1p+2, 0x1.697e9adbedde7p+9, 0x1.1fe1e80c0eb2ap+13, 0x1.48d99b125ee47p+9,
      0x1.8ca0696729e58p+9},
     {0x1p+2, 0x1.43p+8, 0x1.0a40000000003p+11, 0x1.23p+8, 0x1.5ep+8}},
    {"burst2", "drs", 4,
     {0x1p+2, -0x1.5d48p+12, 0x1.4cbe1fffffffdp+19, -0x1.824p+12, -0x1.3a7p+12},
     {0x1.4p+7, 0x1.4f9bb2ee09192p+7, 0x1.01b42ad39f9ap+22, 0x0p+0,
      0x1.126e91e880393p+9},
     {0x1p+2, 0x1.b9e09585f28f9p+4, 0x1.2883a76532f62p+2, 0x1.a43e0468e1856p+4,
      0x1.cd312b05dfd48p+4},
     {0x1p+2, 0x1p+3, 0x1.2p+4, 0x1.4p+2, 0x1.4p+3}},
    {"burst2", "heft", 4,
     {0x1p+2, -0x1.475p+12, 0x1.59f4000000006p+16, -0x1.54p+12, -0x1.39ep+12},
     {0x1.4p+7, 0x1.2546094e73dd8p+7, 0x1.8ceb225219376p+20, 0x0p+0,
      0x1.843bc48947787p+8},
     {0x1p+2, 0x1.6bde87891a9e8p+6, 0x1.213da5d3d5d16p+10, 0x1.0f7a898d7f0ccp+6,
      0x1.ced3b45e13178p+6},
     {0x1p+2, 0x1.c8p+4, 0x1.498p+9, 0x1.2p+3, 0x1.48p+5}},
    {"burst2", "monad", 4,
     {0x1p+2, -0x1.1eb4p+12, 0x1.7d497fffffff6p+15, -0x1.27fp+12, -0x1.149p+12},
     {0x1.4p+7, 0x1.19446b167a4aap+7, 0x1.6adc218cd49a6p+21, 0x0p+0,
      0x1.d2c69ce0ffc2dp+8},
     {0x1p+2, 0x1.1dc4e67d296f4p+5, 0x1.f83b10fdf11f1p+3, 0x1.0e1941adf541fp+5,
      0x1.383e382c49b65p+5},
     {0x1p+2, 0x1.4p+3, 0x1.2p+6, 0x1p+2, 0x1p+4}},
    {"burst2", "ddpg", 4,
     {0x1p+2, -0x1.56a6p+13, 0x1.0736acp+20, -0x1.6cap+13, -0x1.3edp+13},
     {0x1.4p+7, 0x1.9d0a212e9b83bp+8, 0x1.47cec03f95231p+23,
      0x1.5836f018bce35p+4, 0x1.284446af5163ep+10},
     {0x1p+2, 0x1.6f13a3f45fa3fp+9, 0x1.6a52ddbac4ec6p+14, 0x1.416a6d3e88b3ap+9,
      0x1.aad30f06c2c6ep+9},
     {0x1p+2, 0x1.108p+8, 0x1.724p+10, 0x1.e8p+7, 0x1.27p+8}},
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
