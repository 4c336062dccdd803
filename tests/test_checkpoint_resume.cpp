// The headline invariant of miras::persist: a seeded K-iteration training
// run is bit-identical to a J-iteration run, checkpointed, torn down, and
// resumed in a "fresh process" (all-new objects) for the remaining K-J
// iterations. Verified on both ensembles, inline and on an 8-thread pool —
// plus the mid-window contract and the mismatch guards.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checkpoint_test_util.h"
#include "common/thread_pool.h"
#include "core/miras_agent.h"
#include "persist/checkpoint.h"
#include "sim/system.h"
#include "workflows/ligo.h"
#include "workflows/msd.h"

namespace miras::core {
namespace {

constexpr std::uint64_t kSystemSeed = 33;

sim::MicroserviceSystem make_system(const std::string& dataset) {
  sim::SystemConfig config;
  config.seed = kSystemSeed;
  if (dataset == "msd") {
    config.consumer_budget = workflows::kMsdConsumerBudget;
    return sim::MicroserviceSystem(workflows::make_msd_ensemble(), config);
  }
  config.consumer_budget = workflows::kLigoConsumerBudget;
  return sim::MicroserviceSystem(workflows::make_ligo_ensemble(), config);
}

MirasConfig tiny_config(const std::string& dataset) {
  MirasConfig config;
  config.model.hidden_dims = {12, 12};
  config.model.epochs = 8;
  config.ddpg.actor_hidden = {24, 24};
  config.ddpg.critic_hidden = {24, 24};
  config.ddpg.batch_size = 16;
  config.ddpg.warmup = 16;
  config.outer_iterations = 4;
  config.real_steps_per_iteration = 40;
  config.reset_interval = 20;
  config.rollout_length = dataset == "msd" ? 8 : 6;
  config.synthetic_rollouts_per_iteration = 8;
  config.rollout_batch = 4;
  config.eval_steps = 6;
  config.seed = dataset == "msd" ? 5 : 9;
  return config;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "miras_resume_" + name;
}

void expect_traces_identical(const std::vector<IterationTrace>& resumed,
                             const std::vector<IterationTrace>& full) {
  ASSERT_EQ(resumed.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(resumed[i].iteration, full[i].iteration);
    EXPECT_EQ(resumed[i].dataset_size, full[i].dataset_size);
    // EXPECT_EQ, not NEAR: the invariant is bit-identity, not tolerance.
    EXPECT_EQ(resumed[i].model_train_loss, full[i].model_train_loss)
        << "iteration " << i + 1;
    EXPECT_EQ(resumed[i].eval_aggregate_reward, full[i].eval_aggregate_reward)
        << "iteration " << i + 1;
    EXPECT_EQ(resumed[i].parameter_noise_stddev,
              full[i].parameter_noise_stddev)
        << "iteration " << i + 1;
  }
}

std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
  if (threads == 0) return nullptr;
  return std::make_unique<common::ThreadPool>(threads);
}

/// Runs a K-iteration training uninterrupted, then as a J-iteration run that
/// checkpoints and resumes for the remaining iterations, and checks that
/// both agree bit for bit. The teardown between save and resume is real:
/// the first system and agent are destroyed before the resumed ones exist.
/// `threads` sizes the pool of the uninterrupted run and the first leg,
/// `resume_threads` the pool of the resumed leg; 0 runs inline.
void run_bit_identity_case(const std::string& dataset, std::size_t threads,
                           std::size_t resume_threads) {
  const MirasConfig config = tiny_config(dataset);
  const std::unique_ptr<common::ThreadPool> pool = make_pool(threads);
  const std::unique_ptr<common::ThreadPool> resume_pool =
      make_pool(resume_threads);
  const std::string path =
      temp_path(dataset + "_" + std::to_string(threads) + "_" +
                std::to_string(resume_threads) + ".ckpt");
  const std::size_t total = config.outer_iterations;
  const std::size_t first_leg = total / 2;

  sim::MicroserviceSystem full_system = make_system(dataset);
  MirasAgent full_agent(&full_system, config);
  full_agent.enable_parallel_training(pool.get());
  std::vector<IterationTrace> full_traces;
  for (std::size_t i = 0; i < total; ++i)
    full_traces.push_back(full_agent.run_iteration());

  std::vector<IterationTrace> combined;
  {
    sim::MicroserviceSystem system = make_system(dataset);
    MirasAgent agent(&system, config);
    agent.enable_parallel_training(pool.get());
    for (std::size_t i = 0; i < first_leg; ++i)
      combined.push_back(agent.run_iteration());
    agent.save_checkpoint(path);
  }  // everything from the first leg is gone now

  sim::MicroserviceSystem system = make_system(dataset);
  MirasAgent agent = MirasAgent::resume(&system, config, path);
  agent.enable_parallel_training(resume_pool.get());
  EXPECT_EQ(agent.iterations_run(), first_leg);
  for (std::size_t i = first_leg; i < total; ++i)
    combined.push_back(agent.run_iteration());

  expect_traces_identical(combined, full_traces);
  EXPECT_EQ(agent.ddpg().actor().get_parameters(),
            full_agent.ddpg().actor().get_parameters());
  std::remove(path.c_str());
}

TEST(CheckpointResume, MsdSequentialRunResumesBitIdentically) {
  run_bit_identity_case("msd", /*threads=*/0, /*resume_threads=*/0);
}

TEST(CheckpointResume, LigoSequentialRunResumesBitIdentically) {
  run_bit_identity_case("ligo", /*threads=*/0, /*resume_threads=*/0);
}

TEST(CheckpointResume, MsdEightThreadRunResumesBitIdentically) {
  run_bit_identity_case("msd", /*threads=*/8, /*resume_threads=*/8);
}

TEST(CheckpointResume, LigoEightThreadRunResumesBitIdentically) {
  run_bit_identity_case("ligo", /*threads=*/8, /*resume_threads=*/8);
}

TEST(CheckpointResume, ParallelTrainingResumesUnderDifferentThreadCount) {
  // Pool placement is not part of the training state: a run trained on an
  // 8-thread pool may be checkpointed and resumed on a 2-thread pool, or
  // inline, bit-identically.
  run_bit_identity_case("msd", /*threads=*/8, /*resume_threads=*/2);
  run_bit_identity_case("ligo", /*threads=*/8, /*resume_threads=*/0);
}

TEST(CheckpointResume, PendingWindowIsEmptyAtIterationBoundaries) {
  // The n-step maturation window is transient mid-episode state; every
  // episode boundary flushes it, so at the iteration boundary — the only
  // place checkpoints are taken — it must be empty. (save_state serialises
  // it regardless, so even a mid-window snapshot would restore faithfully.)
  sim::MicroserviceSystem system = make_system("msd");
  MirasAgent agent(&system, tiny_config("msd"));
  for (int i = 0; i < 2; ++i) {
    (void)agent.run_iteration();
    EXPECT_EQ(agent.ddpg().pending_transitions(), 0u);
  }
}

TEST(CheckpointResume, MidWindowPendingStateRoundtrips) {
  // Directly exercise the DDPG snapshot with a NON-empty pending window to
  // prove the "included in snapshot" half of the contract.
  rl::DdpgConfig config;
  config.actor_hidden = {8, 8};
  config.critic_hidden = {8, 8};
  config.n_step = 5;
  rl::DdpgAgent a(4, 4, 14, config);
  const std::vector<double> state{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> action{0.25, 0.25, 0.25, 0.25};
  for (int i = 0; i < 3; ++i) a.observe(state, action, 0.5, state);
  ASSERT_GT(a.pending_transitions(), 0u);

  persist::BinaryWriter out;
  a.save_state(out);
  rl::DdpgAgent b(4, 4, 14, config);
  persist::BinaryReader in(out.bytes().data(), out.size(), "ddpg");
  b.restore_state(in);
  in.expect_end();
  EXPECT_EQ(b.pending_transitions(), a.pending_transitions());
  EXPECT_EQ(b.replay_size(), a.replay_size());
  EXPECT_EQ(b.actor().get_parameters(), a.actor().get_parameters());
}

TEST(CheckpointResume, ConfigFingerprintMismatchIsRejected) {
  const std::string path = temp_path("fingerprint.ckpt");
  sim::MicroserviceSystem system = make_system("msd");
  MirasAgent agent(&system, tiny_config("msd"));
  (void)agent.run_iteration();
  agent.save_checkpoint(path);

  MirasConfig other = tiny_config("msd");
  other.rollout_length += 1;  // any field change must be caught
  sim::MicroserviceSystem fresh = make_system("msd");
  MirasAgent restored(&fresh, other);
  EXPECT_THROW(restored.restore_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointResume, EnvironmentMismatchIsRejected) {
  const std::string path = temp_path("env_mismatch.ckpt");
  sim::MicroserviceSystem msd = make_system("msd");
  MirasAgent agent(&msd, tiny_config("msd"));
  (void)agent.run_iteration();
  agent.save_checkpoint(path);

  // Same config, different environment shape (LIGO has 9 task types).
  sim::MicroserviceSystem ligo = make_system("ligo");
  MirasAgent restored(&ligo, tiny_config("msd"));
  EXPECT_THROW(restored.restore_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointResume, FormatOneCheckpointIsRefusedNamingTheSampler) {
  // Format 1 stored rng streams drawn by the normal sampler the ziggurat
  // replaced. Continuing them with the new sampler would silently diverge
  // from the uninterrupted run, so the resume must fail with its own error.
  const std::string path = temp_path("format1.ckpt");
  sim::MicroserviceSystem system = make_system("msd");
  MirasAgent agent(&system, tiny_config("msd"));
  (void)agent.run_iteration();
  agent.save_checkpoint(path);
  {
    // Stamp the header's format_version (u32 at offset 8) as 1.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 12u);
    bytes[8] = 1;
    bytes[9] = bytes[10] = bytes[11] = 0;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  ASSERT_EQ(persist::CheckpointReader::open(path).format_version(), 1u);

  sim::MicroserviceSystem fresh = make_system("msd");
  MirasAgent restored(&fresh, tiny_config("msd"));
  try {
    restored.restore_checkpoint(path);
    ADD_FAILURE() << "a format-1 checkpoint resumed";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("format 1"), std::string::npos) << message;
    EXPECT_NE(message.find("normal sampler"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, FormatTwoCheckpointIsRefusedNamingTheTwinCriticByte) {
  // Format 2's "ddpg" section carried a twin-critic flag byte that format 3
  // dropped, so the resume must fail with its own error up front rather
  // than misparse the section.
  const std::string path = temp_path("format2.ckpt");
  sim::MicroserviceSystem system = make_system("msd");
  MirasAgent agent(&system, tiny_config("msd"));
  (void)agent.run_iteration();
  agent.save_checkpoint(path);
  persist::test::downgrade_to_format_two(path);
  ASSERT_EQ(persist::CheckpointReader::open(path).format_version(), 2u);

  sim::MicroserviceSystem fresh = make_system("msd");
  MirasAgent restored(&fresh, tiny_config("msd"));
  try {
    restored.restore_checkpoint(path);
    ADD_FAILURE() << "a format-2 checkpoint resumed";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("format 2"), std::string::npos) << message;
    EXPECT_NE(message.find("twin-critic"), std::string::npos) << message;
    EXPECT_EQ(message.find("normal sampler"), std::string::npos) << message;
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, CheckpointContainsEveryExpectedSection) {
  const std::string path = temp_path("sections.ckpt");
  sim::MicroserviceSystem system = make_system("msd");
  MirasAgent agent(&system, tiny_config("msd"));
  (void)agent.run_iteration();
  agent.save_checkpoint(path);

  const persist::CheckpointReader reader = persist::CheckpointReader::open(path);
  for (const char* name :
       {"meta", "env", "dataset", "model", "refiner", "ddpg"})
    EXPECT_TRUE(reader.has_section(name)) << "missing section " << name;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace miras::core
