#include "core/miras_agent.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/logging.h"
#include "envmodel/synthetic_env.h"
#include "persist/checkpoint.h"
#include "sim/system.h"

namespace miras::core {

namespace {
// Rewards are multiplied by this before entering the critic (WIP sums reach
// hundreds; scaling keeps Q-targets well-conditioned). Affects learning
// only — reported rewards are unscaled. MIRAS and the model-free comparator
// (§VI-D) share it.
constexpr double kRewardScale = 0.01;

// Why a checkpoint older than persist::kMinResumableFormat cannot resume
// training (checkpoint.h's format history).
const char* unresumable_reason(std::uint32_t format) {
  if (format < 2)
    return "whose random streams were drawn by the normal sampler that "
           "Rng::normal's ziggurat replaced; resuming them would diverge "
           "from the uninterrupted run";
  return "whose DDPG section still carries the twin-critic flag byte that "
         "format 3 dropped, so it no longer parses";
}
}  // namespace

MirasAgent::MirasAgent(sim::MicroserviceSystem* env, MirasConfig config)
    : env_(env),
      config_(std::move(config)),
      rng_(config_.seed),
      dataset_(env->state_dim(), env->action_dim()),
      model_(env->state_dim(), env->action_dim(), config_.model),
      refiner_(&model_, config_.refiner),
      agent_(env->state_dim(), env->action_dim(), env->consumer_budget(),
             config_.ddpg),
      env_factory_(system_factory(env->ensemble(), env->config())) {
  MIRAS_EXPECTS(env != nullptr);
  MIRAS_EXPECTS(config_.rollout_length > 0);
  MIRAS_EXPECTS(config_.reset_interval > 0);
}

void MirasAgent::enable_parallel_training(common::ThreadPool* pool) {
  // One pool serves the episode shards and the gradient blocks (nested
  // parallel_for is deadlock-free — the caller participates).
  pool_ = pool;
  model_.enable_parallel_training(pool);
  refiner_.enable_parallel(pool);
  agent_.enable_parallel_training(pool);
}

void MirasAgent::enable_parallel_collection(common::ThreadPool* pool,
                                            EnvFactory make_env) {
  MIRAS_EXPECTS(make_env != nullptr);
  env_factory_ = std::move(make_env);
  // Environments pooled under the previous factory may not match the new
  // one; drop them so every reused env descends from this factory.
  env_pool_.clear();
  enable_parallel_training(pool);
}

void MirasAgent::enable_distributed_collection(CollectionBackend* backend) {
  collection_backend_ = backend;
}

void MirasAgent::collect_real_interactions(std::size_t steps,
                                           bool random_actions) {
  // The shard structure — episode count, lengths, seeds — is fixed up
  // front from one draw of the agent's stream; worker count never enters.
  const std::uint64_t collection_root = rng_.next_u64();
  std::vector<EpisodeSpec> specs;
  for (std::size_t start = 0; start < steps; start += config_.reset_interval) {
    EpisodeSpec spec;
    spec.index = specs.size();
    spec.length = std::min(config_.reset_interval, steps - start);
    spec.seed = shard_seed(collection_root, spec.index);
    specs.push_back(spec);
  }

  // The agent is frozen for the whole phase, so one pre-perturbation
  // behaviour snapshot serves every episode; each episode's perturbation is
  // drawn from its own shard stream inside run_shard_episode.
  const rl::BehaviorSnapshot behavior = agent_.behavior_snapshot();
  std::vector<CollectedEpisode> episodes;
  if (collection_backend_ != nullptr) {
    episodes = collection_backend_->collect(specs, random_actions, behavior);
    MIRAS_EXPECTS(episodes.size() == specs.size());
  } else {
    episodes.resize(specs.size());
    const auto run_episode = [&](std::size_t e) {
      episodes[e] = run_shard_episode(specs[e], random_actions, behavior,
                                      config_, env_factory_, &env_pool_);
    };
    if (pool_ != nullptr) {
      pool_->parallel_for(specs.size(), run_episode);
    } else {
      for (std::size_t e = 0; e < specs.size(); ++e) run_episode(e);
    }
  }

  // Serial merge in episode order keeps the dataset's episode chaining and
  // the normaliser's update order deterministic.
  std::size_t violations = 0;
  for (CollectedEpisode& episode : episodes) {
    violations += episode.constraint_violations;
    for (envmodel::Transition& transition : episode.transitions) {
      // The policy itself trains on synthetic transitions (Algorithm 2),
      // but its state normaliser should track the real distribution.
      agent_.observe_state_only(transition.state);
      dataset_.add(std::move(transition));
    }
  }
  agent_.record_constraint_violations(violations);
}

void MirasAgent::run_synthetic_rollout_batch(
    std::uint64_t batch_root,
    std::vector<std::vector<SyntheticStep>>& rollouts) {
  // Per-lane context: every stochastic draw of lane l — behaviour,
  // exploration, weights — comes from its own roll_rng, seeded from
  // shard_seed(batch_root, l), in a fixed setup order: env seed, behaviour,
  // snapshot, refiner seed.
  struct LaneContext {
    Rng roll_rng{0};
    CollectionBehavior behavior = CollectionBehavior::kPolicy;
    std::optional<rl::ExplorationSnapshot> snapshot;
  };
  const std::size_t count = rollouts.size();
  std::vector<LaneContext> lanes(count);
  // The refiner's predict_batch scratch is per-batch state, so the batch
  // works on its own copy of the fitted refiner; lend draws come from the
  // per-lane streams, never from this copy's rng.
  envmodel::ModelRefiner refiner = refiner_;
  envmodel::SyntheticEnvBatch synthetic(
      &model_, config_.use_refiner ? &refiner : nullptr, &dataset_,
      env_->consumer_budget());
  for (std::size_t l = 0; l < count; ++l) {
    LaneContext& lane = lanes[l];
    lane.roll_rng = Rng(shard_seed(batch_root, l));
    const std::uint64_t env_seed = lane.roll_rng.next_u64();
    lane.behavior = pick_collection_behavior(config_, lane.roll_rng);
    if (lane.behavior == CollectionBehavior::kPolicy)
      lane.snapshot = agent_.snapshot_exploration(lane.roll_rng);
    std::uint64_t refiner_seed = 0;
    if (config_.use_refiner) refiner_seed = lane.roll_rng.next_u64();
    synthetic.add_lane(env_seed, refiner_seed);
  }
  synthetic.reset_all();

  for (std::vector<SyntheticStep>& rollout : rollouts)
    rollout.reserve(config_.rollout_length);
  std::vector<std::vector<int>> allocations(count);
  for (std::size_t t = 0; t < config_.rollout_length; ++t) {
    for (std::size_t l = 0; l < count; ++l) {
      LaneContext& lane = lanes[l];
      const std::vector<double>& state = synthetic.state(l);
      std::vector<double> weights = behavior_weights(
          lane.behavior, state, env_->action_dim(), lane.roll_rng,
          lane.snapshot ? &*lane.snapshot : nullptr);
      allocations[l] = rl::guarded_allocation(
          weights, env_->consumer_budget(), config_.ddpg.rounding,
          config_.ddpg.min_consumers_per_type);
      rollouts[l].push_back(SyntheticStep{state, std::move(weights), 0.0, {}});
    }
    // The whole batch takes its timestep as one batched model query.
    synthetic.step_all(allocations);
    for (std::size_t l = 0; l < count; ++l) {
      SyntheticStep& step = rollouts[l].back();
      step.reward = synthetic.last_reward(l);
      step.next_state = synthetic.state(l);
    }
  }

  std::size_t violations = 0;
  for (const LaneContext& lane : lanes)
    if (lane.snapshot) violations += lane.snapshot->constraint_violations();
  agent_.record_constraint_violations(violations);
}

void MirasAgent::train_policy_on_model() {
  // Rollouts are *generated* in batches from a frozen policy (each batch
  // snapshots the actor as of the batch start) and *replayed* serially
  // through observe/update. The batch size is config.rollout_batch — an
  // algorithmic knob, never the thread count — and each batch advances as
  // one lockstep group whose lanes' rng streams are functions of the config
  // alone, so no pool placement can change the result.
  const std::size_t total = config_.synthetic_rollouts_per_iteration;
  const std::size_t batch = std::max<std::size_t>(config_.rollout_batch, 1);
  for (std::size_t start = 0; start < total; start += batch) {
    const std::uint64_t batch_root = rng_.next_u64();
    std::vector<std::vector<SyntheticStep>> rollouts(
        std::min(batch, total - start));
    run_synthetic_rollout_batch(batch_root, rollouts);
    for (const std::vector<SyntheticStep>& rollout : rollouts) {
      // An episode boundary: flush pending n-step windows and refresh the
      // perturbed actor so parameter-noise adaptation keeps tracking the
      // updated policy.
      agent_.resample_exploration();
      for (const SyntheticStep& step : rollout) {
        agent_.observe(step.state, step.weights,
                       step.reward * kRewardScale, step.next_state);
        agent_.update(config_.updates_per_synthetic_step);
      }
    }
  }
  agent_.end_episode();
}

double MirasAgent::evaluate_on_real(std::size_t steps) {
  std::vector<double> state = env_->reset();
  double aggregate = 0.0;
  sim::WindowStats window;
  for (std::size_t step = 0; step < steps; ++step) {
    const std::vector<int> allocation =
        agent_.act_allocation(state, /*explore=*/false);
    env_->step(allocation, window);
    aggregate += window.reward;
    state = window.wip;
  }
  return aggregate;
}

IterationTrace MirasAgent::run_iteration() {
  IterationTrace trace;
  trace.iteration = ++iteration_;

  // The first data-collection pass uses uniformly random simplex actions
  // (§VI-B: "actions are randomly selected").
  collect_real_interactions(config_.real_steps_per_iteration,
                            /*random_actions=*/iteration_ == 1);
  trace.dataset_size = dataset_.size();

  trace.model_train_loss = model_.fit(dataset_);
  if (config_.use_refiner) refiner_.fit_thresholds(dataset_);

  train_policy_on_model();

  trace.eval_aggregate_reward = evaluate_on_real(config_.eval_steps);
  trace.parameter_noise_stddev = agent_.parameter_noise_stddev();
  log_info("MIRAS iteration ", trace.iteration, ": |D|=", trace.dataset_size,
           " model_loss=", trace.model_train_loss,
           " eval_reward=", trace.eval_aggregate_reward);
  return trace;
}

std::vector<IterationTrace> MirasAgent::train() {
  std::vector<IterationTrace> traces;
  traces.reserve(config_.outer_iterations);
  for (std::size_t i = 0; i < config_.outer_iterations; ++i)
    traces.push_back(run_iteration());
  return traces;
}

std::unique_ptr<rl::Policy> MirasAgent::make_policy() const {
  return std::make_unique<DdpgPolicy>(&agent_, "miras");
}

void MirasAgent::save_checkpoint(const std::string& path) const {
  persist::CheckpointWriter ckpt;

  persist::BinaryWriter meta;
  meta.u64(config_fingerprint(config_));
  meta.u64(iteration_);
  persist::write_rng_state(meta, rng_.state());
  meta.u64(env_->state_dim());
  meta.u64(env_->action_dim());
  meta.i64(env_->consumer_budget());
  ckpt.add_section("meta", std::move(meta));

  // The real environment's rng streams survive reset(), so they are part of
  // the training trajectory.
  const sim::MicroserviceSystem::RngSnapshot snapshot = env_->rng_snapshot();
  persist::BinaryWriter env;
  persist::write_rng_state(env, snapshot.system);
  persist::write_rng_state(env, snapshot.workload);
  ckpt.add_section("env", std::move(env));

  persist::BinaryWriter dataset;
  dataset_.save_state(dataset);
  ckpt.add_section("dataset", std::move(dataset));

  persist::BinaryWriter model;
  model_.save_state(model);
  ckpt.add_section("model", std::move(model));

  persist::BinaryWriter refiner;
  refiner_.save_state(refiner);
  ckpt.add_section("refiner", std::move(refiner));

  persist::BinaryWriter ddpg;
  agent_.save_state(ddpg);
  ckpt.add_section("ddpg", std::move(ddpg));

  // Serving-surface export: the greedy decision path alone (clean actor,
  // resolved normaliser, action mapping), so serve::load_servable can hoist
  // a production servable straight out of any training checkpoint without
  // understanding the "ddpg" section. Adding a section is backward
  // compatible (checkpoint.h).
  persist::BinaryWriter servable;
  rl::write_servable_export(servable, rl::servable_export(agent_));
  ckpt.add_section("servable", std::move(servable));

  ckpt.write_file(path);
}

void MirasAgent::restore_checkpoint(const std::string& path) {
  const persist::CheckpointReader ckpt = persist::CheckpointReader::open(path);
  if (ckpt.format_version() < persist::kMinResumableFormat)
    throw std::runtime_error(
        "checkpoint: '" + path + "' is format " +
        std::to_string(ckpt.format_version()) + ", " +
        unresumable_reason(ckpt.format_version()) +
        ", so restart training (its servable still loads)");

  persist::BinaryReader meta = ckpt.section("meta");
  const std::uint64_t fingerprint = meta.u64();
  if (fingerprint != config_fingerprint(config_))
    throw std::runtime_error(
        "checkpoint: config fingerprint mismatch — '" + path +
        "' was written by a run with a different MirasConfig; resuming "
        "under a changed config would break the bit-identity contract");
  const std::uint64_t iteration = meta.u64();
  const RngState rng_state = persist::read_rng_state(meta);
  const std::uint64_t state_dim = meta.u64();
  const std::uint64_t action_dim = meta.u64();
  const std::int64_t budget = meta.i64();
  meta.expect_end();
  if (state_dim != env_->state_dim() || action_dim != env_->action_dim() ||
      budget != env_->consumer_budget())
    throw std::runtime_error(
        "checkpoint: environment mismatch — '" + path + "' was written for " +
        std::to_string(state_dim) + " states / " + std::to_string(action_dim) +
        " actions / budget " + std::to_string(budget) +
        ", but this agent's environment differs");

  persist::BinaryReader env = ckpt.section("env");
  sim::MicroserviceSystem::RngSnapshot env_snapshot;
  env_snapshot.system = persist::read_rng_state(env);
  env_snapshot.workload = persist::read_rng_state(env);
  env.expect_end();

  // All validation that can fail happened above or happens inside the
  // sectioned restore_state calls *before* any partial mutation of that
  // component; a throw from here on still aborts the restore as a whole, so
  // callers must treat a failed restore as fatal rather than continuing
  // with the half-restored agent.
  persist::BinaryReader dataset = ckpt.section("dataset");
  dataset_.restore_state(dataset);
  dataset.expect_end();

  persist::BinaryReader model = ckpt.section("model");
  model_.restore_state(model);
  model.expect_end();

  persist::BinaryReader refiner = ckpt.section("refiner");
  refiner_.restore_state(refiner);
  refiner.expect_end();

  persist::BinaryReader ddpg = ckpt.section("ddpg");
  agent_.restore_state(ddpg);
  ddpg.expect_end();

  iteration_ = static_cast<std::size_t>(iteration);
  rng_.set_state(rng_state);
  env_->restore_rng_snapshot(env_snapshot);
}

MirasAgent MirasAgent::resume(sim::MicroserviceSystem* env, MirasConfig config,
                              const std::string& path) {
  MirasAgent agent(env, std::move(config));
  agent.restore_checkpoint(path);
  return agent;
}

rl::DdpgAgent train_model_free_ddpg(sim::MicroserviceSystem& env,
                                    const ModelFreeConfig& config) {
  rl::DdpgAgent agent(env.state_dim(), env.action_dim(),
                      env.consumer_budget(), config.ddpg);
  std::vector<double> state = env.reset();
  agent.resample_exploration();
  sim::WindowStats window;
  for (std::size_t step = 0; step < config.total_steps; ++step) {
    const std::vector<double> weights = agent.act(state, /*explore=*/true);
    const std::vector<int> allocation = rl::guarded_allocation(
        weights, env.consumer_budget(), config.ddpg.rounding,
        config.ddpg.min_consumers_per_type);
    env.step(allocation, window);
    agent.observe(state, weights, window.reward * kRewardScale, window.wip);
    agent.update(config.updates_per_step);
    state = window.wip;
    if ((step + 1) % config.reset_interval == 0 &&
        step + 1 < config.total_steps) {
      state = env.reset();
      agent.resample_exploration();
    }
  }
  agent.end_episode();
  return agent;
}

DdpgPolicy::DdpgPolicy(const rl::DdpgAgent* agent, std::string policy_name)
    : agent_(agent), name_(std::move(policy_name)) {
  MIRAS_EXPECTS(agent != nullptr);
}

std::vector<int> DdpgPolicy::decide(const sim::WindowStats& last_window,
                                    int budget) {
  MIRAS_EXPECTS(budget == agent_->consumer_budget());
  // The const greedy path: many evaluation-grid cells share one trained
  // agent concurrently, so the policy must not touch the agent's rng. Each
  // policy instance owns its scratch, so a grid cell reuses one workspace.
  return agent_->act_allocation_greedy(last_window.wip, scratch_);
}

}  // namespace miras::core
