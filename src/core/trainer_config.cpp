#include "core/trainer_config.h"

#include "persist/binary_io.h"
#include "persist/crc32.h"

namespace miras::core {

MirasConfig miras_msd_config() {
  MirasConfig config;
  config.model.hidden_dims = {20, 20, 20};  // 3-layer, 20 neurons (§VI-A3)
  config.ddpg.actor_hidden = {256, 256, 256};
  config.ddpg.critic_hidden = {256, 256, 256};
  config.outer_iterations = 11;
  config.real_steps_per_iteration = 1000;
  config.reset_interval = 25;
  config.rollout_length = 25;
  config.eval_steps = 25;
  return config;
}

MirasConfig miras_ligo_config() {
  MirasConfig config;
  config.model.hidden_dims = {20};  // 1-layer: LIGO overfits bigger models
  config.ddpg.actor_hidden = {512, 512, 512};
  config.ddpg.critic_hidden = {512, 512, 512};
  // LIGO chains are 5-7 task types deep; credit for serving an upstream
  // queue needs a correspondingly long multi-step return, and a stronger
  // entropy barrier against 9-way softmax corner collapse.
  config.ddpg.n_step = 10;
  config.ddpg.actor_entropy_coef = 0.5;
  config.outer_iterations = 11;
  config.real_steps_per_iteration = 2000;
  config.reset_interval = 25;
  config.rollout_length = 10;
  config.eval_steps = 100;
  return config;
}

namespace {
MirasConfig shrink(MirasConfig config) {
  config.ddpg.actor_hidden = {64, 64};
  config.ddpg.critic_hidden = {64, 64};
  config.model.epochs = 25;
  config.outer_iterations = 8;
  config.real_steps_per_iteration = 500;
  config.synthetic_rollouts_per_iteration = 100;
  config.eval_steps = 25;
  return config;
}
}  // namespace

MirasConfig miras_msd_fast_config() {
  MirasConfig config = shrink(miras_msd_config());
  config.rollout_length = 25;
  return config;
}

MirasConfig miras_ligo_fast_config() {
  MirasConfig config = shrink(miras_ligo_config());
  // Settings validated to reproduce the Figure 6b/8 shape at reduced scale:
  // a 2x32 dynamics model (our dataset is ~100x smaller than the paper's
  // 37k samples, so the 1x20 paper model underfits it less but the policy
  // benefits from the extra fidelity), longer rollouts for the deep DAGs,
  // and 96-wide actor/critic.
  config.model.hidden_dims = {32, 32};
  config.ddpg.actor_hidden = {96, 96};
  config.ddpg.critic_hidden = {96, 96};
  config.outer_iterations = 6;
  config.real_steps_per_iteration = 600;
  config.synthetic_rollouts_per_iteration = 100;
  config.rollout_length = 25;
  config.eval_steps = 40;
  config.collection_burst_max = 120;
  return config;
}

std::uint64_t config_fingerprint(const MirasConfig& config) {
  persist::BinaryWriter out;
  out.vec_u64({config.model.hidden_dims.begin(), config.model.hidden_dims.end()});
  out.f64(config.model.learning_rate);
  out.u64(config.model.batch_size);
  out.u64(config.model.epochs);
  out.u64(config.model.seed);

  out.f64(config.refiner.percentile_p);
  out.u64(config.refiner.seed);

  const rl::DdpgConfig& d = config.ddpg;
  out.vec_u64({d.actor_hidden.begin(), d.actor_hidden.end()});
  out.vec_u64({d.critic_hidden.begin(), d.critic_hidden.end()});
  out.f64(d.actor_learning_rate);
  out.f64(d.critic_learning_rate);
  out.f64(d.actor_entropy_coef);
  out.f64(d.gamma);
  out.u64(d.n_step);
  out.u64(d.batch_size);
  out.u64(d.replay_capacity);
  out.u64(d.warmup);
  out.u64(static_cast<std::uint64_t>(d.exploration));
  out.f64(d.parameter_noise_initial);
  out.f64(d.action_noise_stddev);
  out.f64(d.epsilon_random);
  out.f64(d.epsilon_demo);
  out.boolean(d.log_state_features);
  out.u64(static_cast<std::uint64_t>(d.rounding));
  out.i64(d.min_consumers_per_type);
  out.u64(d.seed);

  out.u64(config.outer_iterations);
  out.u64(config.real_steps_per_iteration);
  out.u64(config.reset_interval);
  out.u64(config.rollout_length);
  out.u64(config.synthetic_rollouts_per_iteration);
  out.u64(config.updates_per_synthetic_step);
  out.u64(config.eval_steps);
  out.f64(config.random_episode_fraction);
  out.f64(config.demo_episode_fraction);
  out.boolean(config.use_refiner);
  out.u64(config.rollout_batch);
  out.f64(config.collection_burst_probability);
  out.u64(config.collection_burst_max);
  out.u64(config.seed);

  const std::vector<std::uint8_t>& bytes = out.bytes();
  return persist::fnv1a64(bytes.data(), bytes.size());
}

}  // namespace miras::core
