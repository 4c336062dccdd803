#include "rl/ddpg.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "persist/checkpoint.h"

namespace miras::rl {

namespace {
// Floors the normaliser's scale so low-variance dimensions (and the
// empty-statistics cold start) cannot blow up the network inputs and
// saturate the softmax head. In raw-WIP space one task is the natural unit;
// log1p features live on a ~[0, 8] scale, so the floor shrinks with them.
constexpr double kMinStddevRaw = 1.0;
constexpr double kMinStddevLog = 0.1;

// Exponential spacings: a uniform draw from the probability simplex.
std::vector<double> uniform_simplex_point(std::size_t dim, Rng& rng) {
  std::vector<double> weights(dim);
  double total = 0.0;
  for (double& w : weights) {
    w = rng.exponential(1.0);
    total += w;
  }
  for (double& w : weights) w /= total;
  return weights;
}

// WIP-proportional demonstration weights (+1 keeps idle queues warm; mild
// noise varies the demonstrations).
std::vector<double> wip_proportional_weights(const std::vector<double>& state,
                                             std::size_t dim, Rng& rng) {
  std::vector<double> weights(dim);
  double total = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    weights[j] = (std::max(state[j], 0.0) + 1.0) * rng.uniform(0.75, 1.25);
    total += weights[j];
  }
  for (double& w : weights) w /= total;
  return weights;
}

// The would-be allocation a raw (possibly off-simplex) weight vector maps
// to if consumed verbatim; used to count action-noise budget violations.
bool raw_weights_violate_budget(const std::vector<double>& weights,
                                int budget) {
  std::vector<int> raw_counts(weights.size());
  for (std::size_t j = 0; j < weights.size(); ++j)
    raw_counts[j] = static_cast<int>(
        std::floor(static_cast<double>(budget) * weights[j]));
  return !satisfies_budget(raw_counts, budget);
}
}

DdpgAgent::DdpgAgent(std::size_t state_dim, std::size_t action_dim,
                     int consumer_budget, DdpgConfig config)
    : state_dim_(state_dim),
      action_dim_(action_dim),
      consumer_budget_(consumer_budget),
      config_(std::move(config)),
      rng_(config_.seed),
      actor_optimizer_(config_.actor_learning_rate),
      critic_optimizer_(config_.critic_learning_rate),
      critic2_optimizer_(config_.critic_learning_rate),
      replay_(config_.replay_capacity),
      parameter_noise_(config_.parameter_noise_initial,
                       config_.parameter_noise_target_distance),
      action_noise_(config_.action_noise_stddev),
      state_stats_(state_dim) {
  MIRAS_EXPECTS(state_dim > 0);
  MIRAS_EXPECTS(action_dim > 0);
  MIRAS_EXPECTS(consumer_budget > 0);
  MIRAS_EXPECTS(config_.gamma >= 0.0 && config_.gamma < 1.0);
  MIRAS_EXPECTS(config_.tau > 0.0 && config_.tau <= 1.0);
  pending_slots_.resize(std::max<std::size_t>(config_.n_step, 1));

  nn::MlpSpec actor_spec;
  actor_spec.input_dim = state_dim;
  actor_spec.hidden_dims = config_.actor_hidden;
  actor_spec.output_dim = action_dim;
  actor_spec.hidden_activation = nn::Activation::kRelu;
  actor_spec.output_activation = nn::Activation::kSoftmax;
  actor_ = nn::Network(actor_spec, rng_);
  actor_.layers().back().weights() *= config_.actor_final_layer_scale;
  actor_target_ = actor_;
  perturbed_actor_ = actor_;

  nn::CriticSpec critic_spec;
  critic_spec.state_dim = state_dim;
  critic_spec.action_dim = action_dim;
  critic_spec.hidden_dims = config_.critic_hidden;
  critic_ = nn::CriticNetwork(critic_spec, rng_);
  critic_target_ = critic_;
  if (config_.twin_critics) {
    critic2_ = nn::CriticNetwork(critic_spec, rng_);  // independent init
    critic2_target_ = critic2_;
  }
}

double DdpgAgent::state_feature(double raw) const {
  return config_.log_state_features ? std::log1p(std::max(raw, 0.0)) : raw;
}

std::vector<double> DdpgAgent::normalize_state(
    const std::vector<double>& state) const {
  MIRAS_EXPECTS(state.size() == state_dim_);
  std::vector<double> normalized(state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) {
    const double feature = state_feature(state[j]);
    if (state_stats_[j].count() < 2) {
      normalized[j] = feature;  // no statistics yet: pass through
      continue;
    }
    const double floor =
        config_.log_state_features ? kMinStddevLog : kMinStddevRaw;
    const double mean = state_stats_[j].mean();
    const double stddev = std::max(state_stats_[j].stddev(), floor);
    normalized[j] = (feature - mean) / stddev;
  }
  return normalized;
}

void DdpgAgent::normalize_states_into(
    const std::vector<const Experience*>& batch, bool next,
    nn::Tensor& out) const {
  out.resize(batch.size(), state_dim_);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const auto& raw = next ? batch[b]->next_state : batch[b]->state;
    MIRAS_EXPECTS(raw.size() == state_dim_);
    // Mirrors normalize_state() element for element, writing rows in place.
    for (std::size_t j = 0; j < state_dim_; ++j) {
      const double feature = state_feature(raw[j]);
      if (state_stats_[j].count() < 2) {
        out(b, j) = feature;
        continue;
      }
      const double floor =
          config_.log_state_features ? kMinStddevLog : kMinStddevRaw;
      const double mean = state_stats_[j].mean();
      const double stddev = std::max(state_stats_[j].stddev(), floor);
      out(b, j) = (feature - mean) / stddev;
    }
  }
}

std::vector<double> DdpgAgent::act(const std::vector<double>& state,
                                   bool explore) {
  if (!explore || config_.exploration == ExplorationMode::kNone)
    return act_greedy(state);

  const double roll = rng_.uniform();
  if (roll < config_.epsilon_random) return random_simplex_action();
  if (roll < config_.epsilon_random + config_.epsilon_demo)
    return proportional_demo_action(state);

  const std::vector<double> normalized = normalize_state(state);
  if (config_.exploration == ExplorationMode::kParameterNoise) {
    perturbed_actor_.predict_one(normalized, ws_, act_scratch_);
    return act_scratch_;
  }

  // Action-space noise: perturb the clean action. The perturbed weights can
  // leave the simplex; count the would-be constraint violations that the
  // paper observes with this exploration mode (§IV-D).
  actor_.predict_one(normalized, ws_, act_scratch_);
  std::vector<double> noisy = action_noise_.apply(act_scratch_, rng_);
  if (raw_weights_violate_budget(noisy, consumer_budget_))
    ++constraint_violations_;
  return noisy;
}

std::vector<double> DdpgAgent::act_greedy(
    const std::vector<double>& state) const {
  return actor_.predict_one(normalize_state(state));
}

std::vector<int> DdpgAgent::weights_to_allocation(
    const std::vector<double>& weights) const {
  std::vector<int> allocation =
      allocation_from_weights(weights, consumer_budget_, config_.rounding);
  if (config_.min_consumers_per_type > 0 &&
      consumer_budget_ >= config_.min_consumers_per_type *
                              static_cast<int>(action_dim_)) {
    enforce_minimum_allocation(allocation, config_.min_consumers_per_type,
                               consumer_budget_);
  }
  return allocation;
}

std::vector<int> DdpgAgent::act_allocation(const std::vector<double>& state,
                                           bool explore) {
  return weights_to_allocation(act(state, explore));
}

std::vector<int> DdpgAgent::act_allocation_greedy(
    const std::vector<double>& state) const {
  return weights_to_allocation(act_greedy(state));
}

BehaviorSnapshot DdpgAgent::behavior_snapshot() const {
  BehaviorSnapshot snap;
  snap.exploration = config_.exploration;
  snap.epsilon_random = config_.epsilon_random;
  snap.epsilon_demo = config_.epsilon_demo;
  snap.action_noise_stddev = config_.action_noise_stddev;
  snap.parameter_noise_stddev = parameter_noise_.stddev();
  snap.log_state_features = config_.log_state_features;
  snap.consumer_budget = consumer_budget_;
  snap.action_dim = action_dim_;
  snap.policy = actor_;
  // Resolve the normaliser into a plain affine map so the snapshot neither
  // references the agent nor repeats the flooring logic per call.
  snap.shift.resize(state_dim_);
  snap.scale.resize(state_dim_);
  const double floor =
      config_.log_state_features ? kMinStddevLog : kMinStddevRaw;
  for (std::size_t j = 0; j < state_dim_; ++j) {
    if (state_stats_[j].count() < 2) {
      snap.shift[j] = 0.0;
      snap.scale[j] = 1.0;
    } else {
      snap.shift[j] = state_stats_[j].mean();
      snap.scale[j] = std::max(state_stats_[j].stddev(), floor);
    }
  }
  return snap;
}

ExplorationSnapshot BehaviorSnapshot::instantiate(Rng& rng) const {
  ExplorationSnapshot snapshot;
  snapshot.exploration_ = exploration;
  snapshot.epsilon_random_ = epsilon_random;
  snapshot.epsilon_demo_ = epsilon_demo;
  snapshot.action_noise_stddev_ = action_noise_stddev;
  snapshot.log_state_features_ = log_state_features;
  snapshot.consumer_budget_ = consumer_budget;
  snapshot.action_dim_ = action_dim;
  snapshot.policy_ = policy;
  if (exploration == ExplorationMode::kParameterNoise)
    snapshot.policy_.perturb_parameters(parameter_noise_stddev, rng);
  snapshot.shift_ = shift;
  snapshot.scale_ = scale;
  return snapshot;
}

void BehaviorSnapshot::save_state(persist::BinaryWriter& out) const {
  out.u8(static_cast<std::uint8_t>(exploration));
  out.f64(epsilon_random);
  out.f64(epsilon_demo);
  out.f64(action_noise_stddev);
  out.f64(parameter_noise_stddev);
  out.boolean(log_state_features);
  out.i64(consumer_budget);
  out.u64(action_dim);
  nn::write_network(out, policy);
  out.vec_f64(shift);
  out.vec_f64(scale);
}

void BehaviorSnapshot::restore_state(persist::BinaryReader& in) {
  const std::uint8_t mode = in.u8();
  if (mode > static_cast<std::uint8_t>(ExplorationMode::kActionNoise))
    throw std::runtime_error(
        "persist: malformed exploration mode in behaviour snapshot");
  exploration = static_cast<ExplorationMode>(mode);
  epsilon_random = in.f64();
  epsilon_demo = in.f64();
  action_noise_stddev = in.f64();
  parameter_noise_stddev = in.f64();
  log_state_features = in.boolean();
  consumer_budget = static_cast<int>(in.i64());
  action_dim = static_cast<std::size_t>(in.u64());
  policy = nn::read_network(in);
  in.vec_f64_into(shift);
  in.vec_f64_into(scale);
  if (shift.size() != scale.size())
    throw std::runtime_error(
        "persist: behaviour snapshot normaliser shape mismatch");
}

ExplorationSnapshot DdpgAgent::snapshot_exploration(Rng& rng) const {
  return behavior_snapshot().instantiate(rng);
}

const std::vector<double>& ExplorationSnapshot::normalize(
    const std::vector<double>& state) {
  MIRAS_EXPECTS(state.size() == shift_.size());
  norm_.resize(state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    const double feature = log_state_features_
                               ? std::log1p(std::max(state[j], 0.0))
                               : state[j];
    norm_[j] = (feature - shift_[j]) / scale_[j];
  }
  return norm_;
}

std::vector<double> ExplorationSnapshot::act(const std::vector<double>& state,
                                             Rng& rng) {
  if (exploration_ == ExplorationMode::kNone) {
    std::vector<double> out;
    policy_.predict_one(normalize(state), ws_, out);
    return out;
  }

  const double roll = rng.uniform();
  if (roll < epsilon_random_) return uniform_simplex_point(action_dim_, rng);
  if (roll < epsilon_random_ + epsilon_demo_)
    return wip_proportional_weights(state, action_dim_, rng);

  if (exploration_ == ExplorationMode::kParameterNoise) {
    std::vector<double> out;
    policy_.predict_one(normalize(state), ws_, out);
    return out;
  }

  std::vector<double> clean;
  policy_.predict_one(normalize(state), ws_, clean);
  const GaussianActionNoise noise(action_noise_stddev_);
  std::vector<double> noisy = noise.apply(clean, rng);
  if (raw_weights_violate_budget(noisy, consumer_budget_)) ++violations_;
  return noisy;
}

void DdpgAgent::observe(const std::vector<double>& state,
                        const std::vector<double>& action, double reward,
                        const std::vector<double>& next_state) {
  MIRAS_EXPECTS(state.size() == state_dim_);
  MIRAS_EXPECTS(action.size() == action_dim_);
  MIRAS_EXPECTS(next_state.size() == state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j)
    state_stats_[j].add(state_feature(state[j]));
  if (!any_reward_seen_) {
    min_reward_seen_ = reward;
    max_reward_seen_ = reward;
    any_reward_seen_ = true;
  } else {
    min_reward_seen_ = std::min(min_reward_seen_, reward);
    max_reward_seen_ = std::max(max_reward_seen_, reward);
  }
  MIRAS_EXPECTS(pending_count_ < pending_slots_.size());
  Experience& slot = pending_at(pending_count_);
  slot.state.assign(state.begin(), state.end());
  slot.action.assign(action.begin(), action.end());
  slot.reward = reward;
  slot.next_state.assign(next_state.begin(), next_state.end());
  slot.discount = 0.0;
  ++pending_count_;
  if (pending_count_ >= std::max<std::size_t>(config_.n_step, 1))
    mature_front_transition();
}

void DdpgAgent::mature_front_transition() {
  MIRAS_EXPECTS(pending_count_ > 0);
  // The front transition matures over the whole pending window:
  // R = sum_i gamma^i r_i, bootstrapping from the window's last next_state.
  const Experience& front = pending_slots_[pending_head_];
  double reward = front.reward;
  double factor = config_.gamma;
  for (std::size_t i = 1; i < pending_count_; ++i) {
    reward += factor * pending_at(i).reward;
    factor *= config_.gamma;
  }
  replay_.append_copy(front.state, front.action, reward,
                      pending_at(pending_count_ - 1).next_state, factor);
  pending_head_ = (pending_head_ + 1) % pending_slots_.size();
  --pending_count_;
}

void DdpgAgent::end_episode() {
  // Mature the remaining transitions with progressively shorter horizons.
  while (pending_count_ > 0) mature_front_transition();
}

void DdpgAgent::observe_state_only(const std::vector<double>& state) {
  MIRAS_EXPECTS(state.size() == state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j)
    state_stats_[j].add(state_feature(state[j]));
}

void DdpgAgent::enable_parallel_training(common::ThreadPool* pool) {
  pool_ = pool;
}

double DdpgAgent::update(std::size_t count) {
  if (replay_.size() < std::max(config_.warmup, config_.batch_size))
    return 0.0;

  double critic_loss_sum = 0.0;
  std::size_t ran = 0;
  for (std::size_t step = 0; step < count; ++step) {
    replay_.sample_into(config_.batch_size, rng_, batch_scratch_);
    const std::size_t b_size = batch_scratch_.size();
    const std::size_t blocks = nn::num_row_blocks(b_size);
    if (critic_passes_.size() < blocks) {
      critic_passes_.resize(blocks);
      critic2_passes_.resize(blocks);
      actor_passes_.resize(blocks);
    }

    normalize_states_into(batch_scratch_, /*next=*/false, batch_states_);
    normalize_states_into(batch_scratch_, /*next=*/true, batch_next_states_);
    batch_actions_.resize(b_size, action_dim_);
    for (std::size_t b = 0; b < b_size; ++b)
      batch_actions_.set_row(b, batch_scratch_[b]->action);

    // Any true Q lies in [min_r, max_r] / (1 - gamma); clamping the
    // bootstrapped target to that box prevents value divergence (the
    // deadly-triad runaway that otherwise swamps dQ/da with noise). The
    // bound also holds for n-step targets: partial sum + gamma^n * Q stays
    // inside the same geometric envelope.
    const double q_floor = min_reward_seen_ / (1.0 - config_.gamma);
    const double q_ceil = max_reward_seen_ / (1.0 - config_.gamma);

    // ---- Critic update: y = R + gamma^n * min_i Q_i'(s', ~mu'(s')).
    // Each gradient block computes its own rows' targets (target-network
    // inference is row-sliced, bit-identical to a full-batch pass by the
    // kernel invariant) and then runs the TD forward+backward into its
    // TrainPass; block gradients reduce in ascending order before one
    // optimizer step, so the pool never shows in the weights.
    nn::for_each_block(pool_, blocks, [&](std::size_t m) {
      nn::TrainPass& pass = critic_passes_[m];
      const nn::RowRange rows = nn::row_block(b_size, m);
      // Targets for this block's rows: ~mu'(s') then min_i Q_i'.
      nn::copy_rows(batch_next_states_, rows, pass.in);
      actor_target_.predict_batch(pass.in, pass.ws, pass.out);
      if (config_.target_policy_smoothing > 0.0) {
        // Mix the bootstrap action with uniform so the target values a
        // small neighbourhood of the policy, not a knife-edge corner.
        const double kappa = config_.target_policy_smoothing;
        const double uniform_mass = kappa / static_cast<double>(action_dim_);
        for (std::size_t r = 0; r < rows.size(); ++r)
          for (std::size_t j = 0; j < action_dim_; ++j)
            pass.out(r, j) = (1.0 - kappa) * pass.out(r, j) + uniform_mass;
      }
      critic_target_.predict_batch(pass.in, pass.out, pass.ws, pass.target);
      if (config_.twin_critics) {
        critic2_target_.predict_batch(pass.in, pass.out, pass.ws,
                                      pass.loss_grad);
        for (std::size_t r = 0; r < rows.size(); ++r)
          pass.target(r, 0) = std::min(pass.target(r, 0), pass.loss_grad(r, 0));
      }
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const Experience* e = batch_scratch_[rows.begin + r];
        pass.target(r, 0) = std::clamp(
            e->reward + e->discount * pass.target(r, 0), q_floor, q_ceil);
      }
      // TD forward+backward for both critics on this block's rows.
      nn::prepare_pass(critic_.layers(), pass);
      nn::copy_rows(batch_states_, rows, pass.in);
      nn::copy_rows(batch_actions_, rows, pass.actions);
      const nn::Tensor& q_values =
          critic_.forward_shard(pass.in, pass.actions, pass);
      pass.loss = nn::huber_loss_partial_into(q_values, pass.target, 10.0,
                                              b_size, pass.loss_grad);
      critic_.backward_shard(pass.in, pass.actions, pass.loss_grad, pass);
      if (config_.twin_critics) {
        nn::TrainPass& pass2 = critic2_passes_[m];
        nn::prepare_pass(critic2_.layers(), pass2);
        const nn::Tensor& q2_values =
            critic2_.forward_shard(pass.in, pass.actions, pass2);
        nn::huber_loss_partial_into(q2_values, pass.target, 10.0, b_size,
                                    pass2.loss_grad);
        critic2_.backward_shard(pass.in, pass.actions, pass2.loss_grad, pass2);
      }
    });
    double critic_loss = 0.0;
    for (std::size_t m = 0; m < blocks; ++m)
      critic_loss += critic_passes_[m].loss;
    // Fused zero + reduce + clip + step per critic: one serial tail between
    // pool barriers instead of three full parameter walks each.
    critic_.sharded_update(critic_passes_, blocks, config_.grad_clip,
                           critic_optimizer_);
    critic_loss_sum += critic_loss;

    if (config_.twin_critics)
      critic2_.sharded_update(critic2_passes_, blocks, config_.grad_clip,
                              critic2_optimizer_);

    ++updates_performed_;
    ++ran;

    // ---- Delayed actor + target updates (TD3).
    if (updates_performed_ % std::max<std::size_t>(config_.policy_delay, 1) !=
        0)
      continue;

    // The critic is only a conduit for dQ/da here: its per-block conduit
    // gradients land in critic_passes_[m].grads and are simply never
    // reduced, so the critic's own buffers stay untouched.
    nn::for_each_block(pool_, blocks, [&](std::size_t m) {
      nn::TrainPass& apass = actor_passes_[m];
      nn::TrainPass& cpass = critic_passes_[m];
      const nn::RowRange rows = nn::row_block(b_size, m);
      nn::prepare_pass(actor_.layers(), apass);
      nn::prepare_pass(critic_.layers(), cpass);
      nn::copy_rows(batch_states_, rows, apass.in);
      const nn::Tensor& policy_actions =
          actor_.forward_shard(apass.in, apass);
      (void)critic_.forward_shard(apass.in, policy_actions, cpass);
      cpass.loss_grad.resize(rows.size(), 1);
      cpass.loss_grad.fill(-1.0 / static_cast<double>(b_size));  // max mean Q
      critic_.backward_shard(apass.in, policy_actions, cpass.loss_grad, cpass);
      if (config_.actor_entropy_coef > 0.0) {
        // loss += beta * sum_j a_j log a_j (negative entropy), averaged over
        // the batch; d/da_j = beta * (log a_j + 1).
        const double beta =
            config_.actor_entropy_coef / static_cast<double>(b_size);
        for (std::size_t r = 0; r < rows.size(); ++r)
          for (std::size_t j = 0; j < action_dim_; ++j)
            cpass.grad_actions(r, j) +=
                beta * (std::log(std::max(policy_actions(r, j), 1e-12)) + 1.0);
      }
      actor_.backward_shard(apass.in, cpass.grad_actions, apass);
    });
    actor_.sharded_update(actor_passes_, blocks, config_.grad_clip,
                          actor_optimizer_);
    if (config_.actor_logit_decay > 0.0) {
      nn::DenseLayer& head = actor_.layers().back();
      const double keep = 1.0 - config_.actor_logit_decay;
      head.weights() *= keep;
      head.bias() *= keep;
    }

    // ---- Target networks.
    actor_target_.soft_update_from(actor_, config_.tau);
    critic_target_.soft_update_from(critic_, config_.tau);
    if (config_.twin_critics)
      critic2_target_.soft_update_from(critic2_, config_.tau);

    if (config_.exploration == ExplorationMode::kParameterNoise)
      adapt_parameter_noise();
  }
  return ran > 0 ? critic_loss_sum / static_cast<double>(ran) : 0.0;
}

std::vector<double> DdpgAgent::proportional_demo_action(
    const std::vector<double>& state) {
  return wip_proportional_weights(state, action_dim_, rng_);
}

std::vector<double> DdpgAgent::random_simplex_action() {
  return uniform_simplex_point(action_dim_, rng_);
}

void DdpgAgent::adapt_parameter_noise() {
  if (replay_.empty()) return;
  // Measure the action-space distance induced by the current perturbation
  // on a small probe batch, then steer sigma toward the target distance.
  const std::size_t probe = std::min<std::size_t>(16, replay_.size());
  replay_.sample_into(probe, rng_, batch_scratch_);
  normalize_states_into(batch_scratch_, /*next=*/false, batch_states_);
  // ws_.c / ws_.d double as the clean/perturbed probe outputs here; the
  // refiner never shares this workspace.
  actor_.predict_batch(batch_states_, ws_, ws_.c);
  perturbed_actor_.predict_batch(batch_states_, ws_, ws_.d);
  double distance_sum = 0.0;
  for (std::size_t b = 0; b < batch_scratch_.size(); ++b) {
    double sq = 0.0;
    for (std::size_t j = 0; j < action_dim_; ++j) {
      const double diff = ws_.c(b, j) - ws_.d(b, j);
      sq += diff * diff;
    }
    distance_sum += std::sqrt(sq);
  }
  parameter_noise_.adapt(distance_sum /
                         static_cast<double>(batch_scratch_.size()));
}

void DdpgAgent::refresh_perturbed_actor() {
  perturbed_actor_ = actor_;
  perturbed_actor_.perturb_parameters(parameter_noise_.stddev(), rng_);
}

void DdpgAgent::resample_exploration() {
  end_episode();  // an episode boundary: never blend returns across it
  if (config_.exploration == ExplorationMode::kParameterNoise)
    refresh_perturbed_actor();
}

double DdpgAgent::q_value(const std::vector<double>& state,
                          const std::vector<double>& action) const {
  return critic_.predict_one(normalize_state(state), action);
}

void DdpgAgent::save_state(persist::BinaryWriter& out) const {
  // Identity of the agent this state belongs to; validated on restore so a
  // checkpoint can never be silently restored into a mismatched agent.
  out.u64(state_dim_);
  out.u64(action_dim_);
  out.i64(consumer_budget_);
  out.boolean(config_.twin_critics);

  persist::write_rng_state(out, rng_.state());

  nn::write_network(out, actor_);
  nn::write_network(out, actor_target_);
  nn::write_network(out, perturbed_actor_);
  nn::write_critic(out, critic_);
  nn::write_critic(out, critic_target_);
  if (config_.twin_critics) {
    nn::write_critic(out, critic2_);
    nn::write_critic(out, critic2_target_);
  }

  actor_optimizer_.save_state(out);
  critic_optimizer_.save_state(out);
  if (config_.twin_critics) critic2_optimizer_.save_state(out);

  replay_.save_state(out);

  out.u64(pending_count_);
  for (std::size_t i = 0; i < pending_count_; ++i)
    write_experience(out, pending_at(i));

  out.f64(parameter_noise_.stddev());

  out.u64(state_stats_.size());
  for (const RunningStats& s : state_stats_) {
    out.u64(s.count());
    out.f64(s.mean());
    out.f64(s.m2());
    out.f64(s.min());
    out.f64(s.max());
  }

  out.f64(min_reward_seen_);
  out.f64(max_reward_seen_);
  out.boolean(any_reward_seen_);
  out.u64(updates_performed_);
  out.u64(constraint_violations_);
}

void DdpgAgent::restore_state(persist::BinaryReader& in) {
  const std::uint64_t state_dim = in.u64();
  const std::uint64_t action_dim = in.u64();
  const std::int64_t budget = in.i64();
  const bool twin = in.boolean();
  if (state_dim != state_dim_ || action_dim != action_dim_ ||
      budget != consumer_budget_ || twin != config_.twin_critics)
    throw std::runtime_error(
        "checkpoint: DDPG agent shape mismatch — saved (state_dim=" +
        std::to_string(state_dim) + ", action_dim=" +
        std::to_string(action_dim) + ", budget=" + std::to_string(budget) +
        ", twin_critics=" + (twin ? "true" : "false") +
        ") does not match this agent's configuration");

  rng_.set_state(persist::read_rng_state(in));

  actor_ = nn::read_network(in);
  actor_target_ = nn::read_network(in);
  perturbed_actor_ = nn::read_network(in);
  critic_ = nn::read_critic(in);
  critic_target_ = nn::read_critic(in);
  if (config_.twin_critics) {
    critic2_ = nn::read_critic(in);
    critic2_target_ = nn::read_critic(in);
  }

  actor_optimizer_.restore_state(in);
  critic_optimizer_.restore_state(in);
  if (config_.twin_critics) critic2_optimizer_.restore_state(in);

  replay_.restore_state(in);

  const std::uint64_t pending_count = in.u64();
  if (pending_count > pending_slots_.size())
    throw std::runtime_error(
        "checkpoint: pending n-step window larger than n_step — corrupted "
        "data or config mismatch");
  pending_head_ = 0;
  pending_count_ = static_cast<std::size_t>(pending_count);
  for (std::uint64_t i = 0; i < pending_count; ++i)
    pending_slots_[i] = read_experience(in);

  parameter_noise_.set_stddev(in.f64());

  const std::uint64_t stats_count = in.u64();
  if (stats_count != state_stats_.size())
    throw std::runtime_error(
        "checkpoint: state normaliser dimension mismatch (saved " +
        std::to_string(stats_count) + ", expected " +
        std::to_string(state_stats_.size()) + ")");
  for (RunningStats& s : state_stats_) {
    const std::uint64_t count = in.u64();
    const double mean = in.f64();
    const double m2 = in.f64();
    const double min = in.f64();
    const double max = in.f64();
    s = RunningStats::from_moments(static_cast<std::size_t>(count), mean, m2,
                                   min, max);
  }

  min_reward_seen_ = in.f64();
  max_reward_seen_ = in.f64();
  any_reward_seen_ = in.boolean();
  updates_performed_ = in.u64();
  constraint_violations_ = in.u64();
}

ServableExport servable_export(const DdpgAgent& agent) {
  return ServableExport{agent.behavior_snapshot(), agent.config().rounding,
                        agent.config().min_consumers_per_type};
}

void write_servable_export(persist::BinaryWriter& out,
                           const ServableExport& exported) {
  exported.behavior.save_state(out);
  out.u8(static_cast<std::uint8_t>(exported.rounding));
  out.i64(exported.min_consumers_per_type);
}

ServableExport read_servable_export(persist::BinaryReader& in) {
  ServableExport exported;
  exported.behavior.restore_state(in);
  const std::uint8_t mode = in.u8();
  if (mode > static_cast<std::uint8_t>(RoundingMode::kLargestRemainder))
    throw std::runtime_error(
        "persist: malformed rounding mode in servable export");
  exported.rounding = static_cast<RoundingMode>(mode);
  exported.min_consumers_per_type = static_cast<int>(in.i64());
  return exported;
}

}  // namespace miras::rl
