#include "rl/ddpg.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

// The actor's output layer weights are scaled by this at construction so
// the initial policy is near-uniform and the softmax starts far from its
// saturating corners (where dQ/da gradients vanish and the policy would
// freeze on one microservice).
constexpr double kActorFinalLayerScale = 0.1;
// Decoupled weight decay applied to the actor's final (logit) layer each
// update. The entropy bonus acts through the softmax Jacobian and so
// vanishes exactly where it is needed most — at saturated corners; logit
// decay instead shrinks the saturated logits directly until gradients flow
// again, letting the actor escape a corner the critic has learned to
// disfavour.
constexpr double kActorLogitDecay = 5e-4;
// Target policy smoothing (TD3): the bootstrap action is mixed with the
// uniform distribution, mu'(s') <- (1-kappa) mu'(s') + kappa/J, so value
// estimates reflect a small neighbourhood instead of one knife-edge corner
// of the simplex.
constexpr double kTargetPolicySmoothing = 0.1;
// Actor (and target) updates run once per this many critic updates (TD3).
constexpr std::size_t kPolicyDelay = 2;
// Polyak factor for target-network updates.
constexpr double kTau = 0.01;
// Global-norm gradient clip for every actor and critic step.
constexpr double kGradClip = 5.0;
// The action-space distance the adaptive parameter noise steers toward.
constexpr double kParameterNoiseTargetDistance = 0.08;

// The exploring roll of DdpgAgent::act(state, true) and
// ExplorationSnapshot::act; `settings` is a DdpgConfig or a
// BehaviorSnapshot, whose exploration fields share their names. One roll
// picks an ε-random point, an ε-demo point, or `policy` on the normalised
// state (the perturbed actor under parameter noise; under action noise the
// clean actor plus clipped Gaussian noise, counting would-be budget
// violations). kNone is the greedy action and draws nothing.
template <class Settings>
std::vector<double> exploring_action(const Settings& settings, int budget,
                                     const nn::Network& policy,
                                     const StateNormalizer& normalizer,
                                     const std::vector<double>& state,
                                     Rng& rng, DecisionScratch& scratch,
                                     std::size_t& violations) {
  if (settings.exploration != ExplorationMode::kNone) {
    const double roll = rng.uniform();
    if (roll < settings.epsilon_random)
      return uniform_simplex_weights(policy.output_dim(), rng);
    if (roll < settings.epsilon_random + settings.epsilon_demo)
      return wip_proportional_weights(state, policy.output_dim(), rng);
  }
  std::vector<double> action;
  greedy_weights(policy, normalizer, state, scratch, action);
  if (settings.exploration != ExplorationMode::kActionNoise) return action;
  std::vector<double> noisy =
      GaussianActionNoise(settings.action_noise_stddev).apply(action, rng);
  // The off-simplex weights, if consumed verbatim as floor(C * w_j).
  std::vector<int> raw_counts(noisy.size());
  for (std::size_t j = 0; j < noisy.size(); ++j)
    raw_counts[j] = static_cast<int>(
        std::floor(static_cast<double>(budget) * noisy[j]));
  if (!satisfies_budget(raw_counts, budget)) ++violations;
  return noisy;
}

// Normalises the batch's states (or next states) into the rows of `out`.
void normalize_rows(const StateNormalizer& normalizer,
                    const std::vector<const Experience*>& batch, bool next,
                    nn::Tensor& out) {
  out.resize(batch.size(), normalizer.dim());
  for (std::size_t b = 0; b < batch.size(); ++b) {
    const std::vector<double>& raw = next ? batch[b]->next_state
                                          : batch[b]->state;
    MIRAS_EXPECTS(raw.size() == normalizer.dim());
    normalizer.apply(raw.data(), &out(b, 0));
  }
}
}  // namespace

double StateNormalizer::feature(double raw, bool log_features) {
  return log_features ? std::log1p(std::max(raw, 0.0)) : raw;
}

void StateNormalizer::resolve(const std::vector<RunningStats>& stats,
                              bool log_features_on) {
  log_features = log_features_on;
  shift.assign(stats.size(), 0.0);
  scale.assign(stats.size(), 1.0);
  const double floor = log_features ? kMinStddevLog : kMinStddevRaw;
  for (std::size_t j = 0; j < stats.size(); ++j) {
    if (stats[j].count() < 2) continue;  // no statistics yet: pass through
    shift[j] = stats[j].mean();
    scale[j] = std::max(stats[j].stddev(), floor);
  }
}

void StateNormalizer::apply(const double* raw, double* out) const {
  for (std::size_t j = 0; j < shift.size(); ++j)
    out[j] = (feature(raw[j], log_features) - shift[j]) / scale[j];
}

void StateNormalizer::write_map(persist::BinaryWriter& out) const {
  out.vec_f64(shift);
  out.vec_f64(scale);
}

void StateNormalizer::read_map(persist::BinaryReader& in) {
  in.vec_f64_into(shift);
  in.vec_f64_into(scale);
  if (shift.size() != scale.size())
    throw std::runtime_error(
        "persist: behaviour snapshot normaliser shape mismatch");
  for (std::size_t j = 0; j < shift.size(); ++j) {
    if (!std::isfinite(shift[j]))
      throw std::runtime_error("persist: normaliser shift " +
                               std::to_string(j) + " is not finite");
    if (!(std::isfinite(scale[j]) && scale[j] > 0.0))
      throw std::runtime_error("persist: normaliser scale " +
                               std::to_string(j) +
                               " is not a finite positive number");
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
                       kParameterNoiseTargetDistance),
      state_stats_(state_dim) {
  MIRAS_EXPECTS(state_dim > 0);
  MIRAS_EXPECTS(action_dim > 0);
  MIRAS_EXPECTS(consumer_budget > 0);
  MIRAS_EXPECTS(config_.gamma >= 0.0 && config_.gamma < 1.0);
  MIRAS_EXPECTS(config_.action_noise_stddev >= 0.0);
  pending_slots_.resize(std::max<std::size_t>(config_.n_step, 1));

  nn::MlpSpec actor_spec;
  actor_spec.input_dim = state_dim;
  actor_spec.hidden_dims = config_.actor_hidden;
  actor_spec.output_dim = action_dim;
  actor_spec.hidden_activation = nn::Activation::kRelu;
  actor_spec.output_activation = nn::Activation::kSoftmax;
  actor_ = nn::Network(actor_spec, rng_);
  actor_.layers().back().weights() *= kActorFinalLayerScale;
  actor_target_ = actor_;
  perturbed_actor_ = actor_;

  nn::CriticSpec critic_spec;
  critic_spec.state_dim = state_dim;
  critic_spec.action_dim = action_dim;
  critic_spec.hidden_dims = config_.critic_hidden;
  // Clipped-double-Q (TD3): two critics, and the bootstrap takes the
  // minimum of their targets. Counters the overestimation spiral in which
  // the actor chases the critic's optimistic errors into corners.
  critic_ = nn::CriticNetwork(critic_spec, rng_);
  critic_target_ = critic_;
  critic2_ = nn::CriticNetwork(critic_spec, rng_);  // independent init
  critic2_target_ = critic2_;
  refresh_normalizer();
}

void DdpgAgent::refresh_normalizer() {
  normalizer_.resolve(state_stats_, config_.log_state_features);
}

std::vector<double> DdpgAgent::act(const std::vector<double>& state,
                                   bool explore) {
  if (!explore) return act_greedy(state);
  const nn::Network& policy =
      config_.exploration == ExplorationMode::kParameterNoise
          ? perturbed_actor_
          : actor_;
  return exploring_action(config_, consumer_budget_, policy, normalizer(),
                          state, rng_, act_scratch_, constraint_violations_);
}

void greedy_weights(const nn::Network& actor, const StateNormalizer& normalizer,
                    const std::vector<double>& state, DecisionScratch& scratch,
                    std::vector<double>& weights_out) {
  MIRAS_EXPECTS(state.size() == normalizer.dim());
  scratch.norm.resize(state.size());
  normalizer.apply(state.data(), scratch.norm.data());
  actor.predict_one(scratch.norm, scratch.ws, weights_out);
}

std::vector<double> DdpgAgent::act_greedy(
    const std::vector<double>& state) const {
  DecisionScratch scratch;
  act_greedy(state, scratch, scratch.weights);
  return std::move(scratch.weights);
}

void DdpgAgent::act_greedy(const std::vector<double>& state,
                           DecisionScratch& scratch,
                           std::vector<double>& out) const {
  MIRAS_EXPECTS(state.size() == state_dim_);
  greedy_weights(actor_, normalizer(), state, scratch, out);
}

std::vector<int> DdpgAgent::act_allocation(const std::vector<double>& state,
                                           bool explore) {
  return guarded_allocation(act(state, explore), consumer_budget_,
                            config_.rounding, config_.min_consumers_per_type);
}

std::vector<int> DdpgAgent::act_allocation_greedy(
    const std::vector<double>& state) const {
  DecisionScratch scratch;
  return act_allocation_greedy(state, scratch);
}

std::vector<int> DdpgAgent::act_allocation_greedy(
    const std::vector<double>& state, DecisionScratch& scratch) const {
  act_greedy(state, scratch, scratch.weights);
  return guarded_allocation(scratch.weights, consumer_budget_,
                            config_.rounding, config_.min_consumers_per_type);
}

BehaviorSnapshot DdpgAgent::behavior_snapshot() const {
  BehaviorSnapshot snap;
  snap.exploration = config_.exploration;
  snap.epsilon_random = config_.epsilon_random;
  snap.epsilon_demo = config_.epsilon_demo;
  snap.action_noise_stddev = config_.action_noise_stddev;
  snap.parameter_noise_stddev = parameter_noise_.stddev();
  snap.consumer_budget = consumer_budget_;
  snap.action_dim = action_dim_;
  snap.policy = actor_;
  snap.normalizer = normalizer();
  return snap;
}

ExplorationSnapshot BehaviorSnapshot::instantiate(Rng& rng) const {
  ExplorationSnapshot snapshot;
  if (exploration != ExplorationMode::kParameterNoise) {
    snapshot.behavior_ = *this;
    return snapshot;
  }
  // Every field but the policy by value; the policy's parameters are
  // written once, already perturbed, instead of copied and then perturbed.
  snapshot.behavior_ = BehaviorSnapshot{exploration,
                                        epsilon_random,
                                        epsilon_demo,
                                        action_noise_stddev,
                                        parameter_noise_stddev,
                                        consumer_budget,
                                        action_dim,
                                        nn::Network{},
                                        normalizer};
  snapshot.behavior_.policy.assign_perturbed(policy, parameter_noise_stddev,
                                             rng);
  return snapshot;
}

void BehaviorSnapshot::save_state(persist::BinaryWriter& out) const {
  out.u8(static_cast<std::uint8_t>(exploration));
  out.f64(epsilon_random);
  out.f64(epsilon_demo);
  out.f64(action_noise_stddev);
  out.f64(parameter_noise_stddev);
  out.boolean(normalizer.log_features);
  out.i64(consumer_budget);
  out.u64(action_dim);
  nn::write_network(out, policy);
  normalizer.write_map(out);
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
  normalizer.log_features = in.boolean();
  const std::int64_t budget = in.i64();
  if (budget < 1 || budget > std::numeric_limits<int>::max())
    throw std::runtime_error("persist: consumer budget " +
                             std::to_string(budget) +
                             " outside [1, INT_MAX] in behaviour snapshot");
  consumer_budget = static_cast<int>(budget);
  action_dim = static_cast<std::size_t>(in.u64());
  policy = nn::read_network(in);
  normalizer.read_map(in);
  if (normalizer.dim() != policy.input_dim())
    throw std::runtime_error(
        "persist: behaviour snapshot normaliser width " +
        std::to_string(normalizer.dim()) + " differs from the policy input " +
        std::to_string(policy.input_dim()));
  if (action_dim != policy.output_dim())
    throw std::runtime_error(
        "persist: behaviour snapshot action_dim " +
        std::to_string(action_dim) + " differs from the policy output " +
        std::to_string(policy.output_dim()));
}

ExplorationSnapshot DdpgAgent::snapshot_exploration(Rng& rng) const {
  return behavior_snapshot().instantiate(rng);
}

std::vector<double> ExplorationSnapshot::act(const std::vector<double>& state,
                                             Rng& rng) {
  return exploring_action(behavior_, behavior_.consumer_budget,
                          behavior_.policy, behavior_.normalizer, state, rng,
                          scratch_, violations_);
}

void DdpgAgent::observe(const std::vector<double>& state,
                        const std::vector<double>& action, double reward,
                        const std::vector<double>& next_state) {
  MIRAS_EXPECTS(state.size() == state_dim_);
  MIRAS_EXPECTS(action.size() == action_dim_);
  MIRAS_EXPECTS(next_state.size() == state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j)
    state_stats_[j].add(
        StateNormalizer::feature(state[j], config_.log_state_features));
  refresh_normalizer();
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
    state_stats_[j].add(
        StateNormalizer::feature(state[j], config_.log_state_features));
  refresh_normalizer();
}

void DdpgAgent::enable_parallel_training(common::ThreadPool* pool) {
  pool_ = pool;
}

double DdpgAgent::update(std::size_t count) {
  if (replay_.size() < std::max(config_.warmup, config_.batch_size))
    return 0.0;

  const StateNormalizer& norm = normalizer();
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

    normalize_rows(norm, batch_scratch_, /*next=*/false, batch_states_);
    normalize_rows(norm, batch_scratch_, /*next=*/true, batch_next_states_);
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
      // Mix the bootstrap action with uniform so the target values a small
      // neighbourhood of the policy, not a knife-edge corner.
      const double uniform_mass =
          kTargetPolicySmoothing / static_cast<double>(action_dim_);
      for (std::size_t r = 0; r < rows.size(); ++r)
        for (std::size_t j = 0; j < action_dim_; ++j)
          pass.out(r, j) =
              (1.0 - kTargetPolicySmoothing) * pass.out(r, j) + uniform_mass;
      critic_target_.predict_batch(pass.in, pass.out, pass.ws, pass.target);
      critic2_target_.predict_batch(pass.in, pass.out, pass.ws,
                                    pass.loss_grad);
      for (std::size_t r = 0; r < rows.size(); ++r)
        pass.target(r, 0) = std::min(pass.target(r, 0), pass.loss_grad(r, 0));
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
      nn::TrainPass& pass2 = critic2_passes_[m];
      nn::prepare_pass(critic2_.layers(), pass2);
      const nn::Tensor& q2_values =
          critic2_.forward_shard(pass.in, pass.actions, pass2);
      nn::huber_loss_partial_into(q2_values, pass.target, 10.0, b_size,
                                  pass2.loss_grad);
      critic2_.backward_shard(pass.in, pass.actions, pass2.loss_grad, pass2);
    });
    double critic_loss = 0.0;
    for (std::size_t m = 0; m < blocks; ++m)
      critic_loss += critic_passes_[m].loss;
    // Fused zero + reduce + clip + step per critic: one serial tail between
    // pool barriers instead of three full parameter walks each.
    critic_.sharded_update(critic_passes_, blocks, kGradClip,
                           critic_optimizer_);
    critic_loss_sum += critic_loss;
    critic2_.sharded_update(critic2_passes_, blocks, kGradClip,
                            critic2_optimizer_);

    ++updates_performed_;
    ++ran;

    // ---- Delayed actor + target updates (TD3).
    if (updates_performed_ % kPolicyDelay != 0) continue;

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
    actor_.sharded_update(actor_passes_, blocks, kGradClip, actor_optimizer_);
    nn::DenseLayer& head = actor_.layers().back();
    const double keep = 1.0 - kActorLogitDecay;
    head.weights() *= keep;
    head.bias() *= keep;

    // ---- Target networks.
    actor_target_.soft_update_from(actor_, kTau);
    critic_target_.soft_update_from(critic_, kTau);
    critic2_target_.soft_update_from(critic2_, kTau);

    if (config_.exploration == ExplorationMode::kParameterNoise)
      adapt_parameter_noise(norm);
  }
  return ran > 0 ? critic_loss_sum / static_cast<double>(ran) : 0.0;
}

void DdpgAgent::adapt_parameter_noise(const StateNormalizer& norm) {
  if (replay_.empty()) return;
  // Measure the action-space distance induced by the current perturbation
  // on a small probe batch, then steer sigma toward the target distance.
  const std::size_t probe = std::min<std::size_t>(16, replay_.size());
  replay_.sample_into(probe, rng_, batch_scratch_);
  normalize_rows(norm, batch_scratch_, /*next=*/false, batch_states_);
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
  perturbed_actor_.assign_perturbed(actor_, parameter_noise_.stddev(), rng_);
}

void DdpgAgent::resample_exploration() {
  end_episode();  // an episode boundary: never blend returns across it
  if (config_.exploration == ExplorationMode::kParameterNoise)
    refresh_perturbed_actor();
}

double DdpgAgent::q_value(const std::vector<double>& state,
                          const std::vector<double>& action) const {
  MIRAS_EXPECTS(state.size() == state_dim_);
  std::vector<double> normalized(state_dim_);
  normalizer().apply(state.data(), normalized.data());
  return critic_.predict_one(normalized, action);
}

void DdpgAgent::save_state(persist::BinaryWriter& out) const {
  // Identity of the agent this state belongs to; validated on restore so a
  // checkpoint can never be silently restored into a mismatched agent.
  out.u64(state_dim_);
  out.u64(action_dim_);
  out.i64(consumer_budget_);

  persist::write_rng_state(out, rng_.state());

  nn::write_network(out, actor_);
  nn::write_network(out, actor_target_);
  nn::write_network(out, perturbed_actor_);
  nn::write_critic(out, critic_);
  nn::write_critic(out, critic_target_);
  nn::write_critic(out, critic2_);
  nn::write_critic(out, critic2_target_);

  actor_optimizer_.save_state(out);
  critic_optimizer_.save_state(out);
  critic2_optimizer_.save_state(out);

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
  if (state_dim != state_dim_ || action_dim != action_dim_ ||
      budget != consumer_budget_)
    throw std::runtime_error(
        "checkpoint: DDPG agent shape mismatch — saved (state_dim=" +
        std::to_string(state_dim) + ", action_dim=" +
        std::to_string(action_dim) + ", budget=" + std::to_string(budget) +
        ") does not match this agent's configuration");

  rng_.set_state(persist::read_rng_state(in));

  actor_ = nn::read_network(in);
  actor_target_ = nn::read_network(in);
  perturbed_actor_ = nn::read_network(in);
  critic_ = nn::read_critic(in);
  critic_target_ = nn::read_critic(in);
  critic2_ = nn::read_critic(in);
  critic2_target_ = nn::read_critic(in);

  actor_optimizer_.restore_state(in);
  critic_optimizer_.restore_state(in);
  critic2_optimizer_.restore_state(in);

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
  refresh_normalizer();

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
  const std::int64_t min_per_type = in.i64();
  if (min_per_type < 0 || min_per_type > std::numeric_limits<int>::max())
    throw std::runtime_error("persist: min_consumers_per_type " +
                             std::to_string(min_per_type) +
                             " outside [0, INT_MAX] in servable export");
  exported.min_consumers_per_type = static_cast<int>(min_per_type);
  return exported;
}

}  // namespace miras::rl
