// Deep Deterministic Policy Gradient (Lillicrap et al., ICLR 2016) with the
// paper's adaptations (§IV-D):
//  - the actor ends in a softmax head, so its action is a categorical
//    distribution over microservices that is scaled by the consumer budget
//    C to obtain the allocation (constraint satisfied by construction);
//  - exploration uses adaptive parameter-space noise by default; Gaussian
//    action-space noise is available for the ablation that demonstrates the
//    constraint-violation problem;
//  - target networks with Polyak averaging, experience replay, and state
//    z-normalisation with running statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "nn/critic_network.h"
#include "nn/network.h"
#include "nn/optimizer.h"
#include "nn/train_shards.h"
#include "nn/workspace.h"
#include "rl/action.h"
#include "rl/noise.h"
#include "rl/replay_buffer.h"

namespace miras::rl {

enum class ExplorationMode { kNone, kParameterNoise, kActionNoise };

struct DdpgConfig {
  /// Actor hidden widths. Paper: 3 x 256 for MSD, 3 x 512 for LIGO.
  std::vector<std::size_t> actor_hidden = {256, 256, 256};
  /// Critic hidden widths (action injected after the first layer).
  std::vector<std::size_t> critic_hidden = {256, 256, 256};
  double actor_learning_rate = 1e-4;
  double critic_learning_rate = 1e-3;
  /// Entropy bonus on the actor's categorical output. The softmax head has
  /// vanishing gradients at its corners; once the policy saturates on a
  /// single microservice it can never recover, even when the critic learns
  /// the corner is bad. The entropy term is a principled barrier that keeps
  /// the distribution away from corners unless Q decisively favours them.
  double actor_entropy_coef = 0.05;
  double gamma = 0.95;
  /// Critic targets use n-step returns: R = sum_{i<n} gamma^i r_i +
  /// gamma^n Q'(s_{t+n}, mu'(s_{t+n})). One-step bootstrapping evaluates
  /// "take a, then follow the current policy" — under a degenerate policy
  /// every action looks equally bad and the actor cannot climb out. Multi-
  /// step returns propagate the real outcomes of the exploratory and
  /// demonstration sequences, which is essential for the deep LIGO DAGs
  /// where serving an upstream queue pays off only 5-7 windows later.
  std::size_t n_step = 5;
  std::size_t batch_size = 64;
  std::size_t replay_capacity = 200000;
  /// Minimum replay size before updates run.
  std::size_t warmup = 128;

  ExplorationMode exploration = ExplorationMode::kParameterNoise;
  double parameter_noise_initial = 0.05;
  double action_noise_stddev = 0.15;
  /// With this probability an exploring act() returns a uniformly random
  /// simplex point instead of the (perturbed) policy action. Parameter
  /// noise alone cannot recover once the softmax saturates — the perturbed
  /// network still emits the same corner — so a persistent epsilon floor is
  /// required for the critic to ever see alternative actions.
  double epsilon_random = 0.05;
  /// With this probability an exploring act() returns weights proportional
  /// to the current WIP (plus one). Uniform random exploration almost never
  /// strings together the multi-window allocation sequences that push work
  /// through a deep DAG, so the critic would never see well-controlled
  /// trajectories to bootstrap from; WIP-proportional actions are a cheap
  /// built-in demonstrator that exercises exactly those sequences.
  double epsilon_demo = 0.05;
  /// Feed the networks log1p(w) instead of raw WIP. Queue lengths span four
  /// orders of magnitude between steady state and burst recovery; the log
  /// transform keeps both regimes in-distribution, and differences of logs
  /// encode the WIP *ratios* that drive good allocations.
  bool log_state_features = true;
  /// How the actor's simplex output becomes an integer allocation.
  RoundingMode rounding = RoundingMode::kFloor;
  /// Deployment guardrail on act_allocation(): every microservice keeps at
  /// least this many consumers (Kubernetes minReplicas analogue). Softmax
  /// quantisation (floor(C * a_j) = 0 whenever a_j < 1/C) would otherwise
  /// let the policy inadvertently starve a low-traffic task type whose
  /// workflows then never finish. Set to 0 to disable (paper-literal mode).
  int min_consumers_per_type = 1;

  std::uint64_t seed = 17;
};

class DdpgAgent;

/// The state normaliser: each raw WIP entry becomes a feature (log1p(max(w,
/// 0)) with log features on, else w), then y = (f - shift) / scale, with
/// shift 0 and scale 1 for dimensions seen fewer than twice. The agent and
/// every snapshot normalise through this one type.
struct StateNormalizer {
  bool log_features = true;
  std::vector<double> shift;
  std::vector<double> scale;

  std::size_t dim() const { return shift.size(); }

  /// The feature of one raw state entry (what the running statistics see).
  static double feature(double raw, bool log_features);

  /// Overwrites this map with the one resolved from running feature
  /// statistics, reusing its storage; the stddev floors live here and
  /// nowhere else.
  void resolve(const std::vector<RunningStats>& stats, bool log_features);

  /// Normalises dim() raw entries into `out` (dim() entries, caller-sized).
  void apply(const double* raw, double* out) const;

  /// Encodes the affine map (shift, then scale); the owner writes the log
  /// flag at its own place in the payload.
  void write_map(persist::BinaryWriter& out) const;
  /// Decodes write_map(). Throws std::runtime_error on a shape mismatch, a
  /// non-finite shift, or a scale that is not finite and positive.
  void read_map(persist::BinaryReader& in);
};

/// Per-thread (or per-request-slot) greedy inference scratch. A decision
/// through a scratch is allocation-free inside the network at steady state;
/// a scratch must not be used from two threads at once.
struct DecisionScratch {
  nn::Workspace ws;
  std::vector<double> norm;
  std::vector<double> weights;  // act_allocation_greedy's simplex weights
};

/// The greedy simplex weights of `actor` on `state` under `normalizer`,
/// written to `weights_out`: the one copy of the greedy arithmetic, behind
/// DdpgAgent::act_greedy, the policy step of every exploring act, and
/// serve::ActorSnapshot::decide.
void greedy_weights(const nn::Network& actor, const StateNormalizer& normalizer,
                    const std::vector<double>& state, DecisionScratch& scratch,
                    std::vector<double>& weights_out);

class ExplorationSnapshot;

/// Serializable pre-perturbation behaviour state: everything needed to
/// reproduce DdpgAgent::snapshot_exploration() away from the agent — the
/// clean actor, the current parameter-noise stddev, the resolved normaliser
/// and the exploration configuration. The agent's own
/// snapshot_exploration(rng) is behavior_snapshot().instantiate(rng) by
/// construction, so a collector process that receives this struct over the
/// wire draws bit-identical episode behaviour to the in-process engine.
struct BehaviorSnapshot {
  ExplorationMode exploration = ExplorationMode::kNone;
  double epsilon_random = 0.0;
  double epsilon_demo = 0.0;
  double action_noise_stddev = 0.0;
  /// Perturbation scale to apply per episode (parameter-noise mode only).
  double parameter_noise_stddev = 0.0;
  int consumer_budget = 0;
  std::size_t action_dim = 0;
  nn::Network policy;  // clean (unperturbed) actor
  StateNormalizer normalizer;

  /// Draws the per-episode perturbation (if any) from `rng` and returns the
  /// ready-to-act frozen behaviour.
  ExplorationSnapshot instantiate(Rng& rng) const;

  void save_state(persist::BinaryWriter& out) const;
  /// Throws std::runtime_error on a malformed payload: an unknown mode, a
  /// budget outside [1, INT_MAX], a bad normaliser (see read_map), or a
  /// normaliser width or action_dim that does not fit the policy.
  void restore_state(persist::BinaryReader& in);
};

/// Frozen view of a DdpgAgent's exploring behaviour for one collection
/// episode or one synthetic rollout: a BehaviorSnapshot whose policy
/// instantiate() perturbed (parameter-noise mode), plus its own scratch, so
/// worker threads act concurrently while the agent is untouched. Every draw
/// comes from the caller's Rng: the behaviour is a pure function of
/// (snapshot, rng, states).
class ExplorationSnapshot {
 public:
  /// Exploring simplex action for `state`: the routine of
  /// DdpgAgent::act(state, /*explore=*/true) on the frozen policy and the
  /// caller's rng. MirasAgent explores only through snapshots.
  std::vector<double> act(const std::vector<double>& state, Rng& rng);

  /// Would-be budget violations observed so far (action-noise mode only);
  /// merged back via DdpgAgent::record_constraint_violations().
  std::size_t constraint_violations() const { return violations_; }

 private:
  friend struct BehaviorSnapshot;
  ExplorationSnapshot() = default;

  BehaviorSnapshot behavior_;
  std::size_t violations_ = 0;
  // Per-snapshot inference scratch: snapshots act from worker threads, so
  // each owns its buffers and steady-state act() calls do not allocate
  // inside the network.
  DecisionScratch scratch_;
};

class DdpgAgent {
 public:
  DdpgAgent(std::size_t state_dim, std::size_t action_dim, int consumer_budget,
            DdpgConfig config);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }
  int consumer_budget() const { return consumer_budget_; }
  const DdpgConfig& config() const { return config_; }

  /// Deterministic (exploit) or exploring simplex action for `state`.
  std::vector<double> act(const std::vector<double>& state, bool explore);

  /// act() mapped to an integer allocation under the budget.
  std::vector<int> act_allocation(const std::vector<double>& state,
                                  bool explore);

  /// The greedy action, const and side-effect free: reads only the actor
  /// and the normaliser statistics, never the rng. Safe to call from many
  /// threads concurrently while nothing mutates the agent — this is what
  /// the parallel evaluation grid drives.
  std::vector<double> act_greedy(const std::vector<double>& state) const;

  /// act_greedy() through the caller's scratch, into `out`: the same
  /// doubles, without building a fresh network workspace per call.
  void act_greedy(const std::vector<double>& state, DecisionScratch& scratch,
                  std::vector<double>& out) const;

  /// act_greedy() mapped to an integer allocation under the budget.
  std::vector<int> act_allocation_greedy(const std::vector<double>& state) const;

  /// act_allocation_greedy() through the caller's scratch.
  std::vector<int> act_allocation_greedy(const std::vector<double>& state,
                                         DecisionScratch& scratch) const;

  /// Captures the current exploring behaviour for one concurrently-run
  /// collection episode. The parameter-noise perturbation (if any) is drawn
  /// from `rng`, not the agent's own stream. Equivalent to
  /// behavior_snapshot().instantiate(rng).
  ExplorationSnapshot snapshot_exploration(Rng& rng) const;

  /// The perturbation-free behaviour state backing snapshot_exploration():
  /// what the distributed learner broadcasts to collectors.
  BehaviorSnapshot behavior_snapshot() const;

  /// Folds the would-be violations counted by a snapshot episode back into
  /// the agent's tally (call serially, in deterministic episode order).
  void record_constraint_violations(std::size_t count) {
    constraint_violations_ += count;
  }

  /// Records a transition (also updates the state normaliser).
  void observe(const std::vector<double>& state,
               const std::vector<double>& action, double reward,
               const std::vector<double>& next_state);

  /// Updates only the state normaliser. MIRAS feeds *real* interactions here
  /// (the policy itself trains on synthetic transitions, per Algorithm 2,
  /// but the normaliser should reflect the real state distribution).
  void observe_state_only(const std::vector<double>& state);

  /// Runs `count` gradient updates (no-ops while below warmup).
  /// Returns the mean critic loss over the updates that ran (0 if none).
  ///
  /// Every minibatch — target computation, critic TD steps, and the actor
  /// ascent — runs through the canonical gradient-block path
  /// (train_shards.h) whether or not a pool is attached, so the learned
  /// weights are bit-identical across thread counts.
  double update(std::size_t count = 1);

  /// Runs update() minibatches data-parallel on `pool` (nullptr reverts to
  /// inline execution — same numbers either way). Deliberately not part of
  /// the checkpoint state: checkpoints resume under any thread count.
  void enable_parallel_training(common::ThreadPool* pool);

  /// Resamples the parameter-noise perturbation (call at episode starts).
  void resample_exploration();

  /// Flushes the pending n-step window into the replay buffer with
  /// truncated horizons. Call at every episode boundary (before a reset)
  /// so returns never mix windows across episodes; resample_exploration()
  /// also flushes, as it marks an episode start.
  void end_episode();

  /// Q(s, a) under the online critic (diagnostics/tests).
  double q_value(const std::vector<double>& state,
                 const std::vector<double>& action) const;

  std::size_t replay_size() const { return replay_.size(); }
  std::size_t updates_performed() const { return updates_performed_; }
  double parameter_noise_stddev() const { return parameter_noise_.stddev(); }

  /// Transitions still inside the n-step maturation window. At every episode
  /// boundary (after end_episode() / resample_exploration()) this is zero —
  /// the checkpoint contract check relies on that, though save_state()
  /// serialises the window anyway so mid-episode snapshots also restore
  /// faithfully.
  std::size_t pending_transitions() const { return pending_count_; }

  /// Snapshot/restore of every mutable learning quantity — networks, target
  /// networks, optimiser moments, replay contents, n-step window, noise
  /// adapter sigma, normaliser statistics, reward bounds, counters, and the
  /// rng stream — for bit-identical crash-resume. The agent must have been
  /// constructed with the same dims/budget/config as the one saved (checked
  /// on restore).
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in);

  /// Would this raw (possibly noise-perturbed) weight vector map to a
  /// budget-violating allocation if consumed verbatim (without the
  /// normalisation that allocation_from_weights applies)? Used by the
  /// action-noise ablation.
  std::size_t constraint_violations() const { return constraint_violations_; }

  const nn::Network& actor() const { return actor_; }
  const nn::CriticNetwork& critic() const { return critic_; }

 private:
  Experience& pending_at(std::size_t i) {
    return pending_slots_[(pending_head_ + i) % pending_slots_.size()];
  }
  const Experience& pending_at(std::size_t i) const {
    return pending_slots_[(pending_head_ + i) % pending_slots_.size()];
  }
  void mature_front_transition();
  /// The normaliser resolved from the current state statistics.
  const StateNormalizer& normalizer() const { return normalizer_; }
  /// Re-resolves normalizer_; called wherever state_stats_ changes.
  void refresh_normalizer();
  void adapt_parameter_noise(const StateNormalizer& norm);
  void refresh_perturbed_actor();

  std::size_t state_dim_;
  std::size_t action_dim_;
  int consumer_budget_;
  DdpgConfig config_;
  Rng rng_;

  nn::Network actor_;
  nn::Network actor_target_;
  nn::Network perturbed_actor_;
  nn::CriticNetwork critic_;
  nn::CriticNetwork critic_target_;
  nn::CriticNetwork critic2_;
  nn::CriticNetwork critic2_target_;

  nn::AdamOptimizer actor_optimizer_;
  nn::AdamOptimizer critic_optimizer_;
  nn::AdamOptimizer critic2_optimizer_;

  ReplayBuffer replay_;
  // Sliding window of raw 1-step transitions awaiting n-step maturation,
  // as a fixed ring of reused Experience slots (capacity n_step — the
  // window's invariant maximum): pushes copy into a slot's existing
  // vectors and pops just advance the head, so the steady-state
  // observe()/maturation path allocates nothing.
  std::vector<Experience> pending_slots_;
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;
  AdaptiveParameterNoise parameter_noise_;

  std::vector<RunningStats> state_stats_;
  // state_stats_ resolved, kept current by refresh_normalizer() so that no
  // act, update or snapshot resolves (and allocates) a normaliser. Not a
  // lazy cache: concurrent const readers (the evaluation grid) only read it.
  StateNormalizer normalizer_;
  // Observed reward bounds; Bellman targets are clamped to
  // [min_reward/(1-gamma), max_reward/(1-gamma)], the tight bounds on any
  // true Q value, which prevents bootstrapping divergence.
  double min_reward_seen_ = 0.0;
  double max_reward_seen_ = 0.0;
  bool any_reward_seen_ = false;
  std::size_t updates_performed_ = 0;
  std::size_t constraint_violations_ = 0;

  // Parallel-training pool (not serialised; see enable_parallel_training).
  common::ThreadPool* pool_ = nullptr;

  // Update-loop scratch, reused across steps so the steady-state update
  // path is allocation-free (the minibatch shape is fixed). The serial
  // stage assembles the batch tensors; every gradient block then works
  // exclusively inside its own TrainPass slot, so blocks never contend.
  // critic_passes_ doubles as the target-stage staging and the actor
  // stage's critic conduit (those grads are discarded, never reduced).
  nn::Workspace ws_;
  nn::Tensor batch_states_;
  nn::Tensor batch_next_states_;
  nn::Tensor batch_actions_;
  std::vector<const Experience*> batch_scratch_;
  std::vector<nn::TrainPass> critic_passes_;
  std::vector<nn::TrainPass> critic2_passes_;
  std::vector<nn::TrainPass> actor_passes_;
  DecisionScratch act_scratch_;  // the exploring act()'s inference scratch
};

/// Everything the serving layer (src/serve) needs to reproduce the agent's
/// greedy decision path away from the agent: the behaviour snapshot (clean
/// actor + resolved normaliser) plus the guarded_allocation() config.
/// This is the payload of the "servable" checkpoint section, written by
/// MirasAgent::save_checkpoint and by serve::save_servable, and read by
/// serve::load_servable — training checkpoints and standalone servable
/// files share the encoding.
struct ServableExport {
  BehaviorSnapshot behavior;
  RoundingMode rounding = RoundingMode::kFloor;
  int min_consumers_per_type = 1;
};

/// Captures the export from a read-only agent (the act path is fully
/// const: behavior_snapshot(), act_greedy(), and friends never mutate).
ServableExport servable_export(const DdpgAgent& agent);

void write_servable_export(persist::BinaryWriter& out,
                           const ServableExport& exported);
/// Throws std::runtime_error on a malformed payload (see
/// BehaviorSnapshot::restore_state; also an unknown rounding mode or a
/// min_consumers_per_type outside [0, INT_MAX]).
ServableExport read_servable_export(persist::BinaryReader& in);

}  // namespace miras::rl
