#include "envmodel/dynamics_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/contracts.h"
#include "common/stats.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "persist/checkpoint.h"

namespace miras::envmodel {

namespace {
constexpr double kMinStddev = 1e-6;
// Global-norm gradient clip for every fit() minibatch step.
constexpr double kGradClip = 10.0;
}  // namespace

DynamicsModel::DynamicsModel(std::size_t state_dim, std::size_t action_dim,
                             DynamicsModelConfig config)
    : state_dim_(state_dim),
      action_dim_(action_dim),
      config_(std::move(config)),
      rng_(config_.seed),
      optimizer_(config_.learning_rate) {
  MIRAS_EXPECTS(state_dim > 0);
  MIRAS_EXPECTS(action_dim > 0);
  MIRAS_EXPECTS(config_.batch_size > 0);
  nn::MlpSpec spec;
  spec.input_dim = state_dim + action_dim;
  spec.hidden_dims = config_.hidden_dims;
  spec.output_dim = state_dim;
  spec.hidden_activation = nn::Activation::kRelu;
  spec.output_activation = nn::Activation::kIdentity;
  network_ = nn::Network(spec, rng_);
}

std::vector<double> DynamicsModel::make_input(
    const std::vector<double>& state, const std::vector<int>& action) const {
  MIRAS_EXPECTS(state.size() == state_dim_);
  MIRAS_EXPECTS(action.size() == action_dim_);
  std::vector<double> input;
  input.reserve(state_dim_ + action_dim_);
  input.insert(input.end(), state.begin(), state.end());
  for (const int a : action) input.push_back(static_cast<double>(a));
  if (fitted_) {
    for (std::size_t i = 0; i < input.size(); ++i)
      input[i] = (input[i] - input_norm_.mean[i]) / input_norm_.stddev[i];
  }
  return input;
}

void DynamicsModel::compute_normalizers(const TransitionDataset& data) {
  const std::size_t in_dim = state_dim_ + action_dim_;
  std::vector<RunningStats> in_stats(in_dim);
  std::vector<RunningStats> out_stats(state_dim_);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Transition& t = data[i];
    for (std::size_t j = 0; j < state_dim_; ++j) in_stats[j].add(t.state[j]);
    for (std::size_t j = 0; j < action_dim_; ++j)
      in_stats[state_dim_ + j].add(static_cast<double>(t.action[j]));
    for (std::size_t j = 0; j < state_dim_; ++j)
      out_stats[j].add(t.next_state[j] - t.state[j]);
  }
  auto to_normalizer = [](const std::vector<RunningStats>& stats) {
    Normalizer norm;
    for (const auto& s : stats) {
      norm.mean.push_back(s.mean());
      norm.stddev.push_back(std::max(s.stddev(), kMinStddev));
    }
    return norm;
  };
  input_norm_ = to_normalizer(in_stats);
  output_norm_ = to_normalizer(out_stats);
}

void DynamicsModel::enable_parallel_training(common::ThreadPool* pool) {
  pool_ = pool;
}

double DynamicsModel::fit(const TransitionDataset& data) {
  MIRAS_EXPECTS(data.state_dim() == state_dim_);
  MIRAS_EXPECTS(data.action_dim() == action_dim_);
  MIRAS_EXPECTS(!data.empty());

  if (!fitted_) {
    compute_normalizers(data);
    fitted_ = true;
  }

  // Materialise the normalised design matrices once per fit(), into member
  // buffers (row i mirrors make_input(data[i]) element for element, without
  // the per-row vector).
  const std::size_t n = data.size();
  const std::size_t in_dim = state_dim_ + action_dim_;
  design_in_.resize(n, in_dim);
  design_out_.resize(n, state_dim_);
  for (std::size_t i = 0; i < n; ++i) {
    const Transition& t = data[i];
    for (std::size_t j = 0; j < state_dim_; ++j)
      design_in_(i, j) =
          (t.state[j] - input_norm_.mean[j]) / input_norm_.stddev[j];
    for (std::size_t j = 0; j < action_dim_; ++j) {
      const std::size_t c = state_dim_ + j;
      design_in_(i, c) =
          (static_cast<double>(t.action[j]) - input_norm_.mean[c]) /
          input_norm_.stddev[c];
    }
    for (std::size_t j = 0; j < state_dim_; ++j)
      design_out_(i, j) = (t.next_state[j] - t.state[j] -
                           output_norm_.mean[j]) /
                          output_norm_.stddev[j];
  }

  // Every minibatch decomposes into fixed 16-row gradient blocks; block m
  // gathers its rows, runs forward+backward into passes_[m], and the block
  // gradients are reduced in ascending order before one optimizer step
  // (train_shards.h). The whole epoch is ONE pool publication: run_epoch's
  // lanes claim blocks batch by batch and the unique tail-runner applies
  // the serial Adam step between batches, so per-batch dispatch overhead
  // vanishes while the numbers stay bit-identical — which thread runs a
  // block was never visible in the results, and the tail still sees every
  // block of its batch and runs before the next batch opens. All buffers
  // are members, so steady-state epochs allocate nothing.
  const std::size_t num_batches = (n + config_.batch_size - 1) / config_.batch_size;
  const auto batch_of = [&](std::size_t p) {
    return std::min(config_.batch_size, n - p * config_.batch_size);
  };
  const std::size_t max_blocks = nn::num_row_blocks(batch_of(0));
  if (passes_.size() < max_blocks) passes_.resize(max_blocks);

  double final_epoch_loss = 0.0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    data.shuffled_indices_into(rng_, shuffle_);
    double epoch_loss = 0.0;
    nn::run_epoch(
        pool_, num_batches,
        [&](std::size_t p) { return nn::num_row_blocks(batch_of(p)); },
        [&](std::size_t p, std::size_t m) {
          const std::size_t start = p * config_.batch_size;
          const std::size_t batch = batch_of(p);
          nn::TrainPass& pass = passes_[m];
          const nn::RowRange rows = nn::row_block(batch, m);
          nn::prepare_pass(network_.layers(), pass);
          pass.in.resize(rows.size(), in_dim);
          pass.target.resize(rows.size(), state_dim_);
          for (std::size_t b = 0; b < rows.size(); ++b) {
            const std::size_t idx = shuffle_[start + rows.begin + b];
            std::memcpy(pass.in.data() + b * in_dim,
                        design_in_.data() + idx * in_dim,
                        in_dim * sizeof(double));
            std::memcpy(pass.target.data() + b * state_dim_,
                        design_out_.data() + idx * state_dim_,
                        state_dim_ * sizeof(double));
          }
          const nn::Tensor& prediction =
              network_.forward_shard(pass.in, pass);
          pass.loss = nn::mse_loss_partial_into(
              prediction, pass.target, batch * state_dim_, pass.loss_grad);
          network_.backward_shard(pass.in, pass.loss_grad, pass);
        },
        [&](std::size_t p) {
          const std::size_t blocks = nn::num_row_blocks(batch_of(p));
          double loss = 0.0;
          for (std::size_t m = 0; m < blocks; ++m) loss += passes_[m].loss;
          // Fused zero + reduce + clip + step: one serial tail per batch
          // (sharded_adam_step).
          network_.sharded_update(passes_, blocks, kGradClip, optimizer_);
          epoch_loss += loss;
        });
    final_epoch_loss = epoch_loss / static_cast<double>(num_batches);
  }
  return final_epoch_loss;
}

double DynamicsModel::evaluate(const TransitionDataset& data) const {
  MIRAS_EXPECTS(fitted_);
  MIRAS_EXPECTS(!data.empty());
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Transition& t = data[i];
    const std::vector<double> predicted = predict(t.state, t.action);
    for (std::size_t j = 0; j < state_dim_; ++j) {
      const double diff = predicted[j] - t.next_state[j];
      total += diff * diff;
    }
  }
  return total / static_cast<double>(data.size() * state_dim_);
}

std::vector<double> DynamicsModel::predict(
    const std::vector<double>& state, const std::vector<int>& action) const {
  MIRAS_EXPECTS(fitted_);
  const std::vector<double> normalized =
      network_.predict_one(make_input(state, action));
  std::vector<double> next_state(state_dim_);
  for (std::size_t j = 0; j < state_dim_; ++j) {
    const double raw =
        normalized[j] * output_norm_.stddev[j] + output_norm_.mean[j];
    next_state[j] = state[j] + raw;
  }
  return next_state;
}

void DynamicsModel::predict_batch(const nn::Tensor& states,
                                  const std::vector<std::vector<int>>& actions,
                                  nn::Workspace& ws,
                                  nn::Tensor& next_states) const {
  MIRAS_EXPECTS(fitted_);
  MIRAS_EXPECTS(states.cols() == state_dim_);
  const std::size_t b = states.rows();
  MIRAS_EXPECTS(actions.size() == b);
  MIRAS_EXPECTS(&next_states != &states && &next_states != &ws.in &&
                &next_states != &ws.a && &next_states != &ws.b &&
                &next_states != &ws.concat);
  const std::size_t in_dim = state_dim_ + action_dim_;
  // Assemble the normalised design matrix — row r mirrors
  // make_input(states row r, actions[r]) element for element.
  ws.in.resize(b, in_dim);
  for (std::size_t r = 0; r < b; ++r) {
    MIRAS_EXPECTS(actions[r].size() == action_dim_);
    for (std::size_t j = 0; j < state_dim_; ++j)
      ws.in(r, j) =
          (states(r, j) - input_norm_.mean[j]) / input_norm_.stddev[j];
    for (std::size_t j = 0; j < action_dim_; ++j) {
      const std::size_t c = state_dim_ + j;
      ws.in(r, c) = (static_cast<double>(actions[r][j]) -
                     input_norm_.mean[c]) /
                    input_norm_.stddev[c];
    }
  }
  network_.predict_batch(ws.in, ws, ws.concat);
  next_states.resize(b, state_dim_);
  for (std::size_t r = 0; r < b; ++r) {
    for (std::size_t j = 0; j < state_dim_; ++j) {
      const double raw =
          ws.concat(r, j) * output_norm_.stddev[j] + output_norm_.mean[j];
      next_states(r, j) = states(r, j) + raw;
    }
  }
}

double DynamicsModel::reward_of(const std::vector<double>& next_state) {
  return 1.0 - sum_of(next_state);
}

void DynamicsModel::save_state(persist::BinaryWriter& out) const {
  out.u64(state_dim_);
  out.u64(action_dim_);
  persist::write_rng_state(out, rng_.state());
  nn::write_network(out, network_);
  optimizer_.save_state(out);
  out.vec_f64(input_norm_.mean);
  out.vec_f64(input_norm_.stddev);
  out.vec_f64(output_norm_.mean);
  out.vec_f64(output_norm_.stddev);
  out.boolean(fitted_);
}

void DynamicsModel::restore_state(persist::BinaryReader& in) {
  const std::uint64_t state_dim = in.u64();
  const std::uint64_t action_dim = in.u64();
  if (state_dim != state_dim_ || action_dim != action_dim_)
    throw std::runtime_error(
        "checkpoint: dynamics model dimension mismatch (saved " +
        std::to_string(state_dim) + "x" + std::to_string(action_dim) +
        ", expected " + std::to_string(state_dim_) + "x" +
        std::to_string(action_dim_) + ")");
  rng_.set_state(persist::read_rng_state(in));
  network_ = nn::read_network(in);
  optimizer_.restore_state(in);
  input_norm_.mean = in.vec_f64();
  input_norm_.stddev = in.vec_f64();
  output_norm_.mean = in.vec_f64();
  output_norm_.stddev = in.vec_f64();
  fitted_ = in.boolean();
}

}  // namespace miras::envmodel
