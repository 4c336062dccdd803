#include "envmodel/synthetic_env.h"

#include <algorithm>

#include "common/contracts.h"

namespace miras::envmodel {

SyntheticEnv::SyntheticEnv(DynamicsModel* model, ModelRefiner* refiner,
                           const TransitionDataset* initial_states,
                           int consumer_budget, std::uint64_t seed)
    : model_(model),
      refiner_(refiner),
      initial_states_(initial_states),
      consumer_budget_(consumer_budget),
      rng_(seed) {
  MIRAS_EXPECTS(model != nullptr);
  MIRAS_EXPECTS(initial_states != nullptr);
  MIRAS_EXPECTS(consumer_budget > 0);
  state_.resize(model_->state_dim(), 0.0);
}

std::size_t SyntheticEnv::state_dim() const { return model_->state_dim(); }

std::size_t SyntheticEnv::action_dim() const { return model_->action_dim(); }

std::vector<double> SyntheticEnv::reset() {
  MIRAS_EXPECTS(!initial_states_->empty());
  const auto index = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(initial_states_->size()) - 1));
  state_ = (*initial_states_)[index].state;
  return state_;
}

void SyntheticEnv::step(const std::vector<int>& allocation) {
  MIRAS_EXPECTS(allocation.size() == action_dim());
  int total = 0;
  for (const int m : allocation) {
    MIRAS_EXPECTS(m >= 0);
    total += m;
  }
  MIRAS_EXPECTS(total <= consumer_budget_);

  state_ = refiner_ != nullptr ? refiner_->predict(state_, allocation)
                               : model_->predict(state_, allocation);
  for (double& w : state_) w = std::max(w, 0.0);
  last_reward_ = DynamicsModel::reward_of(state_);
}

SyntheticEnvBatch::SyntheticEnvBatch(const DynamicsModel* model,
                                     ModelRefiner* refiner,
                                     const TransitionDataset* initial_states,
                                     int consumer_budget)
    : model_(model),
      refiner_(refiner),
      initial_states_(initial_states),
      consumer_budget_(consumer_budget) {
  MIRAS_EXPECTS(model != nullptr);
  MIRAS_EXPECTS(initial_states != nullptr);
  MIRAS_EXPECTS(consumer_budget > 0);
}

std::size_t SyntheticEnvBatch::state_dim() const {
  return model_->state_dim();
}

std::size_t SyntheticEnvBatch::action_dim() const {
  return model_->action_dim();
}

void SyntheticEnvBatch::add_lane(std::uint64_t env_seed,
                                 std::uint64_t refiner_seed) {
  Lane lane;
  lane.env_rng = Rng(env_seed);
  lane.refiner_rng = Rng(refiner_seed);
  lane.state.resize(model_->state_dim(), 0.0);
  lanes_.push_back(std::move(lane));
}

void SyntheticEnvBatch::reset_all() {
  MIRAS_EXPECTS(!initial_states_->empty());
  for (Lane& lane : lanes_) {
    const auto index = static_cast<std::size_t>(lane.env_rng.uniform_int(
        0, static_cast<std::int64_t>(initial_states_->size()) - 1));
    lane.state = (*initial_states_)[index].state;
  }
}

void SyntheticEnvBatch::step_all(
    const std::vector<std::vector<int>>& allocations) {
  const std::size_t n = lanes_.size();
  MIRAS_EXPECTS(allocations.size() == n);
  MIRAS_EXPECTS(n > 0);
  for (const std::vector<int>& allocation : allocations) {
    MIRAS_EXPECTS(allocation.size() == action_dim());
    int total = 0;
    for (const int m : allocation) {
      MIRAS_EXPECTS(m >= 0);
      total += m;
    }
    MIRAS_EXPECTS(total <= consumer_budget_);
  }

  states_.resize(n, model_->state_dim());
  for (std::size_t r = 0; r < n; ++r)
    states_.set_row(r, lanes_[r].state);

  if (refiner_ != nullptr) {
    lane_rngs_.resize(n);
    for (std::size_t r = 0; r < n; ++r)
      lane_rngs_[r] = &lanes_[r].refiner_rng;
    refiner_->predict_batch(states_, allocations, lane_rngs_, ws_,
                            next_states_);
  } else {
    model_->predict_batch(states_, allocations, ws_, next_states_);
  }

  for (std::size_t r = 0; r < n; ++r) {
    Lane& lane = lanes_[r];
    for (std::size_t j = 0; j < lane.state.size(); ++j)
      lane.state[j] = std::max(next_states_(r, j), 0.0);
    lane.last_reward = DynamicsModel::reward_of(lane.state);
  }
}

const std::vector<double>& SyntheticEnvBatch::state(std::size_t lane) const {
  return lanes_.at(lane).state;
}

double SyntheticEnvBatch::last_reward(std::size_t lane) const {
  return lanes_.at(lane).last_reward;
}

}  // namespace miras::envmodel
