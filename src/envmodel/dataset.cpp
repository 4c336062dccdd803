#include "envmodel/dataset.h"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/contracts.h"

namespace miras::envmodel {

namespace {
void require_finite_values(const std::vector<double>& values,
                           const char* field, const char* what,
                           std::size_t index) {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (!std::isfinite(values[i]))
      throw std::runtime_error(std::string(what) + " " +
                               std::to_string(index) + " has non-finite " +
                               field + "[" + std::to_string(i) +
                               "] = " + std::to_string(values[i]));
}
}  // namespace

void require_finite(const Transition& t, const char* what, std::size_t index) {
  require_finite_values(t.state, "state", what, index);
  require_finite_values(t.next_state, "next_state", what, index);
  if (!std::isfinite(t.reward))
    throw std::runtime_error(std::string(what) + " " + std::to_string(index) +
                             " has non-finite reward = " +
                             std::to_string(t.reward));
}

TransitionDataset::TransitionDataset(std::size_t state_dim,
                                     std::size_t action_dim)
    : state_dim_(state_dim), action_dim_(action_dim) {
  MIRAS_EXPECTS(state_dim > 0);
  MIRAS_EXPECTS(action_dim > 0);
}

void TransitionDataset::add(Transition transition) {
  MIRAS_EXPECTS(transition.state.size() == state_dim_);
  MIRAS_EXPECTS(transition.action.size() == action_dim_);
  MIRAS_EXPECTS(transition.next_state.size() == state_dim_);
  require_finite(transition, "envmodel: dataset transition",
                 transitions_.size());
  transitions_.push_back(std::move(transition));
}

const Transition& TransitionDataset::operator[](std::size_t i) const {
  MIRAS_EXPECTS(i < transitions_.size());
  return transitions_[i];
}

std::vector<double> TransitionDataset::state_dimension(std::size_t j) const {
  MIRAS_EXPECTS(j < state_dim_);
  std::vector<double> values;
  values.reserve(transitions_.size());
  for (const auto& t : transitions_) values.push_back(t.state[j]);
  return values;
}

void TransitionDataset::shuffled_indices_into(
    Rng& rng, std::vector<std::size_t>& indices) const {
  indices.resize(transitions_.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  rng.shuffle(indices);
}

std::pair<TransitionDataset, TransitionDataset> TransitionDataset::split_tail(
    std::size_t count) const {
  MIRAS_EXPECTS(count <= transitions_.size());
  TransitionDataset train(state_dim_, action_dim_);
  TransitionDataset test(state_dim_, action_dim_);
  const std::size_t split = transitions_.size() - count;
  for (std::size_t i = 0; i < transitions_.size(); ++i)
    (i < split ? train : test).add(transitions_[i]);
  return {std::move(train), std::move(test)};
}

void TransitionDataset::save_state(persist::BinaryWriter& out) const {
  out.u64(state_dim_);
  out.u64(action_dim_);
  out.u64(transitions_.size());
  for (const Transition& t : transitions_) {
    out.vec_f64(t.state);
    out.vec_i32(t.action);
    out.vec_f64(t.next_state);
    out.f64(t.reward);
  }
}

void TransitionDataset::restore_state(persist::BinaryReader& in) {
  const std::uint64_t state_dim = in.u64();
  const std::uint64_t action_dim = in.u64();
  if (state_dim != state_dim_ || action_dim != action_dim_)
    throw std::runtime_error(
        "checkpoint: dataset dimension mismatch (saved " +
        std::to_string(state_dim) + "x" + std::to_string(action_dim) +
        ", expected " + std::to_string(state_dim_) + "x" +
        std::to_string(action_dim_) + ")");
  const std::uint64_t count = in.u64();
  transitions_.clear();
  transitions_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Transition t;
    t.state = in.vec_f64();
    t.action = in.vec_i32();
    t.next_state = in.vec_f64();
    t.reward = in.f64();
    if (t.state.size() != state_dim_ || t.action.size() != action_dim_ ||
        t.next_state.size() != state_dim_)
      throw std::runtime_error("checkpoint: dataset transition " +
                               std::to_string(i) +
                               " has mismatched dimensions — corrupted");
    transitions_.push_back(std::move(t));
  }
}

}  // namespace miras::envmodel
