// The transition dataset D of Algorithm 2: tuples (s(k), a(k), s(k+1))
// collected from real interactions with the microservice workflow system.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "persist/binary_io.h"

namespace miras::envmodel {

struct Transition {
  std::vector<double> state;
  std::vector<int> action;  // consumer allocation m(k)
  std::vector<double> next_state;
  double reward = 0.0;
};

/// Throws std::runtime_error "<what> <index> has non-finite <field>[i] = v"
/// for the first NaN or +-Inf in t.state, t.next_state or t.reward (checked
/// in that order; the reward message has no [i]). The dist Batch decoder and
/// TransitionDataset::add share it.
void require_finite(const Transition& t, const char* what, std::size_t index);

class TransitionDataset {
 public:
  TransitionDataset(std::size_t state_dim, std::size_t action_dim);

  std::size_t state_dim() const { return state_dim_; }
  std::size_t action_dim() const { return action_dim_; }
  std::size_t size() const { return transitions_.size(); }
  bool empty() const { return transitions_.empty(); }

  /// Appends one transition; dimensions must match, and a NaN or +-Inf in
  /// its state, next_state or reward throws std::runtime_error naming the
  /// field and index (require_finite), so bad observations never reach the
  /// dynamics-model fit.
  void add(Transition transition);

  const Transition& operator[](std::size_t i) const;

  /// All values of state dimension j (for percentile thresholds,
  /// Algorithm 1 initialisation).
  std::vector<double> state_dimension(std::size_t j) const;

  /// A deterministic shuffled index permutation, written into a
  /// caller-owned buffer (resized): zero steady-state allocations across
  /// epochs.
  void shuffled_indices_into(Rng& rng, std::vector<std::size_t>& indices) const;

  /// Splits off the last `count` transitions as a held-out set (paper
  /// §VI-B uses 100 test points); returns {train, test} views by copy.
  std::pair<TransitionDataset, TransitionDataset> split_tail(
      std::size_t count) const;

  /// Snapshot/restore of the collected transitions for crash-resume; the
  /// dataset must have been constructed with the same dimensions (checked).
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in);

 private:
  std::size_t state_dim_;
  std::size_t action_dim_;
  std::vector<Transition> transitions_;
};

}  // namespace miras::envmodel
