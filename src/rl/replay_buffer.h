// Fixed-capacity experience replay for DDPG. Stores continuous (weight-
// space) actions; the environment-facing integer allocation is recoverable
// via rl::allocation_from_weights but is not needed for learning.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "persist/binary_io.h"

namespace miras::rl {

struct Experience {
  std::vector<double> state;
  std::vector<double> action;  // simplex weights
  /// Accumulated (discounted) reward between `state` and `next_state` —
  /// a single-step reward for 1-step transitions, an n-step return for
  /// n-step ones.
  double reward = 0.0;
  std::vector<double> next_state;
  /// Discount applied to the bootstrapped value of `next_state`
  /// (gamma^n for an n-step transition).
  double discount = 0.0;
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }

  /// Appends, overwriting the oldest entry once at capacity. Fields are
  /// copied into the target slot's existing buffers: once the ring is at
  /// capacity (and transition shapes are stable) appending allocates
  /// nothing.
  void append_copy(const std::vector<double>& state,
                   const std::vector<double>& action, double reward,
                   const std::vector<double>& next_state, double discount);

  /// Uniform sample *with replacement* of `count` experiences into `out`
  /// (cleared and refilled; its capacity is reused, so update steps
  /// allocate nothing at steady state): indices are drawn independently,
  /// so the batch may repeat entries, and `count` may exceed size() (useful
  /// while the buffer is still warming up). Requires count > 0 and
  /// !empty() — an empty batch is never meaningful to callers, which
  /// divide by the batch size.
  void sample_into(std::size_t count, Rng& rng,
                   std::vector<const Experience*>& out) const;

  const Experience& operator[](std::size_t i) const;

  void clear();

  /// Snapshot/restore of the full buffer (contents and write cursor) for
  /// crash-resume; restoring requires the capacities to match, so the
  /// eviction schedule continues identically.
  void save_state(persist::BinaryWriter& out) const;
  void restore_state(persist::BinaryReader& in);

 private:
  std::size_t capacity_;
  std::size_t write_index_ = 0;
  std::vector<Experience> storage_;
};

/// Experience encoding shared by the replay buffer and the DDPG agent's
/// pending n-step window.
void write_experience(persist::BinaryWriter& out, const Experience& e);
Experience read_experience(persist::BinaryReader& in);

}  // namespace miras::rl
