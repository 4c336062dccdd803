#include "rl/replay_buffer.h"

#include <stdexcept>
#include <string>

#include "common/contracts.h"

namespace miras::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  MIRAS_EXPECTS(capacity > 0);
  storage_.reserve(capacity);
}

void ReplayBuffer::append_copy(const std::vector<double>& state,
                               const std::vector<double>& action,
                               double reward,
                               const std::vector<double>& next_state,
                               double discount) {
  // Below capacity the write cursor always points just past the end (this
  // keeps them in lockstep), so the freshly grown slot *is* the cursor slot.
  if (storage_.size() < capacity_) storage_.emplace_back();
  Experience& slot = storage_[write_index_];
  slot.state.assign(state.begin(), state.end());
  slot.action.assign(action.begin(), action.end());
  slot.reward = reward;
  slot.next_state.assign(next_state.begin(), next_state.end());
  slot.discount = discount;
  write_index_ = (write_index_ + 1) % capacity_;
}

void ReplayBuffer::sample_into(std::size_t count, Rng& rng,
                               std::vector<const Experience*>& out) const {
  MIRAS_EXPECTS(count > 0);
  MIRAS_EXPECTS(!storage_.empty());
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto index = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(storage_.size()) - 1));
    out.push_back(&storage_[index]);
  }
}

const Experience& ReplayBuffer::operator[](std::size_t i) const {
  MIRAS_EXPECTS(i < storage_.size());
  return storage_[i];
}

void ReplayBuffer::clear() {
  storage_.clear();
  write_index_ = 0;
}

void write_experience(persist::BinaryWriter& out, const Experience& e) {
  out.vec_f64(e.state);
  out.vec_f64(e.action);
  out.f64(e.reward);
  out.vec_f64(e.next_state);
  out.f64(e.discount);
}

Experience read_experience(persist::BinaryReader& in) {
  Experience e;
  e.state = in.vec_f64();
  e.action = in.vec_f64();
  e.reward = in.f64();
  e.next_state = in.vec_f64();
  e.discount = in.f64();
  return e;
}

void ReplayBuffer::save_state(persist::BinaryWriter& out) const {
  out.u64(capacity_);
  out.u64(write_index_);
  out.u64(storage_.size());
  for (const Experience& e : storage_) write_experience(out, e);
}

void ReplayBuffer::restore_state(persist::BinaryReader& in) {
  const std::uint64_t capacity = in.u64();
  if (capacity != capacity_)
    throw std::runtime_error(
        "checkpoint: replay buffer capacity mismatch (saved " +
        std::to_string(capacity) + ", configured " +
        std::to_string(capacity_) + ")");
  write_index_ = static_cast<std::size_t>(in.u64());
  const std::uint64_t size = in.u64();
  if (size > capacity_ || write_index_ >= capacity_)
    throw std::runtime_error("checkpoint: replay buffer state out of range");
  storage_.clear();
  storage_.reserve(static_cast<std::size_t>(size));
  for (std::uint64_t i = 0; i < size; ++i)
    storage_.push_back(read_experience(in));
}

}  // namespace miras::rl
