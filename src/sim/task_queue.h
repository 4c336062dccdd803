// Per-microservice FIFO request queue (the RabbitMQ queue of §II-A).
// Backed by a power-of-two ring buffer that reuses its TaskRequest slots:
// after warm-up, push/pop never touch the allocator, and clear() keeps the
// capacity so reset-reuse cycles allocate nothing either.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "sim/engine.h"

namespace miras::sim {

/// One task request waiting in (or flowing through) a microservice.
struct TaskRequest {
  std::uint64_t workflow_instance = 0;  // owning workflow request
  std::size_t node = 0;                 // node index within the workflow DAG
  SimTime enqueue_time = 0.0;
};

class TaskQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(TaskRequest request) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = request;
    ++count_;
  }

  /// Removes and returns the oldest request. Requires !empty().
  TaskRequest pop() {
    MIRAS_EXPECTS(count_ > 0);
    const TaskRequest front = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return front;
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  void grow();

  std::vector<TaskRequest> slots_;  // capacity is always a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace miras::sim
