#include "sim/task_queue.h"

namespace miras::sim {

void TaskQueue::grow() {
  const std::size_t capacity = slots_.empty() ? 8 : slots_.size() * 2;
  std::vector<TaskRequest> bigger(capacity);
  for (std::size_t i = 0; i < count_; ++i)
    bigger[i] = slots_[(head_ + i) & (slots_.size() - 1)];
  slots_ = std::move(bigger);
  head_ = 0;
}

}  // namespace miras::sim
