#include "sim/consumer_pool.h"

#include <algorithm>

#include "common/contracts.h"

namespace miras::sim {

int ConsumerPool::set_target(int target) {
  MIRAS_EXPECTS(target >= 0);
  const int current = provisioned();
  if (target > current) {
    const int to_start = target - current;
    // Re-activate cancelled start-ups first: their ready-events are still in
    // flight, so un-cancelling is equivalent to (and cheaper than) starting
    // a fresh container.
    const int reactivated = std::min(to_start, cancelled_startups_);
    cancelled_startups_ -= reactivated;
    starting_ += reactivated;
    const int fresh = to_start - reactivated;
    starting_ += fresh;
    return fresh;
  }
  int to_remove = current - target;
  // 1. Kill idle consumers immediately.
  const int from_idle = std::min(to_remove, idle_);
  idle_ -= from_idle;
  to_remove -= from_idle;
  // 2. Cancel in-flight start-ups.
  const int from_starting = std::min(to_remove, starting_);
  starting_ -= from_starting;
  cancelled_startups_ += from_starting;
  to_remove -= from_starting;
  // 3. Drain busy consumers (graceful: finish the current task first).
  const int drainable = busy_ - draining_;
  const int from_busy = std::min(to_remove, drainable);
  draining_ += from_busy;
  to_remove -= from_busy;
  MIRAS_ENSURES(to_remove == 0);
  MIRAS_ENSURES(provisioned() == target);
  return 0;
}

void ConsumerPool::clear() {
  idle_ = 0;
  busy_ = 0;
  starting_ = 0;
  draining_ = 0;
  cancelled_startups_ = 0;
}

}  // namespace miras::sim
