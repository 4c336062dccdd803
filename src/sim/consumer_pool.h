// Consumer (container) pool for one microservice.
//
// Models the Kubernetes Replication Controller semantics of §V: scaling up
// spawns containers that become usable only after a 5-10 s start-up delay;
// scaling down removes idle containers immediately, cancels not-yet-ready
// start-ups next, and finally marks busy containers to drain (finish their
// current task, then terminate) — in-flight tasks are never lost, matching
// the paper's acknowledgement mechanism.
//
// The pool is pure bookkeeping; the MicroserviceSystem owns the event queue
// and calls the on_*() transition methods from its event handlers.
#pragma once

#include <cstddef>

#include "common/contracts.h"

namespace miras::sim {

class ConsumerPool {
 public:
  /// Consumers that can accept a task right now.
  int idle() const { return idle_; }
  /// Consumers currently processing a task (including draining ones).
  int busy() const { return busy_; }
  /// Start-ups in flight (scheduled but not yet ready, minus cancellations).
  int starting() const { return starting_; }
  /// Busy consumers that will terminate after their current task.
  int draining() const { return draining_; }

  /// Consumers counted against the operator's target: idle + busy +
  /// starting - draining.
  int provisioned() const { return idle_ + busy_ + starting_ - draining_; }

  /// Adjusts toward `target` provisioned consumers. Returns the number of
  /// *new start-ups* the caller must schedule ready-events for (0 when
  /// scaling down or holding).
  int set_target(int target);

  // The per-event transitions below are inline: the simulator calls one on
  // every dispatch, completion and start-up.

  /// A start-up completed. Returns true if the consumer actually joins the
  /// idle set (false when the start-up had been cancelled by a scale-down).
  bool on_consumer_ready() {
    if (cancelled_startups_ > 0) {
      --cancelled_startups_;
      return false;
    }
    MIRAS_EXPECTS(starting_ > 0);
    --starting_;
    ++idle_;
    return true;
  }

  /// An idle consumer picked up a task. Requires idle() > 0.
  void on_dispatch() {
    MIRAS_EXPECTS(idle_ > 0);
    --idle_;
    ++busy_;
  }

  /// A busy consumer finished its task. Returns true if the consumer stays
  /// (goes idle); false if it was draining and terminates.
  bool on_task_complete() {
    MIRAS_EXPECTS(busy_ > 0);
    --busy_;
    if (draining_ > 0) {
      --draining_;
      return false;
    }
    ++idle_;
    return true;
  }

  /// Drops all consumers (system reset).
  void clear();

 private:
  int idle_ = 0;
  int busy_ = 0;
  int starting_ = 0;
  int draining_ = 0;
  // Start-up ready-events that should be ignored because the start-up was
  // cancelled before completing.
  int cancelled_startups_ = 0;
};

}  // namespace miras::sim
