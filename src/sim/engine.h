// Discrete-event simulation core: a time-ordered event queue with a
// monotonically advancing clock. Ties are broken by insertion sequence so
// runs are fully deterministic.
//
// There is exactly one event representation: TypedEventQueue stores small
// POD Event values in an EventHeap under the (time, seq) contract and
// dispatches them through a caller-supplied callback (a switch in
// MicroserviceSystem) — zero per-event allocations at steady state. The
// closure-based std::function queue that used to live beside it is gone;
// tests and benches run on the typed queue too.
#pragma once

#include <cstdint>
#include <utility>

#include "common/contracts.h"
#include "sim/event_heap.h"

namespace miras::sim {

/// Simulated seconds since the last reset.
using SimTime = double;

/// Discriminator for the simulator's typed events. Task dispatch and
/// container tear-down are instantaneous in this model (§VI-A2 charges a
/// delay only for start-up), so they happen inline inside the arrival /
/// completion / consumer-ready handlers and need no heap event of their own.
enum class EventType : std::uint8_t {
  kWorkflowArrival,  // target = workflow type; instance/node unused
  kTaskComplete,     // target = task type, instance = workflow id, node = DAG node
  kConsumerReady,    // target = task type (container start-up finished)
  kWindowBoundary,   // no payload; marks the end of a control window
};

/// One scheduled simulator event, stored by value in the heap. Plain data:
/// scheduling and draining never touch the allocator.
struct Event {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t instance = 0;
  std::uint32_t target = 0;
  std::uint32_t node = 0;
  EventType type = EventType::kWindowBoundary;
};

/// The simulator's queue: POD events in (time, seq) order, dispatched
/// through a caller-supplied callback (MicroserviceSystem's switch).
class TypedEventQueue {
 public:
  SimTime now() const { return now_; }

  /// Schedules `event` at absolute time `when`; `when` must not precede the
  /// current clock (so NaN is rejected too). The event's time/seq fields are
  /// assigned here. A `when` of -0.0 is stored as +0.0 (see EventHeap).
  ///
  /// Boundary-equal contract: `when == now_` is explicitly accepted, and the
  /// event runs in the current sweep if one is active (it sorts after every
  /// already-executed event by seq), so handlers may schedule follow-ups
  /// "now".
  void schedule(SimTime when, Event event) {
    MIRAS_EXPECTS(when >= now_);
    event.time = when;
    event.seq = next_seq_++;
    ++scheduled_;
    heap_.push(event);
  }

  /// Convenience: schedules at now() + delay (delay >= 0).
  void schedule_in(SimTime delay, Event event) {
    MIRAS_EXPECTS(delay >= 0.0);
    schedule(now_ + delay, event);
  }

  /// Executes all events with time <= `until` in (time, insertion) order via
  /// `dispatch(Event&&)`, then advances the clock to `until`. Dispatch may
  /// schedule new events, including at the current time.
  template <typename Dispatch>
  void run_until(SimTime until, Dispatch&& dispatch) {
    MIRAS_EXPECTS(until >= now_);
    while (!heap_.empty() && heap_.min().time <= until) {
      // Move out before dispatching: the handler may schedule and thus
      // mutate the heap.
      Event event = heap_.pop_min();
      now_ = event.time;
      ++executed_;
      dispatch(std::move(event));
    }
    now_ = until;
#if MIRAS_CONTRACTS
    // Every event ever scheduled is either still pending or was executed.
    MIRAS_ASSERT(executed_ + heap_.size() == scheduled_);
#endif
  }

  /// Drops all pending events and rewinds the clock to zero. Heap capacity
  /// is kept, so a reset-reuse cycle allocates nothing.
  void reset() {
    scheduled_ -= heap_.size();  // dropped events were never executed
    heap_.clear();
    now_ = 0.0;
    // next_seq_/executed_ keep counting; only ordering within a run matters.
  }

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  EventHeap<Event, 4> heap_;
};

}  // namespace miras::sim
