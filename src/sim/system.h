// The emulated microservice workflow infrastructure (Figures 1 & 2 of the
// paper): one request queue + consumer pool per task type, a dependency
// service routing DAG successors, Poisson workload with optional bursts,
// and a window-granular control interface: reset(), step() one window,
// reseed(). MIRAS trains against this system or against the learned model
// (§III, Figure 3); the swap lives in envmodel::SyntheticEnvBatch, so this
// concrete class is the only real environment and there is no virtual
// environment interface.
//
// This component substitutes for the paper's GCP/Kubernetes/RabbitMQ
// testbed; see DESIGN.md §1 for the substitution argument, and §2's
// "simulator internals" subsection for the typed-event core: events are
// small POD values in a 4-ary (time, seq) min-heap, dispatched through the
// switch in dispatch(), so steady-state stepping never touches the
// allocator; the per-event path reads the dependency service's flat
// per-workflow tables and service_times_, never the Ensemble.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "sim/consumer_pool.h"
#include "sim/dependency_service.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/task_queue.h"
#include "sim/workload.h"
#include "workflows/ensemble.h"

namespace miras::sim {

struct SystemConfig {
  /// Control-window length in seconds (§VI-A2: the paper settles on 30 s).
  double window_length = 30.0;
  /// Total consumer budget C (14 for MSD, 30 for LIGO, §VI-A4).
  int consumer_budget = 14;
  /// Container start-up delay bounds (§VI-A2: "5 to 10 seconds").
  double startup_delay_min = 5.0;
  double startup_delay_max = 10.0;
  /// Master seed; the whole trajectory is a deterministic function of it.
  std::uint64_t seed = 1;
};

/// Internal accounting counters exposed for conservation tests.
struct SystemCounters {
  std::uint64_t workflows_arrived = 0;
  std::uint64_t workflows_completed = 0;
  std::uint64_t tasks_enqueued = 0;
  std::uint64_t tasks_completed = 0;
};

class MicroserviceSystem {
 public:
  MicroserviceSystem(workflows::Ensemble ensemble, SystemConfig config);

  // A long-lived object that pools its storage; construct in place
  // (prvalue returns elide) or hold via unique_ptr.
  MicroserviceSystem(const MicroserviceSystem&) = delete;
  MicroserviceSystem& operator=(const MicroserviceSystem&) = delete;
  MicroserviceSystem(MicroserviceSystem&&) = delete;
  MicroserviceSystem& operator=(MicroserviceSystem&&) = delete;
  ~MicroserviceSystem() = default;

  // Control interface -------------------------------------------------------
  /// Dimensionality of the state vector (J, the number of task types).
  std::size_t state_dim() const;
  /// Dimensionality of the action vector; equals state_dim() (one consumer
  /// count per microservice).
  std::size_t action_dim() const;
  /// Total consumer budget C; every action must satisfy sum(m) <= C.
  int consumer_budget() const { return config_.consumer_budget; }
  /// Returns the system to a low-WIP initial state and returns s(0).
  std::vector<double> reset();
  /// Applies the allocation m(k) for one window and writes what it observed
  /// into `out`: the next state s(k+1) is out.wip and r(k) is out.reward.
  /// Overwrites every field of `out` and keeps its vectors' capacity, so a
  /// caller that steps into one record per loop allocates nothing once the
  /// record has its shape. Requires allocation.size() == action_dim(), all
  /// entries >= 0, and sum <= consumer_budget().
  void step(const std::vector<int>& allocation, WindowStats& out);

  /// Rewinds to the state a freshly constructed system with master seed
  /// `seed` would have — bit-identically, including rng stream positions:
  /// replays the construction-time rng split, then reset(). Pooled storage
  /// (slab, rings, heap) keeps its capacity, so a reseed-reuse cycle
  /// allocates nothing.
  void reseed(std::uint64_t seed);

  // Extras ------------------------------------------------------------------
  /// Injects `burst.counts[i]` requests of each workflow type i at the
  /// current instant (call between reset() and the first step()).
  void inject_burst(const BurstSpec& burst);

  /// Advances the clock `seconds` forward, processing every due event, with
  /// no window accounting — the raw event-stepping path (used by the
  /// event-throughput benchmark and warm-up loops).
  void run_for(double seconds);

  /// Current WIP per task type (queued + in service).
  std::vector<double> observe_wip() const;

  const workflows::Ensemble& ensemble() const { return ensemble_; }
  const SystemConfig& config() const { return config_; }
  SimTime now() const { return events_.now(); }
  const SystemCounters& counters() const { return counters_; }
  std::uint64_t executed_events() const { return events_.executed_events(); }

  /// Live tasks anywhere in the system (queued + in service), for
  /// conservation checks: tasks_enqueued == tasks_completed + live_tasks().
  std::uint64_t live_tasks() const;

  /// The two rng streams that survive reset(): service-time draws (rng_)
  /// and the workload's arrival gaps. reset() deliberately does NOT reseed
  /// them — episodes explore fresh randomness — so checkpoint resume must
  /// capture their positions to reproduce the post-resume trajectory.
  /// Event-queue contents are NOT part of this snapshot: checkpoints are
  /// taken at iteration boundaries, where the next operation is a reset()
  /// that rebuilds the queue from scratch.
  struct RngSnapshot {
    RngState system;
    RngState workload;
  };
  RngSnapshot rng_snapshot() const {
    return {rng_.state(), workload_.rng_state()};
  }
  void restore_rng_snapshot(const RngSnapshot& snapshot) {
    rng_.set_state(snapshot.system);
    workload_.set_rng_state(snapshot.workload);
  }

 private:
  void dispatch(const Event& event);
  void schedule_next_arrival(std::size_t workflow_type);
  void handle_arrival(std::size_t workflow_type, bool from_steady_stream);
  void enqueue_task(std::uint64_t instance, std::size_t workflow_type,
                    std::size_t node);
  void try_dispatch(std::size_t task_type);
  void handle_task_complete(std::size_t task_type, std::uint64_t instance,
                            std::size_t node);
  void handle_consumer_ready(std::size_t task_type);
  void apply_allocation(const std::vector<int>& allocation);
  /// Writes the current WIP per task type into `wip` (resized): the one
  /// place the state formula lives, shared by observe_wip() and step().
  void write_wip(std::vector<double>& wip) const;

  workflows::Ensemble ensemble_;
  // Per-task-type service-time models, copied out of the ensemble so that
  // a dispatch reads a flat array instead of calling Ensemble::task_type.
  std::vector<workflows::ServiceTimeModel> service_times_;
  SystemConfig config_;
  Rng rng_;

  TypedEventQueue events_;
  DependencyService dependency_service_;
  WorkloadSource workload_;
  std::vector<TaskQueue> queues_;    // one per task type
  std::vector<ConsumerPool> pools_;  // one per task type
  SystemCounters counters_;

  // Accumulators for the in-progress window; sized at construction and
  // refilled in place, never reallocated.
  std::vector<std::size_t> window_arrivals_;
  std::vector<std::size_t> window_completed_;
  std::vector<double> window_response_sum_;
  std::vector<std::size_t> window_task_arrivals_;
  std::vector<std::size_t> window_task_completions_;
};

/// perfbench still spells the environment type `sim::Env`; the next change
/// to perfbench drops this alias.
using Env = MicroserviceSystem;

}  // namespace miras::sim
