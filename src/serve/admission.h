// Multi-lane batched admission in front of an ActorServable.
//
// Under load, many concurrent clients each need one greedy decision. Served
// one by one, every request streams the full actor weight matrices through
// the cache for a single GEMV row. The BatchServer instead coalesces
// whatever is queued (up to max_batch) into ONE lockstep forward pass per
// lane: a lane worker normalises the admitted states into rows of a reused
// input tensor and runs predict_batch — one GEMM that streams the weights
// once for the whole batch. A pass of one request is the same code on one
// row, and a one-row product is the GEMV (nn/tensor.h), so light load pays
// no batching tax.
//
// Lanes are the throughput axis: one worker thread owns one GEMM stream,
// so a single lane pins decisions/sec to single-core throughput no matter
// how many cores the host has. `AdmissionConfig::lanes` shards the
// admission path into N independent copies of the whole queue machinery —
// each lane owns its own preallocated slot arena, free stack, pending
// ring, nn::Workspace, TelemetryRing, and adaptive batch-formation state —
// all serving from the SAME ActorServable. decide() routes a request to a
// lane with a power-of-two-choices pick over relaxed per-lane depth
// counters: two candidate lanes from a cheap counter hash, take the
// shallower. Routing is load balancing only, never semantics.
//
// Batching and lane count never change answers: the kernel invariant
// (nn/tensor.h) makes predict_batch row-for-row bit-identical to
// predict_one, a lane acquires ONE snapshot per pass (so a batch is never
// torn across a hot-swap — every row of a pass is served by the same
// version, and decide() reports which), and every decision is a pure
// function of (snapshot, observation). Hence results are bit-identical at
// every lane count (property-tested in test_serve.cpp the way PR 5 pinned
// thread-count invariance). Within one lane's telemetry stream the serving
// version is monotone nondecreasing (a lane re-pins only forward).
//
// Concurrency shape, per lane: a fixed pool of request slots
// (queue_capacity), a free stack, and a FIFO pending ring, all
// preallocated — the steady-state admission path allocates nothing. One
// mutex guards the lane's queues; three condvars split the wakeups
// (slot_free_ for admission backpressure, work_ready_ for the worker,
// result_ready_ for completion). Clients block in decide() until their
// slot completes; stop() drains everything already admitted (zero dropped
// decisions for admitted work), then rejects waiters and later calls with
// an exception, counted in dropped(). stop() is idempotent AND safe to
// call from any number of threads concurrently: the first caller runs the
// shutdown, the rest wait on an atomic latch until it completes.
//
// Each pass appends one TelemetryRecord (queue depth at admission, batch
// size, oldest-request latency, serving snapshot version) to the lane's
// TelemetryRing; drain one lane with telemetry(lane).snapshot() or all
// lanes with telemetry_snapshot(), which interleaves per-lane records by
// timestamp so observability survives the sharding.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "nn/tensor.h"
#include "nn/workspace.h"
#include "serve/servable.h"
#include "serve/telemetry_ring.h"

namespace miras::serve {

struct AdmissionConfig {
  /// Max requests coalesced into one forward pass (per lane).
  std::size_t max_batch = 8;
  /// Request slots per lane (max requests admitted at once on a lane);
  /// clients routed to a full lane block until a slot frees.
  std::size_t queue_capacity = 64;
  /// Per-lane TelemetryRing capacity (rounded up to a power of two).
  std::size_t telemetry_capacity = 1024;
  /// Worker lanes (independent admission queues + GEMM streams sharing one
  /// snapshot source). Decisions/sec scales with lanes up to core count;
  /// results are bit-identical at every value.
  std::size_t lanes = 1;
};

class BatchServer {
 public:
  /// Starts one worker thread per lane. `servable` must outlive the
  /// server; publish on it freely while the server runs (hot-swap).
  BatchServer(const ActorServable& servable, AdmissionConfig config);

  /// Stops and joins all lane workers (draining admitted requests first).
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Blocking greedy decision: routes `state` to a lane, waits for the
  /// batch it lands in, writes the simplex weights into `weights_out`
  /// (resized), and returns the snapshot version that served it.
  /// Bit-identical to ActorServable::decide on the same state and version,
  /// at every lane count. Throws std::invalid_argument on a non-finite
  /// observation before taking a slot (served() and dropped() do not count
  /// it), and std::runtime_error once the server is stopped. Safe from any
  /// number of threads.
  std::uint64_t decide(const std::vector<double>& state,
                       std::vector<double>& weights_out);

  /// Drains admitted requests on every lane, then rejects waiters and
  /// joins the workers. Idempotent and safe to call concurrently from any
  /// number of threads (late callers block until the shutdown completes);
  /// also run by the destructor.
  void stop();

  /// Completed decisions, summed over lanes.
  std::uint64_t served() const;
  /// Requests rejected because the server stopped before admitting them.
  /// Admitted requests are never dropped — stop() drains them — so this
  /// stays 0 unless stop() races an admission wait.
  std::uint64_t dropped() const;

  std::size_t lane_count() const { return lanes_.size(); }

  /// One lane's telemetry ring (single-writer: that lane's worker).
  const TelemetryRing& telemetry(std::size_t lane = 0) const;

  /// Drains every lane's surviving telemetry window into `out`, merged by
  /// completion timestamp (ties broken by lane index) — the cross-lane
  /// view of what one ring's snapshot() is per lane. Returns the record
  /// count. Reuses `out`'s capacity; safe while the lanes keep serving.
  std::size_t telemetry_snapshot(std::vector<TelemetryRecord>& out) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct RequestSlot {
    const std::vector<double>* state = nullptr;
    std::vector<double>* out = nullptr;
    std::uint64_t enqueue_ns = 0;
    std::uint64_t version = 0;
    bool done = false;
  };

  /// One admission lane: the full queue machinery plus the worker-owned
  /// pass scratch. Never moved after construction (lives behind a
  /// unique_ptr; the mutex and condvars pin it in place).
  struct Lane {
    std::mutex mutex;
    std::condition_variable slot_free;
    std::condition_variable work_ready;
    std::condition_variable result_ready;

    std::vector<RequestSlot> slots;
    std::vector<std::size_t> free_stack;  // stack of free slot indices
    std::vector<std::size_t> pending;     // FIFO ring of admitted indices
    std::size_t pending_head = 0;
    std::size_t pending_count = 0;

    bool stop_requested = false;
    bool last_pass_full = false;
    std::uint64_t served = 0;
    std::uint64_t dropped = 0;

    /// Requests routed here and not yet completed. Relaxed: the router
    /// only needs a cheap, roughly current load signal for the
    /// power-of-two-choices pick, never synchronisation.
    std::atomic<std::uint32_t> depth{0};

    TelemetryRing telemetry;

    // Worker-only pass scratch (touched outside the lock; preallocated).
    std::vector<std::size_t> batch_idx;
    nn::Tensor batch_in;
    nn::Tensor batch_out;
    nn::Workspace ws;
    /// Worker-cached snapshot pin, refreshed (version check, no lock on
    /// the unchanged path) once per pass and released when the lane goes
    /// idle so a parked lane never keeps a stale snapshot alive.
    std::shared_ptr<const ActorSnapshot> pin;

    std::thread worker;

    explicit Lane(std::size_t telemetry_capacity)
        : telemetry(telemetry_capacity) {}
  };

  std::size_t pick_lane();
  void worker_loop(Lane& lane);
  void run_pass(Lane& lane, std::size_t take, std::uint32_t depth);

  const ActorServable& servable_;
  AdmissionConfig config_;

  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Router state for the power-of-two-choices pick (relaxed ticket).
  std::atomic<std::uint64_t> route_ticket_{0};

  /// stop() latch: false->true claimed by exactly one caller; stop_done_
  /// flips once the shutdown (drain + joins) finished, releasing
  /// concurrent and repeat callers.
  std::atomic<bool> stop_claimed_{false};
  std::atomic<bool> stop_done_{false};
};

}  // namespace miras::serve
