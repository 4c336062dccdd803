// Fixed-size worker pool with a deterministic, allocation-free parallel_for.
//
// The pool exists to make the embarrassingly parallel parts of the stack
// (evaluation grids, episode collection, gradient blocks) scale with the
// machine *without* giving up the bit-for-bit reproducibility contract:
//
//  - parallel_for assigns work by *index*, and callers are expected to
//    derive any per-unit randomness from (root_seed, index) via shard_seed()
//    and to write results into preallocated index slots. The decomposition
//    then fixes every random stream and every merge order, so worker count,
//    chunk size, and scheduling cannot change the result.
//  - The calling thread participates in parallel_for (it claims index
//    chunks alongside the workers), so even a fully busy pool completes
//    every loop. A parallel_for issued from *inside* a loop body runs
//    inline on the calling thread (still ascending order), which makes
//    nested use deadlock-free by construction.
//
// Dispatch path: workers are persistent and park on one condition
// variable. A parallel_for publishes its loop — count, chunk size, body —
// into a single pool-owned slot guarded by a generation counter (odd =
// being staged, even = live), wakes the workers once, and everyone claims
// contiguous index chunks from one atomic counter. No per-call heap
// traffic, no per-task wakeups: a loop costs one notify_all and one atomic
// fetch_add per chunk. That slot is the pool's only hand-off: workers wait
// for a new loop generation or for shutdown.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace miras::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one). `ThreadPool(1)` is a serial
  /// executor, which is what `--threads 1` maps to: it runs every loop
  /// inline on the caller, in ascending index order.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Reasonable default worker count for this machine.
  static std::size_t hardware_threads();

  /// Runs body(0) .. body(count-1), each exactly once, distributed over the
  /// workers *and* the calling thread in contiguous chunks of `chunk`
  /// indices claimed from one atomic counter (chunk 0 picks a default sized
  /// to the worker count). Returns when every index has finished. The first
  /// exception thrown by any body is rethrown here (remaining unclaimed
  /// indices are abandoned). Results never depend on chunk size or worker
  /// count (per-index slot contract above). Safe to call from inside a loop
  /// body or with a single-worker pool — those cases run inline, in
  /// ascending index order, with zero dispatch cost. No heap allocations on
  /// any path: the body is passed by reference, not type-erased.
  ///
  /// The default chunk suits many cheap, evenly sized bodies. Pass
  /// `chunk = 1` when each body is a whole episode, grid cell or shard
  /// (hundreds of microseconds or more, uneven in cost): one claim per
  /// index is then free, and a default chunk of several uneven units can
  /// leave threads idle behind the last, slowest chunk.
  template <typename Body>
  void parallel_for(std::size_t count, Body&& body, std::size_t chunk = 0) {
    if (count == 0) return;
    if (workers_.size() <= 1 || count == 1 || loop_depth() > 0) {
      for (std::size_t i = 0; i < count; ++i) body(i);
      return;
    }
    using Stored = std::remove_reference_t<Body>;
    run_loop(count, chunk != 0 ? chunk : default_chunk(count),
             [](void* ctx, std::size_t begin, std::size_t end) {
               auto& fn = *static_cast<Stored*>(ctx);
               for (std::size_t i = begin; i < end; ++i) fn(i);
             },
             const_cast<void*>(
                 static_cast<const void*>(std::addressof(body))));
  }

 private:
  using RangeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  // The one live loop. Fields other than the atomics are written only while
  // `gen` is odd and `active` is zero (no participant inside), and read only
  // by participants that incremented `active` and then observed an even
  // `gen` — the staging thread cannot proceed past its active==0 wait while
  // any such participant is still running.
  struct Loop {
    alignas(64) std::atomic<std::uint64_t> gen{0};  // odd = staging
    alignas(64) std::atomic<std::size_t> next{0};   // chunk claim counter
    alignas(64) std::atomic<std::size_t> active{0};
    std::size_t count = 0;
    std::size_t chunk = 1;
    RangeFn run_range = nullptr;
    void* ctx = nullptr;
    std::mutex error_mutex;
    std::exception_ptr error;  // first failure wins
  };

  std::size_t default_chunk(std::size_t count) const {
    const std::size_t parts = 4 * (workers_.size() + 1);
    return count > parts ? count / parts : 1;
  }

  // Per-thread nesting depth of loop bodies (shared across pools; a nested
  // parallel_for on any pool runs inline rather than re-entering dispatch).
  static int& loop_depth();

  void run_loop(std::size_t count, std::size_t chunk, RangeFn fn, void* ctx);
  void participate(Loop& loop);
  void finish_participation(Loop& loop);
  void wait_done(Loop& loop);
  void worker_loop();
  bool spin_for_work(std::uint64_t seen) const;
  void park(std::uint64_t seen);

  std::vector<std::thread> workers_;
  Loop loop_;
  // Serialises top-level parallel_for calls (one live loop slot).
  std::mutex loop_mutex_;
  // Worker parking: predicate covers a new loop generation and shutdown.
  // The loop generation is published under this mutex so a parking worker
  // can never miss a wakeup.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  // Caller-side completion parking (active == 0).
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::atomic<bool> stopping_{false};
  // Busy-wait iterations before a worker parks; zero when the pool would
  // oversubscribe the machine (spinning then only steals cycles from the
  // thread doing real work).
  std::size_t spin_iterations_ = 0;
};

}  // namespace miras::common
