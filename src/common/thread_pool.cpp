#include "common/thread_pool.h"

#include <algorithm>

namespace miras::common {

namespace {

// One busy-wait step. On x86 `pause` keeps the spin from starving the
// sibling hyperthread; elsewhere fall back to a scheduler hint.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

constexpr int kDoneSpins = 4096;
constexpr std::size_t kWorkerSpins = 8192;

}  // namespace

int& ThreadPool::loop_depth() {
  static thread_local int depth = 0;
  return depth;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = std::max<std::size_t>(threads, 1);
  // Spinning before parking only pays when each thread (workers plus the
  // caller) can own a core; on an oversubscribed machine it would steal
  // cycles from whichever thread holds the actual work.
  spin_iterations_ = (count + 1 <= hardware_threads()) ? kWorkerSpins : 0;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

// The staging protocol pairs with participate(): fields of loop_ may only
// be written while `gen` is odd *and* `active` is zero. A participant
// increments `active` first and validates `gen` second, so whichever side
// loses the race backs off — the participant no-ops on an odd generation,
// and the stager waits out any participant that got in before the flip.
void ThreadPool::run_loop(std::size_t count, std::size_t chunk, RangeFn fn,
                          void* ctx) {
  std::lock_guard<std::mutex> serialize(loop_mutex_);
  Loop& loop = loop_;

  const std::uint64_t staged = loop.gen.load(std::memory_order_relaxed) + 1;
  loop.gen.store(staged, std::memory_order_seq_cst);  // odd: staging
  while (loop.active.load(std::memory_order_seq_cst) != 0) cpu_relax();

  loop.count = count;
  loop.chunk = chunk;
  loop.run_range = fn;
  loop.ctx = ctx;
  loop.error = nullptr;
  loop.next.store(0, std::memory_order_relaxed);
  {
    // Published under wake_mutex_ so a parking worker cannot miss it.
    std::lock_guard<std::mutex> lock(wake_mutex_);
    loop.gen.store(staged + 1, std::memory_order_release);  // even: live
  }
  wake_cv_.notify_all();

  participate(loop);
  wait_done(loop);

  if (loop.error) {
    std::exception_ptr error = loop.error;
    loop.error = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::participate(Loop& loop) {
  // seq_cst on active/next on purpose: a participant registers in `active`
  // before claiming from `next`, and the caller only observes active == 0
  // after draining `next` itself — under the single total order, any
  // participant ordered after that observation must see next >= count and
  // cannot start a body the caller no longer waits for.
  loop.active.fetch_add(1, std::memory_order_seq_cst);
  if (loop.gen.load(std::memory_order_seq_cst) & 1) {
    // Staging in progress — the fields are not ours to read.
    finish_participation(loop);
    return;
  }
  const std::size_t count = loop.count;
  const std::size_t chunk = loop.chunk;
  ++loop_depth();
  for (;;) {
    const std::size_t begin = loop.next.fetch_add(chunk);
    if (begin >= count) break;
    const std::size_t end = std::min(begin + chunk, count);
    try {
      loop.run_range(loop.ctx, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop.error_mutex);
      if (!loop.error) loop.error = std::current_exception();
      // Stop handing out indices; in-flight chunks finish naturally.
      loop.next.store(count);
    }
  }
  --loop_depth();
  finish_participation(loop);
}

void ThreadPool::finish_participation(Loop& loop) {
  if (loop.active.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::wait_done(Loop& loop) {
  // The common case: stragglers are mid-chunk and finish within
  // microseconds, so spin briefly before paying for a futex sleep.
  for (int i = 0; i < kDoneSpins; ++i) {
    if (loop.active.load(std::memory_order_seq_cst) == 0) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [&] {
    return loop.active.load(std::memory_order_seq_cst) == 0;
  });
}

bool ThreadPool::spin_for_work(std::uint64_t seen) const {
  for (std::size_t i = 0; i < spin_iterations_; ++i) {
    const std::uint64_t gen = loop_.gen.load(std::memory_order_acquire);
    if ((gen != seen && (gen & 1) == 0) ||
        stopping_.load(std::memory_order_acquire))
      return true;
    cpu_relax();
  }
  return false;
}

void ThreadPool::park(std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  wake_cv_.wait(lock, [&] {
    const std::uint64_t gen = loop_.gen.load(std::memory_order_acquire);
    return (gen != seen && (gen & 1) == 0) ||
           stopping_.load(std::memory_order_relaxed);
  });
}

void ThreadPool::worker_loop() {
  // Generation of the last loop this worker joined; a changed even value
  // means a new loop was published. Generations are monotonic, so there is
  // no ABA hazard, and joining is best-effort — a worker that arrives after
  // the loop drained simply claims nothing.
  std::uint64_t seen = 0;
  for (;;) {
    const std::uint64_t gen = loop_.gen.load(std::memory_order_acquire);
    if (gen != seen && (gen & 1) == 0) {
      seen = gen;
      participate(loop_);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!spin_for_work(seen)) park(seen);
  }
}

}  // namespace miras::common
