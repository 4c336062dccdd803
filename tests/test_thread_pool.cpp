// ThreadPool: correctness of the dispatch machinery and of the determinism
// contract it underwrites — every index exactly once, exceptions propagate,
// nested use cannot deadlock, and seed-sharded work is bit-identical for
// any worker count.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace miras::common {
namespace {

TEST(ThreadPool, SpawnsAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  ThreadPool pool3(3);
  EXPECT_EQ(pool3.thread_count(), 3u);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForHandlesZeroAndOneIndex) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 17)
                                     throw std::runtime_error("body failed");
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and remains usable.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(50, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 50u);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Outer loop wider than the pool, each body running an inner loop: with
  // caller participation every level makes progress even when all workers
  // are busy.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

// The determinism contract itself: seed-sharded work merged by index is
// bit-identical for any worker count.
std::vector<double> sharded_draws(ThreadPool& pool, std::uint64_t root,
                                  std::size_t shards) {
  std::vector<double> results(shards);
  pool.parallel_for(shards, [&](std::size_t i) {
    Rng rng(shard_seed(root, i));
    double total = 0.0;
    for (int k = 0; k < 100; ++k) total += rng.normal();
    results[i] = total;
  });
  return results;
}

TEST(ThreadPool, SeedShardedWorkIsIdenticalForAnyWorkerCount) {
  ThreadPool one(1);
  ThreadPool eight(8);
  const std::vector<double> a = sharded_draws(one, 99, 64);
  const std::vector<double> b = sharded_draws(eight, 99, 64);
  EXPECT_EQ(a, b);  // exact: same bits, not just close
}

TEST(ThreadPool, ChunkedClaimingIsDeterministicAcrossChunkSizes) {
  // The chunk size is a pure dispatch knob: any chunk size on any worker
  // count must produce the serial result bit for bit.
  ThreadPool serial(1);
  const std::vector<double> reference = sharded_draws(serial, 7, 96);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    for (const std::size_t chunk : {1u, 3u, 16u, 64u, 1000u}) {
      std::vector<double> results(96);
      pool.parallel_for(
          96,
          [&](std::size_t i) {
            Rng rng(shard_seed(7, i));
            double total = 0.0;
            for (int k = 0; k < 100; ++k) total += rng.normal();
            results[i] = total;
          },
          chunk);
      EXPECT_EQ(results, reference)
          << "workers=" << workers << " chunk=" << chunk;
    }
  }
}

TEST(ThreadPool, ChunkedClaimingRethrowsFirstAndAbandonsRemainder) {
  // A body failure must surface as exactly one rethrown exception, and the
  // unclaimed tail of the index space must be abandoned, not executed.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000000;
  std::atomic<std::size_t> executed{0};
  bool threw = false;
  try {
    pool.parallel_for(
        kCount,
        [&](std::size_t i) {
          executed.fetch_add(1, std::memory_order_relaxed);
          if (i == 0) throw std::runtime_error("first chunk failed");
        },
        /*chunk=*/16);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // In-flight chunks finish naturally, but the vast majority of the index
  // space is never handed out once the error parks the claim counter.
  EXPECT_LT(executed.load(), kCount / 2);
  // The pool survives and the next loop is complete.
  std::atomic<std::size_t> done{0};
  pool.parallel_for(64, [&](std::size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 64u);
}

TEST(ThreadPool, NestedParallelForWithExplicitChunksDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(
      16,
      [&](std::size_t) {
        pool.parallel_for(
            16,
            [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); },
            /*chunk=*/4);
      },
      /*chunk=*/2);
  EXPECT_EQ(total.load(), 256u);
}

TEST(ThreadPool, ConcurrentExternalCallersSerializeLoops) {
  // Two threads that both own no pool worker may race parallel_for; the
  // single loop slot must serialise them without losing indices.
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  std::thread other([&] {
    for (int round = 0; round < 20; ++round)
      pool.parallel_for(100, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
  });
  for (int round = 0; round < 20; ++round)
    pool.parallel_for(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  other.join();
  EXPECT_EQ(total.load(), 4000u);
}

TEST(ThreadPool, StressManyConcurrentLoops) {
  ThreadPool pool(4);
  std::vector<std::size_t> sums(50, 0);
  for (std::size_t round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(round + 1, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    sums[round] = sum.load();
  }
  for (std::size_t round = 0; round < 50; ++round) {
    const std::size_t n = round + 1;
    EXPECT_EQ(sums[round], n * (n + 1) / 2);
  }
}

}  // namespace
}  // namespace miras::common
