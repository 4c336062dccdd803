#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace miras {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() != b.next_u64()) ++differing;
  EXPECT_GT(differing, 95);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(7);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double variance = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(variance, 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 5));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntIsUnbiased) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(0, 9)];
  for (const int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(0.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, LognormalMeanMatchesFormula) {
  Rng rng(29);
  // E[exp(N(mu, sigma))] = exp(mu + sigma^2 / 2).
  const double mu = 0.5, sigma = 0.4;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, sigma);
  EXPECT_NEAR(sum / n, std::exp(mu + sigma * sigma / 2.0), 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleDeterministicPerSeed) {
  std::vector<int> v1{1, 2, 3, 4, 5}, v2{1, 2, 3, 4, 5};
  Rng a(99), b(99);
  a.shuffle(v1);
  b.shuffle(v2);
  EXPECT_EQ(v1, v2);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(55);
  Rng child = parent.split();
  // The child must differ from a continuation of the parent stream.
  int identical = 0;
  for (int i = 0; i < 50; ++i)
    if (parent.next_u64() == child.next_u64()) ++identical;
  EXPECT_LT(identical, 2);
}

TEST(Rng, ContractViolations) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), ContractViolation);
  EXPECT_THROW(rng.uniform_int(5, 4), ContractViolation);
  EXPECT_THROW(rng.exponential(0.0), ContractViolation);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(ShardSeed, IsAPureFunctionOfRootAndIndex) {
  EXPECT_EQ(shard_seed(42, 7), shard_seed(42, 7));
  EXPECT_NE(shard_seed(42, 7), shard_seed(42, 8));
  EXPECT_NE(shard_seed(42, 7), shard_seed(43, 7));
}

TEST(ShardSeed, NeighbouringShardsAndRootsAreDistinct) {
  // Sequential shard indices and sequential roots are the common case
  // (episode e of iteration i); none of them may collide or give trivially
  // correlated streams.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t root = 0; root < 8; ++root)
    for (std::uint64_t shard = 0; shard < 64; ++shard)
      seeds.push_back(shard_seed(root, shard));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(RngState, RoundtripReplaysExactStream) {
  Rng rng(123);
  for (int i = 0; i < 37; ++i) rng.next_u64();  // advance to mid-stream
  const RngState saved = rng.state();

  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 100; ++i) expected.push_back(rng.next_u64());

  Rng other(999);  // entirely different position before restore
  other.set_state(saved);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(other.next_u64(), expected[i]);
}

TEST(RngState, CapturesPendingBoxMullerCache) {
  // normal() produces two values per Box-Muller round and caches the
  // second; a state captured between the pair must replay the cached value
  // first, or resumed normal sequences shift by one draw.
  Rng rng(7);
  rng.normal();  // leaves the second value cached
  const RngState saved = rng.state();
  EXPECT_TRUE(saved.has_cached_normal);

  std::vector<double> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(rng.normal());

  Rng other;
  other.set_state(saved);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(other.normal(), expected[i]);
}

TEST(RngState, StateIsValueSemantics) {
  Rng rng(55);
  const RngState saved = rng.state();
  rng.next_u64();
  EXPECT_NE(rng.state(), saved);  // advancing changes the captured words
  rng.set_state(saved);
  EXPECT_EQ(rng.state(), saved);
}

TEST(RngState, ShardSeededStreamRestoresIdentically) {
  // The shard_seed derivation path: a worker's rng captured mid-episode
  // must resume exactly, independent of the root stream's position.
  Rng worker(shard_seed(42, 3));
  for (int i = 0; i < 11; ++i) worker.uniform();
  const RngState saved = worker.state();
  const double expected = worker.exponential(0.5);

  Rng resumed(shard_seed(42, 3));
  resumed.set_state(saved);
  EXPECT_EQ(resumed.exponential(0.5), expected);
}

TEST(ShardSeed, DerivedStreamsAreDecorrelated) {
  // Streams seeded from neighbouring shards of the same root must not move
  // in lockstep.
  Rng a(shard_seed(5, 0));
  Rng b(shard_seed(5, 1));
  int identical = 0;
  for (int i = 0; i < 50; ++i)
    if (a.next_u64() == b.next_u64()) ++identical;
  EXPECT_LT(identical, 2);
}

}  // namespace
}  // namespace miras
