#include "common/rng.h"

#include <gtest/gtest.h>

#include "common/contracts.h"
#include "workflows/service_time.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
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

/// Draws normals from `rng` until one leaves the ziggurat's fast path (it
/// consumed more than one next_u64) in the wanted region: the tail when
/// `tail`, else a wedge. Returns the draw.
double draw_until_slow_path(Rng& rng, bool tail) {
  for (;;) {
    Rng one_word = rng;
    (void)one_word.next_u64();
    const double z = rng.normal();
    if (rng.state() != one_word.state() &&
        (std::abs(z) >= ziggurat::kTailStart) == tail)
      return z;
  }
}

/// Saves `rng`, records a mixed continuation, and replays it from the save
/// in a generator that was elsewhere in another stream.
void expect_state_replays(Rng& rng) {
  const RngState saved = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 40; ++i) {
    expected.push_back(rng.normal());
    expected.push_back(rng.uniform());
    expected.push_back(rng.lognormal(0.3, 0.7));
  }
  Rng other(999);
  for (int i = 0; i < 5; ++i) other.normal();
  other.set_state(saved);
  for (std::size_t i = 0; i < expected.size(); i += 3) {
    EXPECT_EQ(other.normal(), expected[i]) << "draw " << i;
    EXPECT_EQ(other.uniform(), expected[i + 1]) << "draw " << i + 1;
    EXPECT_EQ(other.lognormal(0.3, 0.7), expected[i + 2]) << "draw " << i + 2;
  }
}

TEST(RngState, RestoresAtArbitraryStreamPositions) {
  // The sampler keeps nothing between draws, so the four words are the
  // whole state wherever the stream stands: after a fast-path draw, after
  // a draw that rejected through a wedge or the tail, or mid-way through
  // uniforms.
  Rng rng(7);
  expect_state_replays(rng);
  for (int i = 0; i < 13; ++i) rng.normal();
  expect_state_replays(rng);
  EXPECT_LT(std::abs(draw_until_slow_path(rng, /*tail=*/false)),
            ziggurat::kTailStart);
  expect_state_replays(rng);
  EXPECT_GE(std::abs(draw_until_slow_path(rng, /*tail=*/true)),
            ziggurat::kTailStart);
  expect_state_replays(rng);
  rng.uniform();
  expect_state_replays(rng);
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

// ---- The ziggurat normal sampler ----------------------------------------
// Every statistical check runs on a fixed seed, so each is deterministic;
// its tolerance is stated against the sampling error it has to absorb.

TEST(RngNormal, FirstFourMomentsMatchTheStandardNormal) {
  // 10^6 draws. Standard errors: mean 1e-3, variance sqrt(2/n) = 1.4e-3,
  // skew sqrt(6/n) = 2.4e-3, kurtosis sqrt(24/n) = 4.9e-3. Each tolerance
  // is five standard errors.
  Rng rng(101);
  constexpr int n = 1000000;
  double s1 = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    const double z2 = z * z;
    s1 += z;
    s2 += z2;
    s3 += z2 * z;
    s4 += z2 * z2;
  }
  const double mean = s1 / n;
  const double variance = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5 * 1e-3);
  EXPECT_NEAR(variance, 1.0, 5 * 1.42e-3);
  EXPECT_NEAR(s3 / n, 0.0, 5 * 2.45e-3);
  EXPECT_NEAR(s4 / n, 3.0, 5 * 4.90e-3);
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(RngNormal, BinnedDrawsPassAChiSquareTestAgainstPhi) {
  // 10^6 draws into 34 bins: edges every 0.25 on [-4, 4] plus the two
  // outer tails (smallest expected count ~32). With 33 degrees of freedom
  // the statistic must stay below 63.87, the chi-square 0.999 quantile.
  Rng rng(202);
  constexpr int n = 1000000;
  std::vector<double> edges;
  for (int k = -16; k <= 16; ++k) edges.push_back(0.25 * k);
  std::vector<int> counts(edges.size() + 1, 0);
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    ++counts[static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), z) - edges.begin())];
  }
  double chi2 = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double lo = b == 0 ? 0.0 : phi(edges[b - 1]);
    const double hi = b == edges.size() ? 1.0 : phi(edges[b]);
    const double expected = n * (hi - lo);
    chi2 += (counts[b] - expected) * (counts[b] - expected) / expected;
  }
  EXPECT_LT(chi2, 63.87);
}

TEST(RngNormal, TailBeyondRHasTheNormalFrequency) {
  // P(|z| > R) = erfc(R / sqrt 2) ~ 2.58e-4 for the 256-layer R = 3.6542
  // (a 128-layer table, R = 3.4426, would give ~5.8e-4). Over 4 x 10^6
  // draws that is ~1032 draws with binomial sd ~32; tolerance 5 sd. Every
  // one of them comes from the tail path, and so does every draw beyond
  // 4.5 (expected ~27, sd ~5; tolerance 5 sd).
  Rng rng(303);
  constexpr int n = 4000000;
  const double r = ziggurat::kTailStart;
  int beyond_r = 0, beyond_far = 0;
  for (int i = 0; i < n; ++i) {
    const double a = std::abs(rng.normal());
    beyond_r += a > r;
    beyond_far += a > 4.5;
  }
  const double p_r = std::erfc(r / std::sqrt(2.0));
  const double p_far = std::erfc(4.5 / std::sqrt(2.0));
  EXPECT_NEAR(beyond_r, n * p_r, 5 * std::sqrt(n * p_r * (1 - p_r)));
  EXPECT_NEAR(beyond_far, n * p_far, 5 * std::sqrt(n * p_far * (1 - p_far)));
}

TEST(RngNormal, SignsAreSymmetric) {
  // The sign is one bit of the draw, independent of the magnitude: over
  // 10^6 draws the positive count is Binomial(n, 1/2), sd 500; tolerance
  // 5 sd. The same holds beyond 2 (p = 0.0455 total, sd of the positive
  // count ~104).
  Rng rng(404);
  constexpr int n = 1000000;
  int positive = 0, far_positive = 0, far = 0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    positive += z > 0.0;
    far += std::abs(z) > 2.0;
    far_positive += z > 2.0;
  }
  EXPECT_NEAR(positive, n / 2, 5 * 500);
  EXPECT_NEAR(far_positive, far / 2, 5 * std::sqrt(far / 4.0));
}

/// |a - b| in units in the last place of b.
double ulps_apart(double a, double b) {
  if (a == b) return 0.0;
  const double ulp =
      std::nextafter(std::abs(b), std::numeric_limits<double>::infinity()) -
      std::abs(b);
  return std::abs(a - b) / ulp;
}

TEST(RngNormal, TableLiteralsRecomputeWithinOneUlp) {
  // V must follow from R; every layer edge then follows from the R and V
  // literals by the forward recursion x_{i+1} = f^-1(V / x_i + f(x_i)),
  // recomputed in long double (64-bit significand on x86-64) and compared
  // with the literals, which the generator in rng.cpp computed to 60
  // digits. The recursion amplifies error near the peak, so it starts from
  // the literals themselves rather than from a recomputed V.
  using ziggurat::kF;
  using ziggurat::kX;
  using LD = long double;
  const auto f = [](LD x) { return std::exp(-x * x / 2); };
  const LD r = ziggurat::kTailStart;
  const LD v_from_r = r * f(r) + std::sqrt(std::acos(LD{-1}) / 2) *
                                     std::erfc(r / std::sqrt(LD{2}));
  EXPECT_LE(ulps_apart(static_cast<double>(v_from_r), ziggurat::kLayerArea),
            1.0);
  const LD v = ziggurat::kLayerArea;

  std::vector<LD> x = {v / f(r), r};
  while (x.size() < ziggurat::kLayers)
    x.push_back(std::sqrt(-2 * std::log(v / x.back() + f(x.back()))));
  x.push_back(0);
  ASSERT_EQ(x.size(), kX.size());
  EXPECT_EQ(kF[0], 0.0);  // the base strip's lower edge is the axis
  for (std::size_t i = 0; i < kX.size(); ++i) {
    EXPECT_LE(ulps_apart(static_cast<double>(x[i]), kX[i]), 1.0) << i;
    if (i > 0) {
      EXPECT_LE(ulps_apart(static_cast<double>(f(x[i])), kF[i]), 1.0) << i;
    }
  }
  // R closes the ziggurat: the top layer, [0, x_255) under the peak, has
  // area V too.
  const LD top = static_cast<LD>(kX[ziggurat::kLayers - 1]);
  EXPECT_NEAR(static_cast<double>(top * (1 - f(top)) / v), 1.0, 1e-12);
}

TEST(RngNormal, ServiceTimeLognormalMatchesItsMeanAndCv) {
  // LIGO's service times: lognormal with cv 0.6. Over 10^6 draws of a
  // 12 s task the mean's standard error is 12 * 0.6 / 1000 = 7.2e-3 s
  // (tolerance 5 se = 0.036 s); the sample cv's error is dominated by the
  // lognormal's excess kurtosis (~8 at this cv), se ~1.7e-3 relative,
  // tolerance 1% relative.
  const workflows::ServiceTimeModel model =
      workflows::ServiceTimeModel::lognormal(12.0, 0.6);
  Rng rng(505);
  constexpr int n = 1000000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double t = model.sample(rng);
    ASSERT_GT(t, 0.0);
    sum += t;
    sum_sq += t * t;
  }
  const double mean = sum / n;
  const double cv = std::sqrt(sum_sq / n - mean * mean) / mean;
  EXPECT_NEAR(mean, 12.0, 0.036);
  EXPECT_NEAR(cv, 0.6, 0.006);
}

TEST(RngNormal, FirstSixteenDrawsOfSeed42AreFixed) {
  // Pinned so the next change to the normal stream is visible here first.
  const std::vector<double> golden = {
      -0x1.ab3627bf219c4p-1, 0x1.cff704884f086p-1, -0x1.6860d5903d207p+0,
      -0x1.db9a0e1dc026cp-2, -0x1.e8470625b2783p-1, -0x1.18b1bf9765591p-2,
      0x1.d7e4b141d6cecp-2, -0x1.a866782ce6889p-2, 0x1.bba185738a527p-2,
      -0x1.9f89c2ea57e2ap-1, -0x1.e983619d8212dp-3, -0x1.f42cfa53ae182p+0,
      -0x1.faa800c0ae04fp-2, 0x1.3e7ccaa5a6f89p-3, 0x1.cd92e9339fb1ep-1,
      -0x1.40d52acf2e2d6p-3,
  };
  Rng rng(42);
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_EQ(rng.normal(), golden[i]) << "draw " << i;
}

TEST(RngNormal, MillionDrawStreamThroughBothSlowPathsIsFixed) {
  // Pins a stream long enough that the rare wedge and tail branches run
  // many times, so moving any branch of normal() cannot change a bit
  // unnoticed. A draw that consumed more than one raw word left the fast
  // path: beyond R it came from the tail, inside R from the wedge.
  constexpr int kDraws = 1'000'000;
  Rng rng(20240611);
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a over the bits
  int wedge = 0;
  int tail = 0;
  for (int i = 0; i < kDraws; ++i) {
    Rng shadow = rng;
    const double x = rng.normal();
    int words = 0;
    while (shadow.state() != rng.state()) {
      shadow.next_u64();
      ASSERT_LT(++words, 64) << "draw " << i;
    }
    if (words > 1) ++(std::abs(x) >= ziggurat::kTailStart ? tail : wedge);
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (bits >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
  EXPECT_GT(wedge, 1000);
  EXPECT_GT(tail, 100);
  EXPECT_EQ(digest, 0x7f986f42280b136aULL);
  const RngState golden{{0x88975e56e43b433aULL, 0xa05885f644f35702ULL,
                        0x6c90395408c86e79ULL, 0xb3c9663258cb3916ULL}};
  EXPECT_EQ(rng.state(), golden);
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
