// Deterministic random number generation for the whole stack.
//
// Every stochastic component (simulator, workload source, NN initialisation,
// exploration noise) draws from an explicitly passed Rng so that a single
// seed reproduces an entire experiment bit-for-bit. The generator is
// xoshiro256++ seeded through splitmix64, which is fast, has a 2^256-1
// period, and is identical across platforms (unlike std::mt19937's
// distribution implementations, which libstdc++/libc++ are free to vary).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace miras {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// Seed for parallel shard `shard_index` of a computation rooted at
/// `root_seed`. Two splitmix64 mixing rounds decorrelate neighbouring
/// shards and neighbouring roots. Every parallel unit seeds its own Rng
/// from this, so the *decomposition* of the work — never the worker count
/// or scheduling order — determines all random streams.
std::uint64_t shard_seed(std::uint64_t root_seed, std::uint64_t shard_index);

/// Complete serialisable state of an Rng: the four xoshiro256++ words plus
/// the Box-Muller cache. Restoring it replays the exact draw sequence the
/// captured generator would have produced — including a pending cached
/// normal — which is what crash-resume bit-identity requires.
struct RngState {
  std::array<std::uint64_t, 4> words{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// Deterministic xoshiro256++ generator with portable distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Captures the full generator state (stream position + normal cache).
  RngState state() const;

  /// Restores a state captured by state(); the next draws reproduce the
  /// captured generator's continuation exactly.
  void set_state(const RngState& state);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (portable across platforms).
  double normal();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev);

  /// Exponential with the given rate (rate > 0). Mean is 1/rate.
  double exponential(double rate);

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for giving subsystems their own
  /// streams without coupling their consumption orders).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
  // Cached second output of Box-Muller.
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace miras
