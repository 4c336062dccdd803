// Deterministic random number generation for the whole stack.
//
// Every stochastic component (simulator, workload source, NN initialisation,
// exploration noise) draws from an explicitly passed Rng so that a single
// seed reproduces an entire experiment bit-for-bit. The generator is
// xoshiro256++ seeded through splitmix64, which is fast, has a 2^256-1
// period, and is identical across platforms (unlike std::mt19937's
// distribution implementations, which libstdc++/libc++ are free to vary).
//
// Which draws touch libm. next_u64, uniform, uniform_int, shuffle and split
// are integer arithmetic plus one exact int-to-double scaling: the same bits
// on every IEEE-754 platform. normal() and normal(mean, stddev) return from
// a table lookup and one multiply on ~98.5% of draws; the other ~1.5% (the
// ziggurat's wedge and tail rejections) call std::exp or std::log.
// lognormal() always calls std::exp, and exponential() always calls
// std::log. Those calls go through the C library's libm (on glibc x86-64 an
// ifunc-selected variant), so values drawn through them are reproducible
// only where libm rounds them the same way. The invariance suites compare
// runs on one machine; the value goldens assume such a libm.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.h"

namespace miras {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// Seed for parallel shard `shard_index` of a computation rooted at
/// `root_seed`. Two splitmix64 mixing rounds decorrelate neighbouring
/// shards and neighbouring roots. Every parallel unit seeds its own Rng
/// from this, so the *decomposition* of the work — never the worker count
/// or scheduling order — determines all random streams.
std::uint64_t shard_seed(std::uint64_t root_seed, std::uint64_t shard_index);

/// Complete serialisable state of an Rng: the four xoshiro256++ words. No
/// distribution keeps a cache between draws, so restoring the words replays
/// the exact draw sequence the captured generator would have produced,
/// which is what crash-resume bit-identity requires.
struct RngState {
  std::array<std::uint64_t, 4> words{};

  friend bool operator==(const RngState&, const RngState&) = default;
};

/// The 256-layer ziggurat behind Rng::normal() (Marsaglia & Tsang 2000).
/// Layer i is the rectangle [0, kX[i]) x [kF[i], kF[i + 1]] under the
/// unnormalised density f(x) = exp(-x^2 / 2), so kF[i] = f(kX[i]) for
/// i >= 1. Layer 0 is the base strip: kF[0] = 0, and its part beyond
/// kX[1] = R stands for the tail. Every layer has area V, and kX[256] = 0
/// closes the top layer at the peak. The tables are hexfloat literals in
/// rng.cpp; they are declared here so a test can recompute them.
namespace ziggurat {
inline constexpr std::size_t kLayers = 256;
/// R: where the tail begins (kX[1]).
inline constexpr double kTailStart = 0x1.d3bb48209ad33p+1;
/// V: the common area of every layer.
inline constexpr double kLayerArea = 0x1.43016a5a43732p-8;
extern const std::array<double, kLayers + 1> kX;
extern const std::array<double, kLayers + 1> kF;
}  // namespace ziggurat

/// Deterministic xoshiro256++ generator with portable distributions.
///
/// The hot draws (next_u64, uniform, the ziggurat's fast path, the scaled
/// normal and lognormal) are inline here, so a loop of draws, such as a
/// per-episode parameter perturbation or the simulator's service times,
/// makes no call per draw, and a loop on a local generator keeps the four
/// state words in registers. The ziggurat's rare wedge and tail rejections
/// stay out of line in rng.cpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Captures the full generator state (the stream position).
  RngState state() const;

  /// Restores a state captured by state(); the next draws reproduce the
  /// captured generator's continuation exactly.
  void set_state(const RngState& state);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    MIRAS_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal by the ziggurat above. One next_u64 feeds both the
  /// layer (bits 0-7) and the position within it (bits 11-62, sign bit 63),
  /// so the two are independent (Doornik 2005). Wedge and tail rejections
  /// draw further uniforms.
  double normal() {
    const std::uint64_t bits = next_u64();
    const double x = ziggurat_x(bits);
    // Left of kX[layer + 1] the point lies under the density for certain:
    // the ~98.5% path.
    if (x < ziggurat::kX[(bits & (ziggurat::kLayers - 1)) + 1]) [[likely]]
      return with_sign(x, bits);
    const SlowDraw slow = normal_slow(state_, bits, x);
    state_ = slow.state;
    return slow.value;
  }

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev) {
    MIRAS_EXPECTS(stddev >= 0.0);
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (rate > 0). Mean is 1/rate.
  double exponential(double rate);

  /// Lognormal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) {
    MIRAS_EXPECTS(sigma >= 0.0);
    return std::exp(normal(mu, sigma));
  }

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
  static_assert(ziggurat::kLayers == 256, "the layer takes bits 0-7");

  /// The point u * kX[layer] that draw `bits` names, u from bits 11-62.
  static double ziggurat_x(std::uint64_t bits) {
    const double u =
        static_cast<double>((bits >> 11) & ((std::uint64_t{1} << 52) - 1)) *
        0x1.0p-52;
    return u * ziggurat::kX[bits & (ziggurat::kLayers - 1)];
  }

  /// `x` with the sign of bit 63 of `bits`; or-ing it in keeps a branch off
  /// the sign.
  static double with_sign(double x, std::uint64_t bits) {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) |
                                 (bits & (std::uint64_t{1} << 63)));
  }

  /// A normal_slow result: the draw and the generator state after it.
  struct SlowDraw {
    double value;
    std::array<std::uint64_t, 4> state;
  };

  /// The rest of normal() once draw `bits` (point `x`) left the fast path:
  /// the tail or a wedge test, then fresh draws from `state` until one is
  /// accepted. The state goes in and out by value, so no generator's
  /// address leaves the hot path and a loop of draws on a local Rng keeps
  /// the four words in registers.
  [[gnu::cold]] static SlowDraw normal_slow(std::array<std::uint64_t, 4> state,
                                            std::uint64_t bits, double x);

  std::array<std::uint64_t, 4> state_;
};

}  // namespace miras
