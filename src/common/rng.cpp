#include "common/rng.h"

#include <cmath>
#include <numbers>

#include "common/contracts.h"

namespace miras {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t shard_seed(std::uint64_t root_seed, std::uint64_t shard_index) {
  // Mix the root into the index twice; a single round leaves visible
  // correlations between (root, i) and (root + 1, i + k) pairs because
  // splitmix64 advances its state by a fixed odd constant.
  std::uint64_t state = root_seed ^ (0x9e3779b97f4a7c15ULL * (shard_index + 1));
  std::uint64_t mixed = splitmix64(state);
  state ^= mixed;
  return splitmix64(state);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

RngState Rng::state() const {
  return RngState{state_, has_cached_normal_, cached_normal_};
}

void Rng::set_state(const RngState& state) {
  state_ = state.words;
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MIRAS_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MIRAS_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = range * (UINT64_MAX / range);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return lo + static_cast<std::int64_t>(x % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; avoid u1 == 0.
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  MIRAS_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  MIRAS_EXPECTS(rate > 0.0);
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  MIRAS_EXPECTS(sigma >= 0.0);
  return std::exp(normal(mu, sigma));
}

Rng Rng::split() {
  // Derive a new seed from two outputs so child streams are decorrelated.
  std::uint64_t s = next_u64() ^ rotl(next_u64(), 32);
  return Rng(splitmix64(s));
}

}  // namespace miras
