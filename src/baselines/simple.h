// Reference policies: uniform, WIP-proportional, random, and static. Used
// as sanity baselines in tests and examples (they are not in the paper's
// comparison but bound it from below).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "rl/policy.h"

namespace miras::baselines {

/// Splits the budget evenly; remainder round-robins from task type 0.
class UniformPolicy final : public rl::Policy {
 public:
  explicit UniformPolicy(std::size_t num_task_types);
  std::string name() const override { return "uniform"; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

 private:
  std::size_t num_task_types_;
};

/// Allocates proportionally to current WIP (uniform when the system idles).
class ProportionalPolicy final : public rl::Policy {
 public:
  explicit ProportionalPolicy(std::size_t num_task_types);
  std::string name() const override { return "proportional"; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

 private:
  std::size_t num_task_types_;
};

/// Samples a fresh random simplex point each window (exploration traffic
/// for dataset collection; also the weakest sensible baseline).
class RandomPolicy final : public rl::Policy {
 public:
  RandomPolicy(std::size_t num_task_types, std::uint64_t seed);
  std::string name() const override { return "random"; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

  /// Draws rl::uniform_simplex_weights from the policy's own stream.
  std::vector<double> random_weights();

 private:
  std::size_t num_task_types_;
  Rng rng_;
};

/// Always returns the same allocation.
class StaticPolicy final : public rl::Policy {
 public:
  explicit StaticPolicy(std::vector<int> allocation);
  std::string name() const override { return "static"; }
  std::vector<int> decide(const sim::WindowStats& last_window,
                          int budget) override;

 private:
  std::vector<int> allocation_;
};

}  // namespace miras::baselines
