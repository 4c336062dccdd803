// Conversions between the actor's continuous simplex output and integer
// consumer allocations.
//
// The actor emits a categorical distribution a over J microservices
// (softmax output). The paper maps it to consumer counts with
// m_j = floor(C * a_j) (§IV-D), which guarantees sum(m) <= C but can strand
// up to J-1 consumers; the largest-remainder mode distributes the stranded
// consumers by fractional part and uses the budget exactly. Both are
// provided; experiments use the paper-faithful floor by default.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace miras::rl {

enum class RoundingMode { kFloor, kLargestRemainder };

/// Maps simplex weights to an integer allocation under budget C.
/// `weights` must be non-negative; they are normalised internally if their
/// sum differs from 1 (a zero-sum vector maps to the uniform allocation).
/// Postcondition: all entries >= 0 and sum <= budget (== budget for
/// kLargestRemainder).
std::vector<int> allocation_from_weights(const std::vector<double>& weights,
                                         int budget, RoundingMode mode);

/// True iff the allocation satisfies the resource constraint.
bool satisfies_budget(const std::vector<int>& allocation, int budget);

/// Deployment guardrail (Kubernetes minReplicas analogue): raises every
/// entry to at least `min_per_type`, funded first from unused budget and
/// then from the largest allocations. Requires budget >= min_per_type *
/// allocation.size(); the result still satisfies the budget.
void enforce_minimum_allocation(std::vector<int>& allocation,
                                int min_per_type, int budget);

/// The allocator's last step: allocation_from_weights(), then the
/// enforce_minimum_allocation guardrail with `min_per_type` whenever that
/// is positive and the budget can fund it for every type. The agent, seed-
/// sharded collection, synthetic rollouts and the serving snapshot all map
/// weights to allocations through this one function.
std::vector<int> guarded_allocation(const std::vector<double>& weights,
                                    int budget, RoundingMode rounding,
                                    int min_per_type);

/// Exponential spacings: a uniform draw from the probability simplex
/// (`dim` exponential(1) draws from `rng`).
std::vector<double> uniform_simplex_weights(std::size_t dim, Rng& rng);

/// WIP-proportional demonstration weights over the first `dim` entries of
/// `state`: (max(w_j, 0) + 1) * U(0.75, 1.25), normalised. The +1 keeps idle
/// queues warm; the mild noise varies the demonstrations.
std::vector<double> wip_proportional_weights(const std::vector<double>& state,
                                             std::size_t dim, Rng& rng);

}  // namespace miras::rl
