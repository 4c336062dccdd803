// Task Dependency Service (TDS, §II-A): tracks live workflow instances,
// answers "which tasks run first" on arrival, and "which tasks become ready"
// on each completion (fan-in join counting), and detects workflow
// completion. Plays the role of the paper's Zookeeper ensemble.
//
// Storage is a slab + free-list instead of a per-instance unordered_map:
// instance ids encode (generation << 32 | slot), so lookup is an index, a
// completed instance's slot is recycled without freeing its vectors, and a
// stale id can never alias the slot's next occupant (the generation is
// bumped on every reuse). At steady state the arrival/completion path does
// not touch the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.h"
#include "workflows/ensemble.h"

namespace miras::sim {

class DependencyService {
 public:
  explicit DependencyService(const workflows::Ensemble* ensemble);

  /// Starts tracking a new workflow request; returns its instance id and
  /// the DAG root nodes to publish immediately. `initial_nodes` points at
  /// the service's per-workflow cache and stays valid while the service
  /// lives.
  struct NewInstance {
    std::uint64_t id = 0;
    const std::vector<std::size_t>* initial_nodes = nullptr;
  };
  NewInstance create_instance(std::size_t workflow_type, SimTime arrival_time);

  /// Records completion of `node` in instance `id`; returns the successor
  /// nodes whose dependencies are now fully satisfied, and whether the
  /// whole workflow finished with this completion. The returned reference
  /// (including its ready_nodes storage) is reused by the next call.
  struct CompletionResult {
    std::vector<std::size_t> ready_nodes;
    bool workflow_complete = false;
    std::size_t workflow_type = 0;
    SimTime arrival_time = 0.0;
  };
  const CompletionResult& on_task_complete(std::uint64_t id, std::size_t node);

  std::size_t live_instances() const { return live_; }

  /// Forgets every live instance but keeps the slab storage. The id stream
  /// after clear() is identical to a freshly constructed service's: slot
  /// generations rewind to zero and the free list is rebuilt so slots are
  /// reused in ascending index order, exactly as they were first occupied.
  void clear();

 private:
  struct Slot {
    std::uint32_t generation = 0;  // bumped on every occupancy
    bool live = false;
    std::size_t workflow_type = 0;
    SimTime arrival_time = 0.0;
    std::vector<std::size_t> remaining_preds;  // per DAG node
    std::size_t remaining_nodes = 0;
  };

  Slot& lookup(std::uint64_t id);

  const workflows::Ensemble* ensemble_;
  // Largest workflow's node count: every new slot reserves this much
  // remaining_preds storage, so a slot recycled for a bigger workflow than
  // it held before still does not allocate.
  std::size_t max_nodes_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::size_t> free_;  // LIFO of vacant slot indices
  std::size_t live_ = 0;
  CompletionResult result_;  // reused across on_task_complete calls

  // Per-workflow immutables cached at construction (WorkflowGraph::roots()
  // allocates per call; in_degree() walks the adjacency lists).
  std::vector<std::vector<std::size_t>> roots_;
  std::vector<std::vector<std::size_t>> preds_template_;
};

}  // namespace miras::sim
