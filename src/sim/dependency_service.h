// Task Dependency Service (TDS, §II-A): tracks live workflow instances,
// answers "which tasks run first" on arrival, and "which tasks become ready"
// on each completion (fan-in join counting), and detects workflow
// completion. Plays the role of the paper's Zookeeper ensemble.
//
// Storage is a slab + free-list instead of a per-instance unordered_map:
// instance ids encode (generation << 32 | slot), so lookup is an index, a
// completed instance's slot (and its stretch of the shared predecessor
// counts) is recycled without freeing anything, and a stale id can never
// alias the slot's next occupant (the generation is bumped on every reuse). At steady state the arrival/completion path does
// not touch the allocator.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "sim/engine.h"
#include "workflows/ensemble.h"

namespace miras::sim {

class DependencyService {
 public:
  /// Flattens what it needs from `ensemble`, which need not outlive the
  /// service.
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

  /// Task type of `node` in workflow `workflow_type`, from the flat table
  /// (the per-event path reads this instead of the WorkflowGraph).
  std::size_t task_type_of(std::size_t workflow_type, std::size_t node) const {
    MIRAS_EXPECTS(workflow_type < tables_.size());
    const WorkflowTable& table = tables_[workflow_type];
    MIRAS_EXPECTS(node < table.task_type.size());
    return table.task_type[node];
  }

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
    std::size_t remaining_nodes = 0;
  };

  Slot& lookup(std::uint64_t id);

  // Largest workflow's node count: every slot owns this many entries of
  // remaining_preds_, so a slot recycled for a bigger workflow than it held
  // before still does not allocate.
  std::size_t max_nodes_ = 0;
  std::vector<Slot> slots_;
  // Unsatisfied predecessors per DAG node, all slots in one array: slot i's
  // count for node n is at [i * max_nodes_ + n].
  std::vector<std::uint32_t> remaining_preds_;
  std::vector<std::size_t> free_;  // LIFO of vacant slot indices
  std::size_t live_ = 0;
  CompletionResult result_;  // reused across on_task_complete calls

  // Per-workflow immutables flattened at construction, so the per-event
  // path reads contiguous arrays and calls no Ensemble or WorkflowGraph
  // accessor (WorkflowGraph::roots() allocates per call; in_degree() walks
  // the adjacency lists). Successors are in CSR form: node n's are
  // successors[successor_begin[n] .. successor_begin[n + 1]).
  struct WorkflowTable {
    std::vector<std::size_t> roots;
    std::vector<std::uint32_t> preds;    // in-degree per node
    std::vector<std::size_t> task_type;  // per node
    std::vector<std::size_t> successor_begin;  // num_nodes + 1 offsets
    std::vector<std::size_t> successors;
  };
  std::vector<WorkflowTable> tables_;
};

}  // namespace miras::sim
