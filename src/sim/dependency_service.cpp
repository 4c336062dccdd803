#include "sim/dependency_service.h"

#include <algorithm>

#include "common/contracts.h"

namespace miras::sim {

namespace {
constexpr std::uint32_t slot_of(std::uint64_t id) {
  return static_cast<std::uint32_t>(id);
}
constexpr std::uint32_t generation_of(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32);
}
}  // namespace

DependencyService::DependencyService(const workflows::Ensemble* ensemble) {
  MIRAS_EXPECTS(ensemble != nullptr);
  tables_.resize(ensemble->num_workflows());
  for (std::size_t w = 0; w < tables_.size(); ++w) {
    const auto& graph = ensemble->workflow(w);
    WorkflowTable& table = tables_[w];
    table.roots = graph.roots();
    table.successor_begin.push_back(0);
    for (std::size_t n = 0; n < graph.num_nodes(); ++n) {
      table.preds.push_back(static_cast<std::uint32_t>(graph.in_degree(n)));
      table.task_type.push_back(graph.task_type_of(n));
      const auto& successors = graph.successors(n);
      table.successors.insert(table.successors.end(), successors.begin(),
                              successors.end());
      table.successor_begin.push_back(table.successors.size());
    }
    max_nodes_ = std::max(max_nodes_, graph.num_nodes());
  }
}

DependencyService::NewInstance DependencyService::create_instance(
    std::size_t workflow_type, SimTime arrival_time) {
  MIRAS_EXPECTS(workflow_type < tables_.size());

  std::size_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = slots_.size();
    slots_.emplace_back();
    remaining_preds_.resize(slots_.size() * max_nodes_);
  }
  Slot& slot = slots_[index];
  ++slot.generation;  // a recycled slot's new id never matches the old one
  slot.live = true;
  slot.workflow_type = workflow_type;
  slot.arrival_time = arrival_time;
  const WorkflowTable& table = tables_[workflow_type];
  const auto& preds = table.preds;
  std::copy(preds.begin(), preds.end(),
            remaining_preds_.begin() + index * max_nodes_);
  slot.remaining_nodes = preds.size();
  ++live_;

  NewInstance result;
  result.id = (static_cast<std::uint64_t>(slot.generation) << 32) | index;
  result.initial_nodes = &table.roots;
  return result;
}

DependencyService::Slot& DependencyService::lookup(std::uint64_t id) {
  const std::uint32_t index = slot_of(id);
  MIRAS_EXPECTS(index < slots_.size());
  Slot& slot = slots_[index];
  MIRAS_EXPECTS(slot.live && slot.generation == generation_of(id));
  return slot;
}

const DependencyService::CompletionResult& DependencyService::on_task_complete(
    std::uint64_t id, std::size_t node) {
  Slot& slot = lookup(id);
  std::uint32_t* const remaining_preds =
      remaining_preds_.data() + slot_of(id) * max_nodes_;
  const WorkflowTable& table = tables_[slot.workflow_type];
  MIRAS_EXPECTS(node < table.task_type.size());
  MIRAS_EXPECTS(slot.remaining_nodes > 0);

  result_.ready_nodes.clear();
  result_.workflow_complete = false;
  result_.workflow_type = slot.workflow_type;
  result_.arrival_time = slot.arrival_time;

  for (std::size_t e = table.successor_begin[node];
       e < table.successor_begin[node + 1]; ++e) {
    const std::size_t succ = table.successors[e];
    MIRAS_ASSERT(remaining_preds[succ] > 0);
    if (--remaining_preds[succ] == 0)
      result_.ready_nodes.push_back(succ);
  }

  if (--slot.remaining_nodes == 0) {
    result_.workflow_complete = true;
    slot.live = false;
    free_.push_back(slot_of(id));
    --live_;
  }
  return result_;
}

void DependencyService::clear() {
  for (Slot& slot : slots_) {
    slot.live = false;
    slot.generation = 0;
  }
  // Descending free list: pop_back hands out 0, 1, 2, ... — the same slot
  // (and therefore id) sequence as a freshly constructed service.
  free_.resize(slots_.size());
  for (std::size_t i = 0; i < free_.size(); ++i)
    free_[i] = free_.size() - 1 - i;
  live_ = 0;
}

}  // namespace miras::sim
