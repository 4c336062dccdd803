#include "sim/system.h"

#include <numeric>

#include "common/contracts.h"

namespace miras::sim {

namespace {
std::vector<double> arrival_rates_of(const workflows::Ensemble& ensemble) {
  std::vector<double> rates;
  rates.reserve(ensemble.num_workflows());
  for (std::size_t w = 0; w < ensemble.num_workflows(); ++w)
    rates.push_back(ensemble.arrival_rate(w));
  return rates;
}

std::vector<workflows::ServiceTimeModel> service_times_of(
    const workflows::Ensemble& ensemble) {
  std::vector<workflows::ServiceTimeModel> models;
  models.reserve(ensemble.num_task_types());
  for (std::size_t j = 0; j < ensemble.num_task_types(); ++j)
    models.push_back(ensemble.task_type(j).service_time);
  return models;
}

Event make_event(EventType type, std::uint32_t target,
                 std::uint64_t instance = 0, std::uint32_t node = 0) {
  Event event;
  event.type = type;
  event.target = target;
  event.instance = instance;
  event.node = node;
  return event;
}
}  // namespace

MicroserviceSystem::MicroserviceSystem(workflows::Ensemble ensemble,
                                       SystemConfig config)
    : ensemble_(std::move(ensemble)),
      service_times_(service_times_of(ensemble_)),
      config_(config),
      rng_(config.seed),
      dependency_service_(&ensemble_),
      workload_(arrival_rates_of(ensemble_), rng_.split()),
      queues_(ensemble_.num_task_types()),
      pools_(ensemble_.num_task_types()),
      window_arrivals_(ensemble_.num_workflows()),
      window_completed_(ensemble_.num_workflows()),
      window_response_sum_(ensemble_.num_workflows()),
      window_task_arrivals_(ensemble_.num_task_types()),
      window_task_completions_(ensemble_.num_task_types()) {
  MIRAS_EXPECTS(config_.window_length > 0.0);
  MIRAS_EXPECTS(config_.consumer_budget > 0);
  MIRAS_EXPECTS(config_.startup_delay_min >= 0.0);
  MIRAS_EXPECTS(config_.startup_delay_max >= config_.startup_delay_min);
  ensemble_.validate();
  reset();
}

std::size_t MicroserviceSystem::state_dim() const {
  return ensemble_.num_task_types();
}

std::size_t MicroserviceSystem::action_dim() const {
  return ensemble_.num_task_types();
}

std::vector<double> MicroserviceSystem::reset() {
  events_.reset();
  dependency_service_.clear();
  for (auto& queue : queues_) queue.clear();
  for (auto& pool : pools_) pool.clear();
  counters_ = SystemCounters{};
  std::fill(window_arrivals_.begin(), window_arrivals_.end(), 0);
  std::fill(window_completed_.begin(), window_completed_.end(), 0);
  std::fill(window_response_sum_.begin(), window_response_sum_.end(), 0.0);
  std::fill(window_task_arrivals_.begin(), window_task_arrivals_.end(), 0);
  std::fill(window_task_completions_.begin(), window_task_completions_.end(),
            0);
  for (std::size_t w = 0; w < ensemble_.num_workflows(); ++w)
    if (workload_.has_stream(w)) schedule_next_arrival(w);
  return observe_wip();
}

void MicroserviceSystem::reseed(std::uint64_t seed) {
  // Replay the constructor's seeding exactly: seed the system rng, hand the
  // workload the first split — the same draw the member initialiser made —
  // then reset. A reseeded system and a freshly constructed one are
  // bit-identical from here on (pinned by ReseedMatchesFreshConstruction).
  config_.seed = seed;
  rng_ = Rng(seed);
  workload_.reseed(rng_.split());
  reset();
}

void MicroserviceSystem::dispatch(const Event& event) {
  switch (event.type) {
    case EventType::kWorkflowArrival:
      handle_arrival(event.target, /*from_steady_stream=*/true);
      break;
    case EventType::kTaskComplete:
      handle_task_complete(event.target, event.instance, event.node);
      break;
    case EventType::kConsumerReady:
      handle_consumer_ready(event.target);
      break;
    case EventType::kWindowBoundary:
      break;  // pure clock marker; run_until stops at its timestamp
  }
}

void MicroserviceSystem::schedule_next_arrival(std::size_t workflow_type) {
  const SimTime gap = workload_.next_gap(workflow_type);
  events_.schedule_in(gap, make_event(EventType::kWorkflowArrival,
                                      static_cast<std::uint32_t>(workflow_type)));
}

void MicroserviceSystem::handle_arrival(std::size_t workflow_type,
                                        bool from_steady_stream) {
  ++counters_.workflows_arrived;
  ++window_arrivals_[workflow_type];
  const auto instance =
      dependency_service_.create_instance(workflow_type, events_.now());
  for (const std::size_t node : *instance.initial_nodes)
    enqueue_task(instance.id, workflow_type, node);
  if (from_steady_stream) schedule_next_arrival(workflow_type);
}

void MicroserviceSystem::inject_burst(const BurstSpec& burst) {
  MIRAS_EXPECTS(burst.counts.size() == ensemble_.num_workflows());
  for (std::size_t w = 0; w < burst.counts.size(); ++w)
    for (std::size_t i = 0; i < burst.counts[w]; ++i)
      handle_arrival(w, /*from_steady_stream=*/false);
}

void MicroserviceSystem::enqueue_task(std::uint64_t instance,
                                      std::size_t workflow_type,
                                      std::size_t node) {
  const std::size_t task_type =
      dependency_service_.task_type_of(workflow_type, node);
  ++counters_.tasks_enqueued;
  ++window_task_arrivals_[task_type];
  queues_[task_type].push(TaskRequest{instance, node, events_.now()});
  try_dispatch(task_type);
}

void MicroserviceSystem::try_dispatch(std::size_t task_type) {
  auto& queue = queues_[task_type];
  auto& pool = pools_[task_type];
  while (pool.idle() > 0 && !queue.empty()) {
    const TaskRequest request = queue.pop();
    pool.on_dispatch();
    const double service_time = service_times_[task_type].sample(rng_);
    events_.schedule_in(
        service_time,
        make_event(EventType::kTaskComplete,
                   static_cast<std::uint32_t>(task_type),
                   request.workflow_instance,
                   static_cast<std::uint32_t>(request.node)));
  }
}

void MicroserviceSystem::handle_task_complete(std::size_t task_type,
                                              std::uint64_t instance,
                                              std::size_t node) {
  ++counters_.tasks_completed;
  ++window_task_completions_[task_type];
  pools_[task_type].on_task_complete();

  // The completion result is reused storage owned by the dependency
  // service; it stays valid until the next on_task_complete call, and
  // enqueue_task below never completes a task (completions go through the
  // event queue), so iterating ready_nodes while enqueuing is safe.
  const auto& completion =
      dependency_service_.on_task_complete(instance, node);
  for (const std::size_t ready : completion.ready_nodes)
    enqueue_task(instance, completion.workflow_type, ready);
  if (completion.workflow_complete) {
    ++counters_.workflows_completed;
    ++window_completed_[completion.workflow_type];
    window_response_sum_[completion.workflow_type] +=
        events_.now() - completion.arrival_time;
  }
  // The finishing consumer may have stayed idle; give it the next request.
  try_dispatch(task_type);
}

void MicroserviceSystem::handle_consumer_ready(std::size_t task_type) {
  if (pools_[task_type].on_consumer_ready()) try_dispatch(task_type);
}

void MicroserviceSystem::apply_allocation(const std::vector<int>& allocation) {
  MIRAS_EXPECTS(allocation.size() == action_dim());
  int total = 0;
  for (const int count : allocation) {
    MIRAS_EXPECTS(count >= 0);
    total += count;
  }
  MIRAS_EXPECTS(total <= config_.consumer_budget);
  for (std::size_t j = 0; j < allocation.size(); ++j) {
    const int startups = pools_[j].set_target(allocation[j]);
    for (int i = 0; i < startups; ++i) {
      const double delay =
          rng_.uniform(config_.startup_delay_min, config_.startup_delay_max);
      events_.schedule_in(delay, make_event(EventType::kConsumerReady,
                                            static_cast<std::uint32_t>(j)));
    }
  }
}

void MicroserviceSystem::run_for(double seconds) {
  MIRAS_EXPECTS(seconds >= 0.0);
  events_.run_until(events_.now() + seconds,
                    [this](Event&& event) { dispatch(event); });
}

void MicroserviceSystem::step(const std::vector<int>& allocation,
                              WindowStats& out) {
  std::fill(window_arrivals_.begin(), window_arrivals_.end(), 0);
  std::fill(window_completed_.begin(), window_completed_.end(), 0);
  std::fill(window_response_sum_.begin(), window_response_sum_.end(), 0.0);
  std::fill(window_task_arrivals_.begin(), window_task_arrivals_.end(), 0);
  std::fill(window_task_completions_.begin(), window_task_completions_.end(),
            0);

  apply_allocation(allocation);
  const SimTime window_end = events_.now() + config_.window_length;
  // The boundary marker is a no-op dispatched last among the window's
  // events; real events keep their relative (time, seq) order around it.
  events_.schedule(window_end, make_event(EventType::kWindowBoundary, 0));
  events_.run_until(window_end, [this](Event&& event) { dispatch(event); });

  // Every field is assigned, none accumulated: `out` may hold the previous
  // window, and copy-assignment keeps its vectors' capacity.
  write_wip(out.wip);
  out.reward = reward_from_wip(out.wip);
  out.allocation = allocation;
  out.arrivals = window_arrivals_;
  out.completed = window_completed_;
  out.task_arrivals = window_task_arrivals_;
  out.task_completions = window_task_completions_;
  out.mean_response_time.resize(ensemble_.num_workflows());
  double response_sum = 0.0;
  std::size_t completed_total = 0;
  for (std::size_t w = 0; w < ensemble_.num_workflows(); ++w) {
    out.mean_response_time[w] =
        window_completed_[w] > 0
            ? window_response_sum_[w] /
                  static_cast<double>(window_completed_[w])
            : 0.0;
    response_sum += window_response_sum_[w];
    completed_total += window_completed_[w];
  }
  out.overall_mean_response_time =
      completed_total > 0 ? response_sum / static_cast<double>(completed_total)
                          : 0.0;
}

void MicroserviceSystem::write_wip(std::vector<double>& wip) const {
  wip.resize(ensemble_.num_task_types());
  for (std::size_t j = 0; j < wip.size(); ++j)
    wip[j] = static_cast<double>(queues_[j].size() + pools_[j].busy());
}

std::vector<double> MicroserviceSystem::observe_wip() const {
  std::vector<double> wip;
  write_wip(wip);
  return wip;
}

std::uint64_t MicroserviceSystem::live_tasks() const {
  std::uint64_t live = 0;
  for (std::size_t j = 0; j < queues_.size(); ++j)
    live += queues_[j].size() + static_cast<std::uint64_t>(pools_[j].busy());
  return live;
}

}  // namespace miras::sim
