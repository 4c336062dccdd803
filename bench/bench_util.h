// Shared helpers for the figure-regeneration harnesses: flag parsing and
// policy-vs-scenario sweep running. Each bench binary prints the series the
// corresponding paper figure plots, as aligned tables (and CSV on request).
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/thread_pool.h"
#include "core/evaluation.h"
#include "core/miras_agent.h"
#include "rl/policy.h"
#include "sim/system.h"

namespace miras::bench {

/// Common command-line options for the figure benches.
struct BenchOptions {
  /// Paper-scale runs (11 outer iterations, full sample counts, the paper's
  /// 3x256 / 3x512 networks) instead of the reduced default scale.
  bool full = false;
  /// Emit CSV instead of aligned tables.
  bool csv = false;
  std::uint64_t seed = 1;
  /// Optional dataset filter for benches covering both ensembles:
  /// "msd", "ligo", or "" (both).
  std::string dataset;
  /// Worker threads (--threads N; --threads 0 means all hardware threads).
  /// Result tables are byte-identical for every value — only wall time
  /// changes. Timing goes to stderr so stdout stays comparable.
  std::size_t threads = 1;
  /// Save a training checkpoint after every N outer iterations (0 = off).
  std::size_t checkpoint_every = 0;
  /// Where checkpoints land; empty means a per-section default path.
  std::string checkpoint_path;
  /// Resume training from this checkpoint before running any iterations.
  /// The resumed run continues bit-identically to one that never stopped.
  std::string resume;
  /// Collector processes for distributed data collection (--collectors N).
  /// 0 = the in-process engine. N >= 1 forks N collectors that execute the
  /// same fixed seed-sharded collection schedule; results are bit-identical
  /// to the in-process engine for any N and across repeated runs
  /// (dist/learner.h).
  std::size_t collectors = 0;
  /// Chaos knob (--dist-kill-after N): SIGKILL collector 0 once N batches
  /// have been folded, exercising the respawn path mid-run. The trace must
  /// come out identical anyway. 0 = off.
  std::size_t dist_kill_after = 0;
};

/// Parses the flags above. `--help` prints the usage line and exits 0; an
/// unknown argument, a flag missing its value, a numeric flag whose value
/// is not a plain non-negative integer, or a --dataset other than msd|ligo
/// prints it to stderr and exits 2, so a mistyped or retired flag never
/// silently runs the default.
inline BenchOptions parse_options(int argc, char** argv) {
  const auto usage = [argv](std::ostream& out) {
    out << "usage: " << argv[0]
        << " [--full] [--csv] [--seed N] [--dataset msd|ligo]"
           " [--threads N] [--checkpoint-every N]"
           " [--checkpoint-path FILE] [--resume FILE]"
           " [--collectors N] [--dist-kill-after N]\n";
  };
  const auto reject = [&](const std::string& message) {
    std::cerr << argv[0] << ": " << message << "\n";
    usage(std::cerr);
    std::exit(2);
  };
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) reject(arg + " needs a value");
      return argv[++i];
    };
    // Digits only: no sign, blank, trailing junk or overflow.
    const auto number = [&]() -> std::uint64_t {
      const std::string text = value();
      const bool digits =
          !text.empty() &&
          text.find_first_not_of("0123456789") == std::string::npos;
      errno = 0;
      const std::uint64_t parsed =
          digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
      if (!digits || errno == ERANGE)
        reject(arg + " needs a non-negative integer, got '" + text + "'");
      return parsed;
    };
    if (arg == "--full") {
      options.full = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--seed") {
      options.seed = number();
    } else if (arg == "--dataset") {
      options.dataset = value();
      if (options.dataset != "msd" && options.dataset != "ligo")
        reject("--dataset must be msd or ligo, got '" + options.dataset +
               "'");
    } else if (arg == "--threads") {
      options.threads = number();
      if (options.threads == 0)
        options.threads = common::ThreadPool::hardware_threads();
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every = number();
    } else if (arg == "--checkpoint-path") {
      options.checkpoint_path = value();
    } else if (arg == "--resume") {
      options.resume = value();
    } else if (arg == "--collectors") {
      options.collectors = number();
    } else if (arg == "--dist-kill-after") {
      options.dist_kill_after = number();
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      reject("unknown argument '" + arg + "'");
    }
  }
  return options;
}

inline std::string to_lower(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Drives a MIRAS training run under the checkpoint flags: restores from
/// --resume first (if given), then runs outer iterations until the config's
/// total, saving to the checkpoint path after every --checkpoint-every
/// iterations. `on_trace` sees only the iterations executed in THIS process
/// — a resumed run re-prints nothing, so concatenating the pre-kill and
/// post-resume outputs reproduces the uninterrupted run's rows.
inline void train_with_checkpoints(
    core::MirasAgent& agent, const BenchOptions& options,
    const std::string& default_checkpoint_path,
    const std::function<void(const core::IterationTrace&)>& on_trace) {
  const std::string path = options.checkpoint_path.empty()
                               ? default_checkpoint_path
                               : options.checkpoint_path;
  if (!options.resume.empty()) agent.restore_checkpoint(options.resume);
  const std::size_t total = agent.config().outer_iterations;
  while (agent.iterations_run() < total) {
    on_trace(agent.run_iteration());
    if (options.checkpoint_every > 0 &&
        agent.iterations_run() % options.checkpoint_every == 0)
      agent.save_checkpoint(path);
  }
}

/// Pool for the requested worker count, or null for the single-threaded
/// path. Both paths produce identical results by construction; the null
/// pool just skips the dispatch overhead.
inline std::unique_ptr<common::ThreadPool> make_pool(
    const BenchOptions& options) {
  if (options.threads <= 1) return nullptr;
  return std::make_unique<common::ThreadPool>(options.threads);
}

/// Prints "[timing] <label>: <seconds>s (threads=N)" to stderr on
/// destruction. stderr, so `--threads 1` and `--threads N` stdout stay
/// byte-comparable; diff the tables, compare the timings.
class ScopedTimer {
 public:
  ScopedTimer(std::string label, std::size_t threads)
      : label_(std::move(label)),
        threads_(threads),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    std::cerr << "[timing] " << label_ << ": " << elapsed.count()
              << "s (threads=" << threads_ << ")\n";
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string label_;
  std::size_t threads_;
  std::chrono::steady_clock::time_point start_;
};

inline void emit(const Table& table, const BenchOptions& options,
                 const std::string& title, std::ostream& out = std::cout) {
  out << "\n## " << title << "\n";
  if (options.csv) {
    table.write_csv(out);
  } else {
    table.write_aligned(out);
  }
}

/// One comparison entry: a named policy evaluated on a fresh system.
struct PolicyEntry {
  std::string label;
  rl::Policy* policy;
};

/// Runs every policy through the scenario on identically-seeded fresh
/// systems (same arrival trace), returning one trace per policy.
template <typename MakeSystem>
std::vector<core::EvaluationTrace> run_policies(
    MakeSystem&& make_system, const std::vector<PolicyEntry>& policies,
    const core::ScenarioConfig& scenario) {
  std::vector<core::EvaluationTrace> traces;
  for (const PolicyEntry& entry : policies) {
    sim::MicroserviceSystem system = make_system();
    traces.push_back(core::run_scenario(system, *entry.policy, scenario));
    traces.back().policy_name = entry.label;
  }
  return traces;
}

/// Prints the per-step response-time series of several traces side by side
/// (the layout of Figures 7 and 8).
inline Table response_time_table(
    const std::vector<core::EvaluationTrace>& traces) {
  std::vector<std::string> header{"step"};
  for (const auto& trace : traces) header.push_back(trace.policy_name);
  Table table(header);
  if (traces.empty()) return table;
  const std::size_t steps = traces.front().windows.size();
  std::vector<std::vector<double>> series;
  series.reserve(traces.size());
  for (const auto& trace : traces) series.push_back(trace.response_time_series());
  for (std::size_t k = 0; k < steps; ++k) {
    std::vector<double> row{static_cast<double>(k)};
    for (const auto& s : series) row.push_back(s[k]);
    table.add_numeric_row(row, 1);
  }
  return table;
}

/// Scalar summary per policy: aggregate reward, mean/tail response time,
/// final WIP.
inline Table summary_table(const std::vector<core::EvaluationTrace>& traces,
                           std::size_t tail_windows) {
  Table table({"policy", "aggregate_reward", "mean_rt_s", "tail_rt_s",
               "final_total_wip"});
  for (const auto& trace : traces) {
    table.add_row({trace.policy_name,
                   format_double(trace.aggregate_reward(), 1),
                   format_double(trace.mean_response_time(), 1),
                   format_double(trace.tail_mean_response_time(tail_windows), 1),
                   format_double(trace.total_wip_series().back(), 1)});
  }
  return table;
}

}  // namespace miras::bench
