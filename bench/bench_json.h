// Shared plumbing for the google-benchmark micro benches: the heap byte
// counter (alloc_counter.h) behind a bytes_per_op counter, the
// `--json <path>` writer, and `JsonCapturingReporter`, which captures every
// run for it. bench/check_gates.py reads the files and enforces the bounds.
//
// Include from exactly ONE translation unit per binary: through
// alloc_counter.h this header defines the replaceable global operator
// new/delete. Each micro bench is a single-file executable, which satisfies
// that by construction.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.h"

namespace miras::bench {

struct BenchRecord {
  std::string op;
  double ns_per_op = 0.0;
  double bytes_per_op = 0.0;
  std::int64_t iterations = 0;
  /// Every other user counter the benchmark attached (events_per_sec,
  /// cpus, speedup, ...), serialised as first-class JSON fields so
  /// CI floor checks can read them without parsing benchmark names.
  std::vector<std::pair<std::string, double>> extra;
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "  {\"op\": \"" << json_escape(r.op)
        << "\", \"ns_per_op\": " << r.ns_per_op
        << ", \"bytes_per_op\": " << r.bytes_per_op
        << ", \"iterations\": " << r.iterations;
    for (const auto& [name, value] : r.extra)
      out << ", \"" << json_escape(name) << "\": " << value;
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.good();
}

/// Attaches a "bytes_per_op" user counter covering the benchmark's timed
/// loop. Usage:
///   const std::uint64_t alloc0 = bench::allocation_mark();
///   for (auto _ : state) { ... }
///   bench::record_bytes_per_op(state, alloc0);
inline void record_bytes_per_op(benchmark::State& state, std::uint64_t mark) {
  const std::uint64_t delta = allocation_mark() - mark;
  state.counters["bytes_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(delta) / static_cast<double>(state.iterations())
          : 0.0);
}

/// Console reporter that additionally captures per-iteration runs (skipping
/// aggregate rows) for the JSON dump. The repetitions of one op
/// (--benchmark_repetitions) fold into one record: the median ns_per_op and
/// the median of every other counter, so a ratio gate reads medians, but
/// the largest bytes_per_op, so an allocation gate can only get stricter.
/// Its iterations are the repetitions' total. One repetition folds to
/// itself.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      BenchRecord record;
      record.op = run.benchmark_name();
      record.iterations = run.iterations;
      if (run.iterations > 0) {
        record.ns_per_op = run.real_accumulated_time /
                           static_cast<double>(run.iterations) * 1e9;
      }
      for (const auto& [name, counter] : run.counters) {
        if (name == "bytes_per_op") {
          record.bytes_per_op = static_cast<double>(counter);
        } else {
          // Rate counters report per-second values already resolved by the
          // benchmark library at this point.
          record.extra.emplace_back(name, static_cast<double>(counter));
        }
      }
      // The machine width: a speedup ratio means nothing without it.
      record.extra.emplace_back(
          "cpus", static_cast<double>(std::thread::hardware_concurrency()));
      repetitions_of(record.op).push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// One folded record per op, in the order the ops first ran.
  std::vector<BenchRecord> records() const {
    std::vector<BenchRecord> folded;
    folded.reserve(runs_.size());
    for (const std::vector<BenchRecord>& repetitions : runs_)
      folded.push_back(fold(repetitions));
    return folded;
  }

 private:
  static double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2.0;
  }

  static BenchRecord fold(const std::vector<BenchRecord>& repetitions) {
    BenchRecord out;
    out.op = repetitions.front().op;
    std::vector<double> ns;
    for (const BenchRecord& r : repetitions) {
      ns.push_back(r.ns_per_op);
      out.bytes_per_op = std::max(out.bytes_per_op, r.bytes_per_op);
      out.iterations += r.iterations;
    }
    out.ns_per_op = median(std::move(ns));
    for (const auto& [name, unused] : repetitions.front().extra) {
      std::vector<double> values;
      for (const BenchRecord& r : repetitions)
        for (const auto& [other, value] : r.extra)
          if (other == name) values.push_back(value);
      out.extra.emplace_back(name, median(std::move(values)));
    }
    return out;
  }

  std::vector<BenchRecord>& repetitions_of(const std::string& op) {
    for (std::vector<BenchRecord>& repetitions : runs_)
      if (repetitions.front().op == op) return repetitions;
    return runs_.emplace_back();
  }

  /// Every captured run, grouped by op.
  std::vector<std::vector<BenchRecord>> runs_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: strips `--json <path>`
/// from argv (google-benchmark rejects unknown flags), runs the registered
/// benchmarks through the capturing reporter and dumps the JSON if asked.
inline int run_benchmarks(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  // As BENCHMARK_MAIN does: an unknown flag is an error, never ignored.
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() && !write_bench_json(json_path, reporter.records())) {
    std::fprintf(stderr, "failed to write bench json to %s\n",
                 json_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace miras::bench
