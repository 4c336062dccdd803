// Shared plumbing for the micro benches: heap-allocation accounting, a
// `--json <path>` flag, a reporter that captures every google-benchmark run
// as {op, ns_per_op, bytes_per_op, iterations} for machine consumption (the
// CI perf artifacts BENCH_nn.json / BENCH_parallel.json), and a checked-in
// reference loader (`--ref <path>`) that prints current-vs-reference
// comparisons — flagged `[1-cpu-reference]` when the reference was recorded
// on a 1-CPU container, where parallel speedups are physically impossible
// and the recorded ratios are NOT the binding evidence (see ROADMAP items
// 1/2/5; the CI floors measured on multi-core runners are).
//
// Include from exactly ONE translation unit per binary: this header defines
// the replaceable global operator new/delete so that allocation counts need
// no instrumentation in the measured code. Each micro bench is a single-file
// executable, which satisfies that by construction.
//
// A harness that owns its timing loop (micro_serve) defines
// MIRAS_BENCH_JSON_NO_GBENCH before including (it links no
// google-benchmark) and, when it installs its own counting allocator,
// MIRAS_BENCH_JSON_NO_ALLOC_HOOKS — it still gets the JSON writer and the
// reference-comparison helpers.
#pragma once

#ifndef MIRAS_BENCH_JSON_NO_GBENCH
#include <benchmark/benchmark.h>
#endif

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace miras::bench {

/// Total bytes ever requested through global operator new. Monotonic;
/// benchmarks record a delta around their timed loop and divide by the
/// iteration count. Relaxed atomics: the counter is read single-threadedly
/// between runs, never used for synchronisation.
inline std::atomic<std::uint64_t>& allocated_bytes() {
  static std::atomic<std::uint64_t> bytes{0};
  return bytes;
}

/// Attaches a "bytes_per_op" user counter covering the benchmark's timed
/// loop. Usage:
///   const std::uint64_t alloc0 = bench::allocation_mark();
///   for (auto _ : state) { ... }
///   bench::record_bytes_per_op(state, alloc0);
inline std::uint64_t allocation_mark() {
  return allocated_bytes().load(std::memory_order_relaxed);
}

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

// ---------------------------------------------------------------------------
// Checked-in reference comparison.
//
// Every BENCH_*.json at the repo root is a *recorded reference*, and several
// were recorded on a 1-CPU container (their `cpus` field says so) where any
// parallel speedup is physically impossible. Whenever a bench log compares
// the current run against such a reference, the comparison line carries a
// loud [1-cpu-reference] marker so the caveat travels with the numbers
// instead of living only in ROADMAP prose.

/// One reference run: numeric fields by name ("op" is the key, not a field;
/// true/false parse as 1/0, non-"op" strings are skipped).
using RefFields = std::map<std::string, double>;

struct RefBench {
  std::map<std::string, RefFields> ops;
  bool loaded = false;
};

/// Minimal parser for the flat record arrays the writers above (and the
/// harness-owned writer in micro_serve) emit: an array of
/// one-level objects with string/number/bool values. Tolerant of
/// whitespace; anything unparseable just ends the scan with what was read.
inline RefBench load_bench_reference(const std::string& path) {
  RefBench ref;
  std::ifstream in(path);
  if (!in) return ref;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  const auto parse_string = [&](std::string& out) {
    out.clear();
    if (i >= text.size() || text[i] != '"') return false;
    for (++i; i < text.size(); ++i) {
      if (text[i] == '\\' && i + 1 < text.size()) {
        out.push_back(text[++i]);
      } else if (text[i] == '"') {
        ++i;
        return true;
      } else {
        out.push_back(text[i]);
      }
    }
    return false;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '[') return ref;
  ++i;
  std::string key, str_value;
  while (true) {
    skip_ws();
    if (i >= text.size() || text[i] != '{') break;
    ++i;
    RefFields fields;
    std::string op;
    while (true) {
      skip_ws();
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      if (!parse_string(key)) return ref;
      skip_ws();
      if (i >= text.size() || text[i] != ':') return ref;
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        if (!parse_string(str_value)) return ref;
        if (key == "op") op = str_value;
      } else if (text.compare(i, 4, "true") == 0) {
        fields[key] = 1.0;
        i += 4;
      } else if (text.compare(i, 5, "false") == 0) {
        fields[key] = 0.0;
        i += 5;
      } else {
        char* end = nullptr;
        fields[key] = std::strtod(text.c_str() + i, &end);
        if (end == text.c_str() + i) return ref;
        i = static_cast<std::size_t>(end - text.c_str());
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') ++i;
    }
    if (!op.empty()) ref.ops.emplace(std::move(op), std::move(fields));
    ref.loaded = true;
    skip_ws();
    if (i < text.size() && text[i] == ',') ++i;
  }
  return ref;
}

/// The marker every reference comparison must carry when the reference was
/// recorded on a 1-CPU box: ratios against it are conservative/meaningless
/// for anything parallel, and CI's multi-core floors are the binding
/// evidence (ROADMAP items 1/2/5).
inline const char* one_cpu_marker(const RefFields& fields) {
  const auto it = fields.find("cpus");
  return it != fields.end() && it->second == 1.0 ? " [1-cpu-reference]" : "";
}

/// Prints current-vs-reference ns/op for every op present in both, each
/// line flagged with one_cpu_marker when it applies.
inline void print_reference_comparisons(
    const RefBench& ref, const std::vector<BenchRecord>& records) {
  if (!ref.loaded) return;
  std::printf("\nvs checked-in reference:\n");
  for (const BenchRecord& r : records) {
    const auto it = ref.ops.find(r.op);
    if (it == ref.ops.end()) continue;
    const auto ns = it->second.find("ns_per_op");
    if (ns == it->second.end() || ns->second <= 0.0 || r.ns_per_op <= 0.0)
      continue;
    std::printf("  %-52s %12.0f ns/op vs ref %12.0f ns/op (%.2fx)%s\n",
                r.op.c_str(), r.ns_per_op, ns->second,
                ns->second / r.ns_per_op, one_cpu_marker(it->second));
  }
}

#ifndef MIRAS_BENCH_JSON_NO_GBENCH

inline void record_bytes_per_op(benchmark::State& state, std::uint64_t mark) {
  const std::uint64_t delta =
      allocated_bytes().load(std::memory_order_relaxed) - mark;
  state.counters["bytes_per_op"] = benchmark::Counter(
      state.iterations() > 0
          ? static_cast<double>(delta) / static_cast<double>(state.iterations())
          : 0.0);
}

/// Console reporter that additionally captures per-iteration runs (skipping
/// aggregate rows) for the JSON dump.
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
      records_.push_back(std::move(record));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::vector<BenchRecord> records_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: strips `--json <path>`
/// and `--ref <path>` from argv (google-benchmark rejects unknown flags),
/// runs the registered benchmarks through the capturing reporter, dumps the
/// JSON if asked, and prints reference comparisons if a reference was
/// given. The reference is loaded BEFORE the run, so `--ref` may name the
/// same checked-in file a later `--json` overwrites.
inline int run_benchmarks(int argc, char** argv) {
  std::string json_path;
  RefBench reference;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ref") == 0 && i + 1 < argc) {
      reference = load_bench_reference(argv[++i]);
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  print_reference_comparisons(reference, reporter.records());
  if (!json_path.empty()) {
    // Stamp the machine width into every record so a future run comparing
    // against this artifact knows whether [1-cpu-reference] applies.
    std::vector<BenchRecord> records = reporter.records();
    const double cpus =
        static_cast<double>(std::thread::hardware_concurrency());
    for (BenchRecord& r : records) {
      bool has_cpus = false;
      for (const auto& [name, value] : r.extra) {
        if (name == "cpus") has_cpus = true;
        (void)value;
      }
      if (!has_cpus) r.extra.emplace_back("cpus", cpus);
    }
    if (!write_bench_json(json_path, records)) {
      std::fprintf(stderr, "failed to write bench json to %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}

#endif  // MIRAS_BENCH_JSON_NO_GBENCH

}  // namespace miras::bench

#ifndef MIRAS_BENCH_JSON_NO_ALLOC_HOOKS

// Replaceable global allocation functions feeding the byte counter. Sized
// and unsized deletes both forward to free; the count tracks requests, not
// live bytes, which is what a "did this path allocate at all" check needs.
// new/delete pair up malloc/free consistently here, so the compiler's
// mismatch heuristic (which only sees the free) is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  miras::bench::allocated_bytes().fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // MIRAS_BENCH_JSON_NO_ALLOC_HOOKS
