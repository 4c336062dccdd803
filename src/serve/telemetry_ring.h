// Fixed-capacity structured binary telemetry ring for the serving path.
//
// One POD record per admission pass: completion timestamp, decision
// latency of the oldest request in the pass, snapshot version, queue depth
// at admission, batch size. The ring is single-writer (one BatchServer
// lane's worker — each lane owns its own ring; snapshot_append() plus
// sort_merged_telemetry() below interleave several rings by timestamp into
// one timeline) and wait-free on the write side:
// record() touches a fixed slot array and allocates nothing, so telemetry
// can stay on in production serving without perturbing latency. Readers
// drain by snapshot() from any thread, concurrently with the writer.
//
// Concurrency protocol: per-slot seqlock. The writer bumps the slot's
// sequence to odd, publishes the record word by word through relaxed
// std::atomic_ref stores, then bumps the sequence to even with release
// order. A reader takes the sequence (acquire), copies the words, fences,
// and re-checks the sequence — an odd or changed sequence means the writer
// was mid-overwrite and the copy is discarded. Word-wise atomic access
// keeps the race TSan-clean without making the record type non-POD.
//
// Overwrite semantics: the ring keeps the newest `capacity()` records;
// older ones are overwritten in place. snapshot() returns the surviving
// window oldest → newest. When the writer laps the reader mid-drain, a
// slot may already hold a record newer than its nominal index — every
// returned record is still internally consistent (the seqlock guarantees
// torn reads are discarded), but the drained window is then best-effort
// rather than gap-free; total_recorded() exposes the true count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/contracts.h"

namespace miras::serve {

/// One admission pass. All fields are plain integers so records can be
/// memcpy'd, logged raw, or diffed across runs.
struct TelemetryRecord {
  /// Pass completion time, steady-clock nanoseconds.
  std::uint64_t timestamp_ns = 0;
  /// Enqueue→completion latency of the oldest request in the pass (ns).
  std::uint64_t latency_ns = 0;
  /// ActorSnapshot::version the pass was served from.
  std::uint64_t snapshot_version = 0;
  /// Requests waiting when the pass was admitted (including this pass's).
  std::uint32_t queue_depth = 0;
  /// Rows in the pass (1 when a lone request was admitted).
  std::uint32_t batch_size = 0;
};

static_assert(std::is_trivially_copyable_v<TelemetryRecord> &&
                  sizeof(TelemetryRecord) % sizeof(std::uint64_t) == 0,
              "records travel through word-wise atomic copies");

class TelemetryRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TelemetryRing(std::size_t capacity) {
    MIRAS_EXPECTS(capacity >= 1);
    std::size_t rounded = 2;
    while (rounded < capacity) rounded *= 2;
    slots_ = std::vector<Slot>(rounded);
    mask_ = rounded - 1;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Total records ever written (monotonic; not clamped to capacity).
  std::uint64_t total_recorded() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Single-writer append; wait-free, zero allocation. Must not be called
  /// concurrently with itself.
  void record(const TelemetryRecord& rec) {
    const std::uint64_t c = count_.load(std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<std::size_t>(c) & mask_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: in progress
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t words[kWords];
    std::memcpy(words, &rec, sizeof(rec));
    for (std::size_t w = 0; w < kWords; ++w)
      std::atomic_ref<std::uint64_t>(slot.words[w])
          .store(words[w], std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);  // even: published
    count_.store(c + 1, std::memory_order_release);
  }

  /// Drains the surviving window (up to capacity() newest records), oldest
  /// first, into `out` (cleared; capacity reused across drains). Safe to
  /// call from any thread while the writer keeps recording; returns the
  /// number of records delivered.
  std::size_t snapshot(std::vector<TelemetryRecord>& out) const {
    out.clear();
    return snapshot_append(out);
  }

  /// snapshot() without the clear: appends this ring's surviving window
  /// (oldest first) after whatever `out` already holds. The building block
  /// for merged multi-ring drains; returns the records appended.
  std::size_t snapshot_append(std::vector<TelemetryRecord>& out) const {
    const std::size_t size_before = out.size();
    const std::uint64_t end = count_.load(std::memory_order_acquire);
    const std::uint64_t window = slots_.size();
    const std::uint64_t begin = end > window ? end - window : 0;
    TelemetryRecord rec;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (try_read(slots_[static_cast<std::size_t>(i) & mask_], rec))
        out.push_back(rec);
    }
    return out.size() - size_before;
  }

 private:
  static constexpr std::size_t kWords =
      sizeof(TelemetryRecord) / sizeof(std::uint64_t);

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    std::uint64_t words[kWords] = {};
  };

  bool try_read(const Slot& slot, TelemetryRecord& rec) const {
    // Bounded retries: only the slot currently under the writer's cursor
    // can stay torn, and only while a write is in flight.
    for (int attempt = 0; attempt < 16; ++attempt) {
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before & 1) continue;
      if (before == 0) return false;  // never written
      std::uint64_t words[kWords];
      for (std::size_t w = 0; w < kWords; ++w)
        words[w] = std::atomic_ref<const std::uint64_t>(slot.words[w])
                       .load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != before) continue;
      std::memcpy(&rec, words, sizeof(rec));
      return true;
    }
    return false;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> count_{0};
};

/// Orders records drained from several rings into one timeline. Stable
/// sort by completion timestamp: records appended ring by ring keep their
/// per-ring (write) order on timestamp ties, and within one ring
/// timestamps are nondecreasing (a single writer stamps them from a
/// steady clock), so each ring's stream survives the merge intact.
inline void sort_merged_telemetry(std::vector<TelemetryRecord>& records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const TelemetryRecord& a, const TelemetryRecord& b) {
                     return a.timestamp_ns < b.timestamp_ns;
                   });
}

}  // namespace miras::serve
