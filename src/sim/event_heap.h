// Flat d-ary min-heap keyed on (time, seq), the storage behind the event
// queue. A 4-ary layout trades slightly more comparisons per level for half
// the tree depth and 4 children per cache line of entries, which wins for
// the small POD entries the simulator stores by value.
//
// The (time, seq) order is one unsigned 128-bit key: the IEEE-754 bit
// pattern of `time` in the high word, `seq` in the low word. For times that
// are +0.0, positive or +inf, the bit patterns order exactly like the
// values, so an integer compare is the (time, seq) compare, and picking the
// smallest child needs no data-dependent branch. The queue guarantees the
// domain (it rejects NaN and times before its clock, which never goes below
// zero); the one value it lets through that breaks the rule is -0.0, whose
// sign bit would sort it after every other time. push() therefore stores
// -0.0 as +0.0, which the (time, seq) order cannot tell apart.
//
// Heap shape cannot affect execution order: (time, seq) keys are unique
// (seq is a strictly increasing insertion counter), so the sequence of
// pop_min() calls is a pure function of the inserted set — any arity yields
// the same event order bit-for-bit. The tie-break property test in
// tests/test_engine.cpp pins this across arities 2, 3, 4, and 8.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace miras::sim {

/// Entry must expose a double `.time` and an unsigned 64-bit `.seq` and be
/// default-constructible and movable. Entries with equal time are ordered
/// by ascending seq. Times must be +-0.0, positive or +inf (never NaN).
template <typename Entry, std::size_t Arity = 4>
class EventHeap {
 public:
  static_assert(Arity >= 2, "a heap needs at least two children per node");

  bool empty() const { return slots_.empty(); }
  std::size_t size() const { return slots_.size(); }

  /// Smallest entry. Requires !empty().
  const Entry& min() const { return slots_.front(); }

  void push(Entry entry) {
    if (entry.time == 0.0) entry.time = 0.0;  // -0.0 keys as +0.0
    const Key key = key_of(entry);
    // Hole-based sift-up: bubble the insertion point down from the back,
    // moving parents into the hole, and write the entry once at the end.
    std::size_t hole = slots_.size();
    slots_.emplace_back();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / Arity;
      if (!(key < key_of(slots_[parent]))) break;
      slots_[hole] = std::move(slots_[parent]);
      hole = parent;
    }
    slots_[hole] = std::move(entry);
  }

  /// Removes and returns the smallest entry. Requires !empty().
  Entry pop_min() {
    Entry result = std::move(slots_.front());
    Entry last = std::move(slots_.back());
    slots_.pop_back();
    if (!slots_.empty()) {
      // Sift the hole down to a leaf-ward position for `last`.
      const Key last_key = key_of(last);
      std::size_t hole = 0;
      const std::size_t count = slots_.size();
      for (;;) {
        const std::size_t first_child = hole * Arity + 1;
        if (first_child >= count) break;
        const std::size_t end =
            first_child + Arity < count ? first_child + Arity : count;
        // Smallest child by selects, not branches: which child wins is
        // data-dependent and unpredictable.
        std::size_t best = first_child;
        Key best_key = key_of(slots_[first_child]);
        for (std::size_t c = first_child + 1; c < end; ++c) {
          const Key key = key_of(slots_[c]);
          const bool smaller = key < best_key;
          best = smaller ? c : best;
          best_key = smaller ? key : best_key;
        }
        if (!(best_key < last_key)) break;
        slots_[hole] = std::move(slots_[best]);
        hole = best;
      }
      slots_[hole] = std::move(last);
    }
    return result;
  }

  /// Drops all entries but keeps the backing capacity for reuse.
  void clear() { slots_.clear(); }

 private:
  __extension__ typedef unsigned __int128 Key;

  static Key key_of(const Entry& entry) {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(entry.time)) << 64) |
           entry.seq;
  }

  std::vector<Entry> slots_;
};

}  // namespace miras::sim
