// A heap byte counter for the benches' allocation gates: replaceable global
// operator new/delete, in every form the library can call, feeding one
// monotonic counter. Benchmarks record a delta around their measured loop.
//
// Every form matters: libstdc++ serves over-aligned types (alignas(64)
// slots and passes, say) through operator new(size_t, align_val_t), which
// never calls the unaligned form, so a counter that replaces only that one
// reads 0 for a std::vector of them. The array and nothrow forms are
// replaced too, so no count depends on how the library forwards them.
//
// Include from exactly ONE translation unit per binary: this header
// defines the replacement functions themselves, so that counting needs no
// instrumentation in the measured code. Each bench is a single-file
// executable, which satisfies that by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace miras::bench {

/// Total bytes ever requested through global operator new. Monotonic;
/// relaxed atomics: the counter is read between runs, never used for
/// synchronisation.
inline std::atomic<std::uint64_t>& allocated_bytes() {
  static std::atomic<std::uint64_t> bytes{0};
  return bytes;
}

/// The counter's current value, to subtract from a later one.
inline std::uint64_t allocation_mark() {
  return allocated_bytes().load(std::memory_order_relaxed);
}

}  // namespace miras::bench

// The count tracks requests, not live bytes, which is what a "did this path
// allocate at all" check needs. Every replaceable form is defined, nothrow
// ones included: under ASan a form left to the runtime would hand out
// memory that the free() below then reports as a new/free mismatch (as
// std::stable_sort's nothrow temporary buffer does). Every delete forwards
// to free, which both malloc and aligned_alloc pair with; the compiler's
// mismatch heuristic (which only sees the free) is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  miras::bench::allocated_bytes().fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  miras::bench::allocated_bytes().fetch_add(size, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a nonzero multiple of the alignment.
  return std::aligned_alloc(a, size ? (size + a - 1) & ~(a - 1) : a);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = ::operator new(size, align, std::nothrow)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ::operator new(size, align, std::nothrow);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
