// Counts the heap allocations a test binary makes, so a test can assert by
// exact count that a warm datapath allocates nothing. Including this header
// replaces the global operator new and delete (plain, array, sized and
// aligned forms) for the whole binary: include it from exactly one source
// file, the suite's own. Counting only; memory comes from malloc and
// posix_memalign as before. The counters are relaxed atomics, so suites that
// start threads stay race-free under TSan.
#ifndef TESTS_ALLOC_COUNTER_H_
#define TESTS_ALLOC_COUNTER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace bundler {

inline std::atomic<uint64_t> g_heap_allocs{0};
inline std::atomic<uint64_t> g_heap_bytes{0};

// Allocations, and bytes requested, since the program started.
inline uint64_t HeapAllocs() { return g_heap_allocs.load(std::memory_order_relaxed); }
inline uint64_t HeapBytes() { return g_heap_bytes.load(std::memory_order_relaxed); }

inline void CountAllocation(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace bundler

// noinline: keeps GCC from pairing the inlined malloc with a visible free
// (spurious -Wmismatched-new-delete) and from eliding counted allocations.
__attribute__((noinline)) void* operator new(std::size_t size) {
  bundler::CountAllocation(size);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) { return operator new(size); }
__attribute__((noinline)) void* operator new(std::size_t size, std::align_val_t align) {
  bundler::CountAllocation(size);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(sizeof(void*), static_cast<std::size_t>(align)), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // TESTS_ALLOC_COUNTER_H_
