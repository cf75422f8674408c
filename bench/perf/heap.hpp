// Heap counter: replaces the global operator new/delete of the program that
// includes it, counting allocations and requested bytes while counting is
// switched on. Off (the default) it costs one relaxed load per allocation,
// so untraced runs measure the simulator, not the counter.
//
// The replacement functions are ordinary (non-inline) definitions: include
// this header from exactly one translation unit of a program.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perf::heap {

inline std::atomic<bool> counting{false};
inline std::atomic<std::uint64_t> allocations{0};
inline std::atomic<std::uint64_t> bytes{0};

struct Snapshot {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

inline Snapshot snapshot() {
  return {allocations.load(std::memory_order_relaxed), bytes.load(std::memory_order_relaxed)};
}

inline void* allocate(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace perf::heap

void* operator new(std::size_t size) { return perf::heap::allocate(size); }
void* operator new[](std::size_t size) { return perf::heap::allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
