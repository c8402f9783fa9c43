// Replaces the global allocation functions of the benchmark binary so the
// traced run can count heap allocations per query exactly
// (serve.allocs_per_query, engine.allocs_per_query). Counting is off by
// default: the only cost then is one relaxed load per allocation.

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_count{0};

inline void Note() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Note();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Note();
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void AllocCounter::Enable(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCounter::Count() {
  return g_count.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return AllocateAligned(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
