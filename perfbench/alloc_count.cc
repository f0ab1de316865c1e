// Replaces the global operator new/delete of the benchmark binary to count
// heap allocations made by every thread (alloc.count_per_call and
// alloc.bytes_per_call). The counters are relaxed atomics: one uncontended
// increment per allocation, since the whole process shares one CPU.
#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace perfbench

namespace {

void count(std::size_t n) {
  perfbench::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  perfbench::g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
}

void* counted_malloc(std::size_t n) {
  count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
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
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
