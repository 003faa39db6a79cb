// Global allocation functions for the net test binary: they only count
// live bytes (malloc_usable_size of each block) and otherwise behave as
// the defaults. new[]/delete[] funnel through these; the nothrow pair is
// replaced too, so no sanitizer-runtime allocation is ever released by
// the free() below.
#include <malloc.h>

#include <cstdlib>
#include <new>

#include "test_heap_bytes.hpp"

// GCC pairs the malloc-backed replacement operator new below with the
// inlined operator delete and misreports a mismatch; both halves are ours
// and consistently use malloc/free.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

std::atomic<std::int64_t> g_xsp_test_live_heap_bytes{0};

namespace {

void* counted_malloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    g_xsp_test_live_heap_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                                         std::memory_order_relaxed);
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_xsp_test_live_heap_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                                       std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
