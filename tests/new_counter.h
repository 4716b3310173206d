// Replaces the global operator new and delete of a test binary and counts
// the operator new calls CountNews(fn) sees. Every replaceable non-aligned
// form allocates and frees through malloc/free, so sanitizer builds see
// matching pairs. The replacements are definitions, not declarations:
// include this header from exactly one source file of a binary (each test
// binary is one file).
#ifndef USTL_TESTS_NEW_COUNTER_H_
#define USTL_TESTS_NEW_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> g_count_news{false};
std::atomic<size_t> g_news{0};

void* CountedNew(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedNewNoThrow(std::size_t size) noexcept {
  try {
    return CountedNew(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

// The number of global operator new calls `fn` makes.
template <typename Fn>
size_t CountNews(const Fn& fn) {
  g_news.store(0);
  g_count_news.store(true);
  fn();
  g_count_news.store(false);
  return g_news.load();
}
}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedNewNoThrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // USTL_TESTS_NEW_COUNTER_H_
