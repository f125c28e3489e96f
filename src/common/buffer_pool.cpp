#include "common/buffer_pool.h"

#include <algorithm>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#include <unistd.h>
#define IMC_BUFFER_POOL_HAVE_MMAP 1
#else
#define IMC_BUFFER_POOL_HAVE_MMAP 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace imc::buffer_pool {
namespace {

std::size_t page_bytes() {
#if IMC_BUFFER_POOL_HAVE_MMAP
  static const std::size_t page = [] {
    const long p = sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<std::size_t>(p) : std::size_t{4096};
  }();
  return page;
#else
  return 4096;
#endif
}

// Length of the mapping that serves `bytes`: the free-list key.
std::size_t mapped_length(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

void* map_pages(std::size_t len) {
#if IMC_BUFFER_POOL_HAVE_MMAP
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return p == MAP_FAILED ? nullptr : p;
#else
  return ::operator new(len, std::nothrow);
#endif
}

void unmap_pages(void* p, std::size_t len) {
  // The shadow outlives the mapping: clear it, or a later mapping at the
  // same address would start out poisoned.
  ASAN_UNPOISON_MEMORY_REGION(p, len);
#if IMC_BUFFER_POOL_HAVE_MMAP
  munmap(p, len);
#else
  (void)len;
  ::operator delete(p);
#endif
}

thread_local Stats t_counts;

class Pool {
 public:
  void* allocate(std::size_t len) {
    std::vector<std::pair<void*, std::size_t>> victims;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& list = idle_[len];
      if (!list.empty()) {
        void* p = list.back();
        list.pop_back();
        totals_.idle_bytes -= len;
        totals_.live_bytes += len;
        ++totals_.hits;
        ++t_counts.hits;
        return p;
      }
      // Unmap idle buffers, largest first, until the new mapping fits
      // under the cap. This size's own list is empty, so it loses none.
      const std::size_t cap =
          std::max(totals_.high_water_bytes, totals_.live_bytes + len);
      for (auto it = idle_.rbegin();
           it != idle_.rend() &&
           totals_.live_bytes + totals_.idle_bytes + len > cap;) {
        if (it->second.empty()) {
          ++it;
          continue;
        }
        victims.emplace_back(it->second.back(), it->first);
        it->second.pop_back();
        totals_.idle_bytes -= it->first;
        ++totals_.evictions;
        ++t_counts.evictions;
      }
      totals_.live_bytes += len;
      totals_.high_water_bytes =
          std::max(totals_.high_water_bytes, totals_.live_bytes);
      ++totals_.misses;
      ++t_counts.misses;
    }
    for (const auto& [p, victim_len] : victims) unmap_pages(p, victim_len);
    void* p = map_pages(len);
    if (p == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      totals_.live_bytes -= len;
      throw std::bad_alloc();
    }
    return p;
  }

  void release(void* p, std::size_t len) noexcept {
    {
      std::lock_guard<std::mutex> lock(mu_);
      totals_.live_bytes -= len;
      try {
        idle_[len].push_back(p);
        totals_.idle_bytes += len;
        return;
      } catch (const std::bad_alloc&) {
        // No room to list it: give the buffer back to the kernel instead.
      }
    }
    unmap_pages(p, len);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

 private:
  mutable std::mutex mu_;
  // Mapped length -> idle buffers of exactly that length.
  std::map<std::size_t, std::vector<void*>> idle_;
  Stats totals_;
};

// Never destroyed: slabs held by static objects release into it during
// static destruction.
Pool& pool() {
  static Pool* const instance = new Pool();
  return *instance;
}

}  // namespace

void* allocate(std::size_t bytes) {
  if (bytes < kMinPooledBytes) return ::operator new(bytes);
  // No mapping can be this large, and rounding it up would wrap.
  if (bytes > std::numeric_limits<std::size_t>::max() / 2) {
    throw std::bad_alloc();
  }
  const std::size_t len = mapped_length(bytes);
  void* p = pool().allocate(len);
  // Under ASan only the bytes asked for are addressable, so a read past
  // them or of a released buffer is reported as it would be on the heap.
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, len - bytes);
  return p;
}

void release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kMinPooledBytes) {
    ::operator delete(p);
    return;
  }
  const std::size_t len = mapped_length(bytes);
  ASAN_POISON_MEMORY_REGION(p, len);
  pool().release(p, len);
}

Stats stats() { return pool().stats(); }

Stats thread_stats() {
  Stats s;
  s.hits = t_counts.hits;
  s.misses = t_counts.misses;
  s.evictions = t_counts.evictions;
  return s;
}

}  // namespace imc::buffer_pool
