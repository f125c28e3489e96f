// Process-wide pool of large element buffers (imc::buffer_pool).
//
// A materialized world allocates the same multi-hundred-KiB slab buffers
// every step: each rank's output, each assembled read. Straight from the
// heap, glibc maps those sizes fresh and unmaps them on free, so every
// step pays the kernel a page fault per 4 KiB on first touch, and sys time
// exceeded user time on the Laplace workflow (DESIGN.md §18).
//
// The pool keeps those pages resident instead:
//
//  * allocate() serves requests of at least kMinPooledBytes from exact-size
//    free lists of mmap'ed buffers (sizes rounded up to whole pages); a
//    miss maps a new buffer. Smaller requests go to operator new.
//  * release() puts a pooled buffer back on its list; any thread may
//    release what another allocated.
//  * The footprint is capped: before a miss maps, idle buffers of other
//    sizes are unmapped until live + idle + n <= max(high-water live
//    bytes, live + n). Live plus idle bytes therefore never exceed the
//    most bytes the process ever had live at once.
//
// Under ASan an idle buffer, and the page-rounding tail of a live one, are
// poisoned, so a use after release is reported as on the heap.
//
// A recycled buffer carries its previous contents, exactly like fresh
// operator new storage may: callers write every element before reading
// (Slab::from_rows does, Slab::zeros fills with 0.0).
//
// One mutex guards the pool; a world makes a few hundred calls. The pool is
// never destroyed, so a buffer released during static destruction is safe.
#pragma once

#include <cstddef>
#include <cstdint>

namespace imc::buffer_pool {

// Requests of at least this many bytes are pooled.
inline constexpr std::size_t kMinPooledBytes = 128 * 1024;

// Storage for `bytes` bytes with unspecified contents, aligned for any
// scalar type (page-aligned when pooled). Throws std::bad_alloc.
void* allocate(std::size_t bytes);
// Returns storage that allocate(bytes) produced, from any thread.
void release(void* p, std::size_t bytes) noexcept;

// Deleter for a std::unique_ptr over allocate()d storage.
struct Deleter {
  std::size_t bytes = 0;
  void operator()(void* p) const noexcept { release(p, bytes); }
};

struct Stats {
  std::uint64_t hits = 0;       // pooled requests served from a free list
  std::uint64_t misses = 0;     // pooled requests that mapped a new buffer
  std::uint64_t evictions = 0;  // idle buffers unmapped to respect the cap
  std::size_t live_bytes = 0;   // pooled bytes handed out
  std::size_t idle_bytes = 0;   // pooled bytes on the free lists
  std::size_t high_water_bytes = 0;  // most live_bytes ever
};

// The whole process's counters and byte levels.
Stats stats();
// The hits, misses and evictions of requests made on the calling thread;
// the byte levels are zero. A world runs on one thread, so the difference
// of two snapshots around it is that world's own traffic.
Stats thread_stats();

}  // namespace imc::buffer_pool
