// imc::buffer_pool: exact-size recycling, the footprint cap, cross-thread
// release, and the slab contract on recycled storage — zeros() and the
// compaction of a view never show a buffer's previous contents.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "ndarray/ndarray.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace imc {
namespace {

using nda::Box;
using nda::Dims;
using nda::Slab;

constexpr std::size_t kPooled = buffer_pool::kMinPooledBytes;

std::uint64_t hits() { return buffer_pool::thread_stats().hits; }

void expect_within_high_water() {
  const buffer_pool::Stats s = buffer_pool::stats();
  EXPECT_LE(s.live_bytes + s.idle_bytes, s.high_water_bytes);
}

// A 2-D box of `bytes / 8` elements, 256 columns wide.
Box box_of(std::size_t bytes) {
  return Box({0, 0}, {bytes / nda::kElementBytes / 256, 256});
}

TEST(BufferPool, FreedBufferComesBackForTheSameSize) {
  void* p = buffer_pool::allocate(3 * kPooled);
  std::memset(p, 0x5a, 3 * kPooled);
  buffer_pool::release(p, 3 * kPooled);
  const std::uint64_t hits0 = hits();
  void* q = buffer_pool::allocate(3 * kPooled);
  EXPECT_EQ(q, p);
  EXPECT_EQ(hits(), hits0 + 1);
  buffer_pool::release(q, 3 * kPooled);

  // Below the threshold nothing is pooled or counted.
  const buffer_pool::Stats before = buffer_pool::thread_stats();
  void* small = buffer_pool::allocate(kPooled - 8);
  buffer_pool::release(small, kPooled - 8);
  const buffer_pool::Stats after = buffer_pool::thread_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  expect_within_high_water();
}

TEST(BufferPool, OversizedRequestsThrowInsteadOfWrapping) {
  // Rounding these up to whole pages, or scaling the volume to bytes,
  // would wrap to a small buffer that the writer then overruns.
  EXPECT_THROW(buffer_pool::allocate(std::numeric_limits<std::size_t>::max()),
               std::bad_alloc);
  EXPECT_THROW(Slab::zeros(Box({0}, {std::uint64_t{1} << 62})),
               std::bad_array_new_length);
}

TEST(BufferPool, ZerosOnARecycledDirtiedBufferReadsAllZeros) {
  const Box box = box_of(2 * kPooled);
  {
    const Slab dirty = Slab::from_rows(
        box, [](const Dims&, double* out, std::uint64_t len) {
          std::fill_n(out, len, 7.5);
        });
    ASSERT_EQ(dirty.at(Dims{3, 3}), 7.5);
  }
  const std::uint64_t hits0 = hits();
  const Slab zeros = Slab::zeros(box);
  EXPECT_EQ(hits(), hits0 + 1);  // the dirtied buffer came back
  for (std::uint64_t i = 0; i < box.ub[0]; ++i) {
    for (std::uint64_t j = 0; j < box.ub[1]; ++j) {
      ASSERT_EQ(zeros.at(Dims{i, j}), 0.0) << i << "," << j;
    }
  }
}

TEST(BufferPool, TiledAssembleTakesNoBufferAndItsMaterializeMatchesTheOracle) {
  // Four materialized column blocks, each below the pooling threshold,
  // tile a read box exactly. assemble() returns a view over them, which
  // takes no buffer; materialize() compacts the view into a recycled
  // buffer it does not zero first, so every element must come from a
  // piece, not the recycled bytes.
  const Box box = box_of(2 * kPooled);
  const std::uint64_t rows = box.ub[0];
  std::vector<Slab> pieces;
  for (std::uint64_t c = 0; c < 4; ++c) {
    pieces.push_back(
        Slab::synthetic(Box({0, c * 64}, {rows, (c + 1) * 64}), 41 + c)
            .materialize());
  }
  for (int round = 0; round < 2; ++round) {
    {
      const Slab dirty = Slab::from_rows(
          box, [](const Dims&, double* out, std::uint64_t len) {
            std::fill_n(out, len, -3.0);
          });
    }
    const buffer_pool::Stats before = buffer_pool::thread_stats();
    const Slab got = nda::assemble(box, pieces);
    const buffer_pool::Stats after = buffer_pool::thread_stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    ASSERT_TRUE(got.is_materialized());

    const std::uint64_t hits0 = hits();
    const Slab compact = got.materialize();
    EXPECT_EQ(hits(), hits0 + 1);  // the dirtied buffer came back
    for (std::uint64_t i = 0; i < rows; ++i) {
      for (std::uint64_t j = 0; j < box.ub[1]; ++j) {
        const Dims c{i, j};
        ASSERT_EQ(compact.at(c), nda::synthetic_value(41 + j / 64, c))
            << "round " << round << " at " << i << "," << j;
      }
    }
  }
}

TEST(BufferPool, LiveAndIdleBytesNeverExceedTheHighWaterMark) {
  // Random allocate/release traffic over one size mix, then a shift to a
  // disjoint mix: the new sizes miss, and the pool must unmap idle buffers
  // of the old sizes instead of growing past the high-water mark.
  Rng rng(17);
  std::vector<std::pair<void*, std::size_t>> held;
  auto churn = [&](const std::vector<std::size_t>& sizes, int ops) {
    for (int op = 0; op < ops; ++op) {
      if (!held.empty() && (held.size() > 12 || rng.next_below(2) == 0)) {
        const std::size_t k = rng.next_below(held.size());
        buffer_pool::release(held[k].first, held[k].second);
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
      } else {
        const std::size_t bytes = sizes[rng.next_below(sizes.size())];
        void* p = buffer_pool::allocate(bytes);
        std::memset(p, 1, bytes);
        held.emplace_back(p, bytes);
      }
      expect_within_high_water();
    }
    for (const auto& [p, bytes] : held) buffer_pool::release(p, bytes);
    held.clear();
    expect_within_high_water();
  };
  churn({2 * kPooled, 4 * kPooled + 8}, 300);
  const std::uint64_t evictions0 = buffer_pool::stats().evictions;
  churn({3 * kPooled, 8 * kPooled}, 300);
  EXPECT_GT(buffer_pool::stats().evictions, evictions0);
}

TEST(BufferPool, ASlabFreedOnAnotherThreadReturnsToThePool) {
  const Box box = box_of(4 * kPooled);
  Slab slab = Slab::zeros(box);
  const buffer_pool::Stats before = buffer_pool::stats();
  std::thread([s = std::move(slab)]() mutable { s = Slab(); }).join();
  const buffer_pool::Stats after = buffer_pool::stats();
  EXPECT_EQ(after.idle_bytes, before.idle_bytes + 4 * kPooled);
  const std::uint64_t hits0 = hits();
  const Slab again = Slab::zeros(box);
  EXPECT_EQ(hits(), hits0 + 1);

  // Several threads allocate and release at once, and hand some of their
  // slabs to this thread, which releases them after the join.
  std::vector<std::thread> workers;
  std::vector<Slab> handoff(4);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w, &handoff, box] {
      for (int i = 0; i < 20; ++i) {
        Slab mine = Slab::zeros(box);
        ASSERT_EQ(mine.at(Dims{1, 1}), 0.0);
        if (i % 5 == 0) handoff[static_cast<std::size_t>(w)] = mine;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  handoff.clear();
  expect_within_high_water();
}

#if defined(__SANITIZE_ADDRESS__)
TEST(BufferPool, AsanSeesOnlyTheBytesAskedForAndNoIdleBuffer) {
  // A pooled mapping is invisible to ASan's heap checks, so the pool
  // poisons what no caller may touch: the page-rounding tail of a live
  // buffer and the whole of an idle one.
  const std::size_t bytes = 2 * kPooled + 8;
  auto* p = static_cast<char*>(buffer_pool::allocate(bytes));
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + bytes - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(p + bytes));
  buffer_pool::release(p, bytes);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  void* q = buffer_pool::allocate(bytes);
  ASSERT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(p + bytes - 1));
  buffer_pool::release(q, bytes);
}
#endif

}  // namespace
}  // namespace imc
