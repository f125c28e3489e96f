#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "ndarray/ndarray.h"

namespace imc::nda {
namespace {

// Boxes are copied into every index entry, request and coroutine frame of
// the staging path; inline coordinates keep those copies off the heap.
static_assert(std::is_trivially_copyable_v<Dims>);
static_assert(std::is_trivially_copyable_v<Box>);
static_assert(sizeof(Box) == 2 * sizeof(Dims));
static_assert(sizeof(Dims) <= (kMaxDims + 1) * sizeof(std::uint64_t));

TEST(Dims, EqualityComparesRankAndValues) {
  EXPECT_EQ(Dims{}, Dims());
  EXPECT_EQ((Dims{1, 2}), (Dims{1, 2}));
  EXPECT_NE((Dims{1, 2}), (Dims{1, 3}));
  // Same leading values, different rank: never equal, zeros included.
  EXPECT_NE((Dims{0, 0}), (Dims{0, 0, 0}));
  EXPECT_NE((Dims{5}), (Dims{5, 0}));
  EXPECT_NE(Dims{}, (Dims{0}));
  // A shrunk Dims equals one built at the smaller rank.
  Dims d = {4, 5, 6};
  d.resize(2);
  EXPECT_EQ(d, (Dims{4, 5}));
}

TEST(Dims, OrdersLikeAVectorAndWorksAsAMapKey) {
  Rng rng(0xd1a5);
  std::vector<Dims> dims;
  std::vector<std::vector<std::uint64_t>> vecs;
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = rng.next_below(kMaxDims + 1);
    Dims d;
    std::vector<std::uint64_t> v;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t x = rng.next_below(3);
      d.push_back(x);
      v.push_back(x);
    }
    dims.push_back(d);
    vecs.push_back(v);
  }
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      ASSERT_EQ(dims[i] < dims[j], vecs[i] < vecs[j]) << i << " " << j;
      ASSERT_EQ(dims[i] == dims[j], vecs[i] == vecs[j]) << i << " " << j;
    }
  }
  // The staging-region cache keys on (global dims, servers).
  std::map<std::pair<Dims, int>, int> cache;
  cache[{Dims{64, 64}, 4}] = 1;
  cache[{Dims{64, 64, 1}, 4}] = 2;
  cache[{Dims{64, 64}, 8}] = 3;
  cache[{Dims{64, 64}, 4}] = 4;
  ASSERT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.begin()->second, 4);
  EXPECT_EQ((cache[{Dims{64, 64, 1}, 4}]), 2);
}

TEST(Dims, ResizeAssignAndPushBackKeepVectorSemantics) {
  Dims d(3);
  EXPECT_EQ(d, (Dims{0, 0, 0}));
  d.assign(2, 9);
  EXPECT_EQ(d, (Dims{9, 9}));
  d.push_back(4);
  EXPECT_EQ(d, (Dims{9, 9, 4}));
  EXPECT_EQ(d.back(), 4u);
  d.resize(4, 7);
  EXPECT_EQ(d, (Dims{9, 9, 4, 7}));
  d.resize(1);
  d.resize(3);  // grown slots read as zero, not as the values dropped
  EXPECT_EQ(d, (Dims{9, 0, 0}));
  std::uint64_t sum = 0;
  for (std::uint64_t x : d) sum += x;
  EXPECT_EQ(sum, 9u);
  EXPECT_EQ(Dims(kMaxDims, 1).size(), kMaxDims);
}

TEST(Dims, GrowingPastTheCapacityThrowsInEveryBuild) {
  EXPECT_THROW(Dims(kMaxDims + 1), std::length_error);
  Dims full(kMaxDims, 2);
  EXPECT_THROW(full.push_back(3), std::length_error);
  EXPECT_THROW(full.resize(kMaxDims + 1), std::length_error);
  EXPECT_EQ(full, Dims(kMaxDims, 2));
  EXPECT_EQ(check_rank(kMaxDims, "spec").code(), ErrorCode::kOk);
  EXPECT_EQ(check_rank(kMaxDims + 1, "spec").code(),
            ErrorCode::kInvalidArgument);
}

TEST(Box, VolumeAndExtent) {
  Box b({0, 10}, {5, 30});
  EXPECT_EQ(b.dims(), 2);
  EXPECT_EQ(b.extent(0), 5u);
  EXPECT_EQ(b.extent(1), 20u);
  EXPECT_EQ(b.volume(), 100u);
  EXPECT_FALSE(b.empty());
}

TEST(Box, WholeCoversGlobal) {
  Box b = Box::whole({5, 512, 1000});
  EXPECT_EQ(b.lb, (Dims{0, 0, 0}));
  EXPECT_EQ(b.ub, (Dims{5, 512, 1000}));
  EXPECT_EQ(b.volume(), 5u * 512 * 1000);
}

TEST(Box, EmptyBox) {
  Box b({3, 3}, {3, 10});
  EXPECT_TRUE(b.empty());
  Box zero;
  EXPECT_TRUE(zero.empty());
}

TEST(Box, Contains) {
  Box outer({0, 0}, {10, 10});
  EXPECT_TRUE(outer.contains(Box({2, 3}, {4, 7})));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Box({2, 3}, {4, 11})));
  EXPECT_FALSE(outer.contains_point({10, 0}));  // half-open
  EXPECT_TRUE(outer.contains_point({9, 9}));
}

TEST(Box, Intersection) {
  Box a({0, 0}, {10, 10});
  Box b({5, 5}, {15, 15});
  auto i = intersect(a, b);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, Box({5, 5}, {10, 10}));
}

TEST(Box, DisjointIntersectionIsEmpty) {
  EXPECT_FALSE(intersect(Box({0}, {5}), Box({5}, {10})).has_value());
  EXPECT_FALSE(intersect(Box({0, 0}, {5, 5}), Box({0, 7}, {5, 9})));
}

TEST(Box, ToStringIsReadable) {
  EXPECT_EQ(Box({0, 10}, {5, 30}).to_string(), "[0..5, 10..30)");
}

TEST(Dims32Bit, DetectsOverflow) {
  // Table IV: dimension sizes stored as 32-bit unsigned overflow.
  EXPECT_TRUE(check_dims_32bit({5, 32, 512000}).is_ok());
  EXPECT_EQ(check_dims_32bit({5ull << 32}).code(),
            ErrorCode::kDimensionOverflow);
  // The LAMMPS output geometry at (8192, 4096) scale really does overflow
  // 32-bit element counts — exactly the crash the paper reports.
  EXPECT_EQ(check_dims_32bit({5, 8192, 512000}).code(),
            ErrorCode::kDimensionOverflow);
  // 4096 * 1048576 * 4096 elements overflows 32-bit element counts.
  EXPECT_EQ(check_dims_32bit({4096, 1048576, 4096}).code(),
            ErrorCode::kDimensionOverflow);
}

TEST(Decompose1D, EvenSplit) {
  auto boxes = decompose_1d({4, 100}, 4, 1);
  ASSERT_EQ(boxes.size(), 4u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(boxes[p].lb[1], static_cast<std::uint64_t>(25 * p));
    EXPECT_EQ(boxes[p].extent(1), 25u);
    EXPECT_EQ(boxes[p].extent(0), 4u);  // full other dimension
  }
}

TEST(Decompose1D, RemainderSpreadOverFirstBlocks) {
  auto boxes = decompose_1d({10}, 3, 0);
  EXPECT_EQ(boxes[0].extent(0), 4u);
  EXPECT_EQ(boxes[1].extent(0), 3u);
  EXPECT_EQ(boxes[2].extent(0), 3u);
  // Partition property: contiguous and covering.
  EXPECT_EQ(boxes[0].ub[0], boxes[1].lb[0]);
  EXPECT_EQ(boxes[1].ub[0], boxes[2].lb[0]);
  EXPECT_EQ(boxes[2].ub[0], 10u);
}

// block_1d against the running-sum definition decompose_1d had before it
// was built from block_1d, for every index of a sweep of splits.
TEST(Decompose1D, BlockMatchesTheRunningSumSplitAtEveryIndex) {
  for (const Dims& global : {Dims{10}, Dims{4, 100}, Dims{3, 7, 11},
                             Dims{32, 48, 64}, Dims{5, 1, 1, 9}}) {
    for (int dim = 0; dim < static_cast<int>(global.size()); ++dim) {
      const std::uint64_t extent = global[static_cast<std::size_t>(dim)];
      for (int parts = 1; parts <= static_cast<int>(extent); ++parts) {
        const auto blocks = decompose_1d(global, parts, dim);
        ASSERT_EQ(blocks.size(), static_cast<std::size_t>(parts));
        std::uint64_t lo = 0;
        for (int p = 0; p < parts; ++p) {
          const std::uint64_t len =
              extent / static_cast<std::uint64_t>(parts) +
              (static_cast<std::uint64_t>(p) <
                       extent % static_cast<std::uint64_t>(parts)
                   ? 1
                   : 0);
          Box expect = Box::whole(global);
          expect.lb[static_cast<std::size_t>(dim)] = lo;
          expect.ub[static_cast<std::size_t>(dim)] = lo + len;
          lo += len;
          const Box got = block_1d(global, parts, dim, p);
          ASSERT_EQ(got, expect) << global.size() << "-D dim " << dim
                                 << " parts " << parts << " index " << p;
          ASSERT_EQ(got, blocks[static_cast<std::size_t>(p)]);
        }
        ASSERT_EQ(lo, extent);
      }
    }
  }
}

class DecomposePartition
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecomposePartition, IsDisjointAndCovering) {
  const auto [parts, dim] = GetParam();
  const Dims global = {32, 48, 64};
  auto boxes = decompose_1d(global, parts, dim);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    total += boxes[i].volume();
    for (std::size_t j = i + 1; j < boxes.size(); ++j) {
      EXPECT_FALSE(intersect(boxes[i], boxes[j]).has_value());
    }
  }
  EXPECT_EQ(total, Box::whole(global).volume());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DecomposePartition,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 16),
                       ::testing::Values(0, 1, 2)));

TEST(DecomposeGrid, CartesianBlocks) {
  auto boxes = decompose_grid({4, 6}, {2, 3});
  ASSERT_EQ(boxes.size(), 6u);
  // Row-major: last dimension fastest.
  EXPECT_EQ(boxes[0], Box({0, 0}, {2, 2}));
  EXPECT_EQ(boxes[1], Box({0, 2}, {2, 4}));
  EXPECT_EQ(boxes[2], Box({0, 4}, {2, 6}));
  EXPECT_EQ(boxes[3], Box({2, 0}, {4, 2}));
  std::uint64_t total = 0;
  for (const auto& b : boxes) total += b.volume();
  EXPECT_EQ(total, 24u);
}

TEST(LongestDim, PicksMaxExtentLowestIndexOnTie) {
  EXPECT_EQ(longest_dim({5, 512, 512000}), 2);
  EXPECT_EQ(longest_dim({4096, 4096}), 0);
  EXPECT_EQ(longest_dim({7}), 0);
}

TEST(Intersecting, FindsAllOverlaps) {
  auto writers = decompose_1d({100}, 4, 0);  // [0,25) [25,50) [50,75) [75,100)
  auto hits = intersecting(writers, Box({20}, {60}));
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].first, 0);
  EXPECT_EQ(hits[0].second, Box({20}, {25}));
  EXPECT_EQ(hits[1].first, 1);
  EXPECT_EQ(hits[2].second, Box({50}, {60}));
}

TEST(VarDesc, TotalBytes) {
  VarDesc v{"atoms", {5, 32, 512000}, 0};
  EXPECT_EQ(v.total_bytes(), 5ull * 32 * 512000 * 8);
}

TEST(Slab, MaterializedRoundTrip) {
  Slab s = Slab::zeros(Box({0, 0}, {4, 4}));
  s.set({2, 3}, 7.5);
  EXPECT_DOUBLE_EQ(s.at({2, 3}), 7.5);
  EXPECT_DOUBLE_EQ(s.at({0, 0}), 0.0);
  EXPECT_EQ(s.declared_bytes(), 16u * 8);
}

TEST(Slab, MaterializedUsesRowMajorLayout) {
  std::vector<double> data = {0, 1, 2, 3, 4, 5};
  Slab s = Slab::materialized(Box({10, 20}, {12, 23}), std::move(data));
  EXPECT_DOUBLE_EQ(s.at({10, 20}), 0);
  EXPECT_DOUBLE_EQ(s.at({10, 22}), 2);
  EXPECT_DOUBLE_EQ(s.at({11, 20}), 3);
  EXPECT_DOUBLE_EQ(s.at({11, 22}), 5);
}

TEST(Slab, SyntheticIsDeterministicAndPositionDependent) {
  Slab a = Slab::synthetic(Box({0, 0}, {100, 100}), 42);
  Slab b = Slab::synthetic(Box({0, 0}, {100, 100}), 42);
  EXPECT_DOUBLE_EQ(a.at({3, 7}), b.at({3, 7}));
  EXPECT_NE(a.at({3, 7}), a.at({7, 3}));
  Slab c = Slab::synthetic(Box({0, 0}, {100, 100}), 43);
  EXPECT_NE(a.at({3, 7}), c.at({3, 7}));
}

TEST(Slab, SyntheticValuesBounded) {
  Slab s = Slab::synthetic(Box({0}, {1000}), 1);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double v = s.at({i});
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Slab, ExtractOfSyntheticStaysSynthetic) {
  Slab s = Slab::synthetic(Box({0, 0}, {1 << 20, 1 << 20}), 9);
  Slab sub = s.extract(Box({5, 5}, {10, 10}));
  EXPECT_FALSE(sub.is_materialized());
  EXPECT_DOUBLE_EQ(sub.at({6, 7}), s.at({6, 7}));
}

TEST(Slab, ExtractOfMaterializedCopiesContent) {
  Slab s = Slab::zeros(Box({0, 0}, {8, 8}));
  s.set({3, 4}, 1.25);
  Slab sub = s.extract(Box({2, 2}, {6, 6}));
  EXPECT_TRUE(sub.is_materialized());
  EXPECT_DOUBLE_EQ(sub.at({3, 4}), 1.25);
  EXPECT_DOUBLE_EQ(sub.at({2, 2}), 0.0);
}

TEST(Slab, FillFromCopiesOnlyOverlap) {
  Slab dst = Slab::zeros(Box({0}, {10}));
  Slab src = Slab::synthetic(Box({5}, {20}), 3);
  dst.fill_from(src);
  EXPECT_DOUBLE_EQ(dst.at({4}), 0.0);          // outside src
  EXPECT_DOUBLE_EQ(dst.at({5}), src.at({5}));  // overlap copied
  EXPECT_DOUBLE_EQ(dst.at({9}), src.at({9}));
}

TEST(Slab, ScatterGatherRoundTripAcrossDecompositions) {
  // Property: writing via one decomposition and reading via another must
  // reproduce the source exactly. This is the core staging correctness
  // invariant every library test relies on.
  const Dims global = {12, 18};
  Slab source = Slab::synthetic(Box::whole(global), 77);

  for (int writer_parts : {2, 3, 4}) {
    for (int reader_parts : {2, 3}) {
      auto writer_boxes = decompose_1d(global, writer_parts, 0);
      auto reader_boxes = decompose_1d(global, reader_parts, 1);
      // "Stage" writer slabs.
      std::vector<Slab> staged;
      for (const auto& wb : writer_boxes) staged.push_back(source.extract(wb));
      // Each reader assembles from intersecting staged slabs.
      Slab assembled = Slab::zeros(Box::whole(global));
      for (const auto& rb : reader_boxes) {
        Slab reader_slab = Slab::zeros(rb);
        for (const auto& st : staged) reader_slab.fill_from(st);
        assembled.fill_from(reader_slab);
      }
      EXPECT_DOUBLE_EQ(assembled.checksum(), source.checksum())
          << "writers=" << writer_parts << " readers=" << reader_parts;
    }
  }
}

TEST(Slab, ChecksumIsDecompositionInvariantButContentSensitive) {
  Slab a = Slab::synthetic(Box({0, 0}, {6, 6}), 5);
  Slab copy = Slab::zeros(Box({0, 0}, {6, 6}));
  copy.fill_from(a);
  EXPECT_DOUBLE_EQ(copy.checksum(), a.checksum());
  copy.set({1, 1}, copy.at({1, 1}) + 1.0);
  EXPECT_NE(copy.checksum(), a.checksum());
}

TEST(Slab, StridedFillMatchesPerElementCopy) {
  // The row-run copy kernels must be element-for-element identical to the
  // per-coordinate loop they replaced, for every rank and source kind.
  struct Case {
    Box dst, src;
  };
  const std::vector<Case> cases = {
      {Box({0}, {40}), Box({25}, {60})},
      {Box({0, 0}, {12, 17}), Box({5, 3}, {20, 11})},
      {Box({2, 2, 2}, {10, 9, 8}), Box({0, 4, 3}, {7, 12, 6})},
  };
  for (const auto& c : cases) {
    for (bool synthetic_src : {true, false}) {
      Slab src = synthetic_src
                     ? Slab::synthetic(c.src, 11)
                     : [&] {
                         Slab m = Slab::zeros(c.src);
                         m.fill_from(Slab::synthetic(c.src, 11));
                         return m;
                       }();
      Slab fast = Slab::zeros(c.dst);
      fast.fill_from(src);
      // Reference: element-wise walk of the destination box.
      auto overlap = intersect(c.dst, c.src);
      ASSERT_TRUE(overlap.has_value());
      Dims coord = c.dst.lb;
      for (;;) {
        const double expected =
            overlap->contains_point(coord) ? src.at(coord) : 0.0;
        EXPECT_DOUBLE_EQ(fast.at(coord), expected)
            << "synthetic=" << synthetic_src;
        std::size_t d = coord.size();
        bool done = true;
        for (; d-- > 0;) {
          if (++coord[d] < c.dst.ub[d]) {
            done = false;
            break;
          }
          coord[d] = c.dst.lb[d];
        }
        if (done) break;
      }
    }
  }
}

TEST(Slab, FullyContainedFillUsesWholeBuffer) {
  // dst == src == overlap: the single-copy fast path.
  const Box box({3, 3}, {9, 9});
  Slab src = Slab::zeros(box);
  src.set({5, 5}, 2.5);
  Slab dst = Slab::zeros(box);
  dst.fill_from(src);
  EXPECT_DOUBLE_EQ(dst.at({5, 5}), 2.5);
  EXPECT_DOUBLE_EQ(dst.checksum(), src.checksum());
}

TEST(Slab, ExtractWholeBoxEqualsCopy) {
  Slab src = Slab::zeros(Box({0, 0}, {5, 5}));
  src.set({4, 4}, -3.0);
  Slab whole = src.extract(src.box());
  EXPECT_TRUE(whole.is_materialized());
  EXPECT_EQ(whole.box(), src.box());
  EXPECT_DOUBLE_EQ(whole.at({4, 4}), -3.0);
  EXPECT_DOUBLE_EQ(whole.checksum(), src.checksum());
}

TEST(Slab, ChecksumMatchesDefinitionForBothKinds) {
  // Pin the checksum to its per-element definition so the rowwise
  // accumulation cannot drift (digest comparisons rely on bit equality).
  const Box box({1, 2, 3}, {4, 7, 9});
  Slab synth = Slab::synthetic(box, 123);
  Slab mat = Slab::zeros(box);
  mat.fill_from(synth);
  double expected = 0;
  for (std::uint64_t x = 1; x < 4; ++x) {
    for (std::uint64_t y = 2; y < 7; ++y) {
      for (std::uint64_t z = 3; z < 9; ++z) {
        std::uint64_t h = 0x9e3779b9;
        for (std::uint64_t c : {x, y, z}) h = splitmix64(h ^ c);
        expected += static_cast<double>(h >> 40) * synth.at({x, y, z});
      }
    }
  }
  EXPECT_DOUBLE_EQ(synth.checksum(), expected);
  EXPECT_DOUBLE_EQ(mat.checksum(), expected);
}

// Visits every coordinate of `box` in row-major order.
template <typename F>
void for_each_coord(const Box& box, F&& visit) {
  if (box.empty()) return;
  Dims coord = box.lb;
  for (;;) {
    visit(coord);
    std::size_t d = coord.size();
    while (d-- > 0) {
      if (++coord[d] < box.ub[d]) break;
      coord[d] = box.lb[d];
    }
    if (d == static_cast<std::size_t>(-1)) return;
  }
}

TEST(Slab, WritesThroughCopiesAndWindowsNeverReachTheSource) {
  const Box box({2, 3}, {10, 12});
  Slab src = Slab::synthetic(box, 8).materialize();
  const double before = src.checksum();

  Slab copy = src;
  copy.set({4, 5}, 99.0);
  EXPECT_DOUBLE_EQ(copy.at({4, 5}), 99.0);
  EXPECT_DOUBLE_EQ(src.at({4, 5}), synthetic_value(8, {4, 5}));

  Slab window = src.extract(Box({3, 4}, {7, 9}));
  window.set({3, 4}, -1.0);
  window.fill_from(Slab::synthetic(Box({5, 5}, {20, 20}), 1));
  EXPECT_DOUBLE_EQ(window.at({3, 4}), -1.0);
  EXPECT_DOUBLE_EQ(window.at({6, 8}), synthetic_value(1, {6, 8}));

  // A target the source covers shares its buffer; writing to it afterwards
  // must still leave the source alone.
  Slab shared = Slab::zeros(Box({2, 3}, {5, 6}));
  shared.fill_from(src);
  shared.set({2, 3}, 7.0);
  EXPECT_DOUBLE_EQ(src.checksum(), before);

  // Nor does a later write to the source reach an earlier window.
  const Slab kept = src.extract(Box({2, 3}, {4, 5}));
  const double kept_sum = kept.checksum();
  src.set({2, 3}, 5.0);
  EXPECT_DOUBLE_EQ(kept.checksum(), kept_sum);
  EXPECT_DOUBLE_EQ(kept.at({2, 3}), synthetic_value(8, {2, 3}));
}

TEST(Slab, NarrowWindowReadsLikeACompactCopy) {
  const Slab src = Slab::synthetic(Box({0, 0, 0}, {6, 7, 9}), 21).materialize();
  // One element thick in dimension 1, offset in every dimension.
  const Box sub({1, 2, 3}, {4, 3, 8});
  const Slab window = src.extract(sub);
  const Slab compact = Slab::synthetic(sub, 21).materialize();
  Slab detached = window;
  detached.set(sub.lb, window.at(sub.lb));  // forces a compact private copy
  for_each_coord(sub, [&](const Dims& c) {
    EXPECT_DOUBLE_EQ(window.at(c), compact.at(c));
    EXPECT_DOUBLE_EQ(detached.at(c), compact.at(c));
  });
  EXPECT_DOUBLE_EQ(window.checksum(), compact.checksum());
  EXPECT_DOUBLE_EQ(detached.checksum(), compact.checksum());
  // A window of a window addresses the same buffer correctly.
  const Box inner({2, 2, 4}, {3, 3, 6});
  EXPECT_DOUBLE_EQ(window.extract(inner).checksum(),
                   compact.extract(inner).checksum());
}

TEST(Assemble, MatchesPerElementOracleOnRandomDecompositions) {
  // Writers cut a ragged, non-power-of-two global array on a random grid;
  // a reader box collects the overlapping pieces, sometimes with a gap or a
  // duplicated piece, and of synthetic, materialized or mixed kinds. The
  // oracle applies the pieces element by element in order over zeros.
  Rng rng(2024);
  int synthetic_results = 0;
  int materialized_results = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t nd = 1 + rng.next_below(3);
    Dims global(nd);
    std::vector<int> procs(nd);
    Box box;
    for (std::size_t d = 0; d < nd; ++d) {
      global[d] = 1 + rng.next_below(13);
      procs[d] = 1 + static_cast<int>(rng.next_below(std::min<std::uint64_t>(
                         global[d], 5)));
      const std::uint64_t lo = rng.next_below(global[d]);
      box.lb.push_back(lo);
      box.ub.push_back(lo + 1 + rng.next_below(global[d] - lo));
    }
    // 0: synthetic, one seed; 1: synthetic, two seeds; 2: materialized;
    // 3: mixed kinds, one seed.
    const std::uint64_t kind = rng.next_below(4);
    std::vector<Slab> pieces;
    for (const Box& writer : decompose_grid(global, procs)) {
      auto overlap = intersect(writer, box);
      if (!overlap) continue;
      const std::uint64_t seed = kind == 1 ? 30 + rng.next_below(2) : 30;
      const bool real =
          kind == 2 || (kind == 3 && rng.next_below(2) == 0);
      const Slab out = real ? Slab::synthetic(writer, seed).materialize()
                            : Slab::synthetic(writer, seed);
      pieces.push_back(out.extract(*overlap));
    }
    ASSERT_FALSE(pieces.empty());
    const std::uint64_t shape = rng.next_below(4);
    if (shape == 1 && pieces.size() > 1) {
      pieces.erase(pieces.begin() +
                   static_cast<std::ptrdiff_t>(rng.next_below(pieces.size())));
    } else if (shape == 2) {
      pieces.push_back(pieces[rng.next_below(pieces.size())]);
    } else if (shape == 3 && pieces.size() > 1) {
      // A gap and an overlap at once: often the same element count.
      pieces.front() = pieces.back();
    }

    const Slab got = assemble(box, pieces);
    ASSERT_EQ(got.box(), box);
    bool tiled = true;
    for_each_coord(box, [&](const Dims& c) {
      double expected = 0.0;
      int covering = 0;
      for (const Slab& p : pieces) {
        if (p.box().contains_point(c)) {
          expected = p.at(c);
          ++covering;
        }
      }
      tiled = tiled && covering == 1;
      ASSERT_EQ(got.at(c), expected) << "trial " << trial;
    });
    bool one_seed = true;
    for (const Slab& p : pieces) {
      one_seed = one_seed && !p.is_materialized() &&
                 p.seed() == pieces.front().seed();
    }
    EXPECT_EQ(got.is_materialized(), !(one_seed && tiled))
        << "trial " << trial;
    ++(got.is_materialized() ? materialized_results : synthetic_results);
  }
  EXPECT_GT(synthetic_results, 20);
  EXPECT_GT(materialized_results, 20);
}

// A random non-empty box inside `box`.
Box random_sub_box(Rng& rng, const Box& box) {
  Box sub;
  for (std::size_t d = 0; d < box.lb.size(); ++d) {
    const std::uint64_t lo =
        box.lb[d] + rng.next_below(box.extent(static_cast<int>(d)));
    sub.lb.push_back(lo);
    sub.ub.push_back(lo + 1 + rng.next_below(box.ub[d] - lo));
  }
  return sub;
}

// `box` cut on a random grid of at most three blocks per dimension.
std::vector<Box> random_cut(Rng& rng, const Box& box) {
  Dims extents(box.lb.size());
  std::vector<int> procs;
  for (std::size_t d = 0; d < extents.size(); ++d) {
    extents[d] = box.extent(static_cast<int>(d));
    procs.push_back(1 + static_cast<int>(rng.next_below(
                            std::min<std::uint64_t>(extents[d], 3))));
  }
  std::vector<Box> blocks = decompose_grid(extents, procs);
  for (Box& b : blocks) {
    for (std::size_t d = 0; d < extents.size(); ++d) {
      b.lb[d] += box.lb[d];
      b.ub[d] += box.lb[d];
    }
  }
  return blocks;
}

TEST(Assemble, TiledViewsMatchTheOracleAndNeverShareAWrite) {
  // Writers of mixed kinds and seeds tile a ragged global array; a read of
  // a random box is assembled from their windows, and a second read of the
  // same box from extracts of the first (a view of extracts of views) mixed
  // with fresh writer windows. Every slab operation on both reads is
  // checked against the per-element oracle of the writers' content.
  Rng rng(77);
  int views = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nd = 1 + rng.next_below(3);
    Dims global(nd);
    std::vector<int> procs(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      global[d] = 1 + rng.next_below(13);
      procs[d] = 1 + static_cast<int>(rng.next_below(std::min<std::uint64_t>(
                         global[d], 5)));
    }
    std::vector<Slab> writers;
    for (const Box& b : decompose_grid(global, procs)) {
      const Slab out = Slab::synthetic(b, 50 + rng.next_below(3));
      writers.push_back(rng.next_below(2) == 0 ? out.materialize() : out);
    }
    const auto writer_of = [&](const Dims& c) -> Slab& {
      for (Slab& w : writers) {
        if (w.box().contains_point(c)) return w;
      }
      throw std::logic_error("the writers do not tile the array");
    };
    const Box box = random_sub_box(rng, Box::whole(global));
    Slab expected = Slab::zeros(box);
    for_each_coord(box, [&](const Dims& c) {
      expected.set(c, writer_of(c).at(c));
    });
    const auto windows = [&](const Box& within) {
      std::vector<Slab> pieces;
      for (const Slab& w : writers) {
        if (auto overlap = intersect(w.box(), within)) {
          pieces.push_back(w.extract(*overlap));
        }
      }
      return pieces;
    };

    const Slab got = assemble(box, windows(box));
    std::vector<Slab> nested;
    for (const Box& block : random_cut(rng, box)) {
      if (rng.next_below(3) == 0) {
        for (Slab& piece : windows(block)) nested.push_back(std::move(piece));
      } else {
        nested.push_back(got.extract(block));
      }
    }
    const Slab again = assemble(box, nested);
    views += got.is_materialized() && windows(box).size() > 1 ? 1 : 0;

    for (const Slab* read : {&got, &again}) {
      ASSERT_EQ(read->box(), box);
      for_each_coord(box, [&](const Dims& c) {
        ASSERT_EQ(read->at(c), expected.at(c)) << "trial " << trial;
      });
      EXPECT_EQ(read->checksum(), expected.checksum()) << "trial " << trial;
      const Slab compact = read->materialize();
      EXPECT_EQ(compact.checksum(), expected.checksum()) << "trial " << trial;

      const Box sub = random_sub_box(rng, box);
      const Slab part = read->extract(sub);
      ASSERT_EQ(part.box(), sub);
      for_each_coord(sub, [&](const Dims& c) {
        ASSERT_EQ(part.at(c), expected.at(c)) << "trial " << trial;
      });

      // A target the read covers shares it; a larger one copies the
      // overlap onto its zeros.
      for (const Box& target :
           {sub, random_sub_box(rng, Box::whole(global))}) {
        Slab filled = Slab::zeros(target);
        filled.fill_from(*read);
        for_each_coord(target, [&](const Dims& c) {
          ASSERT_EQ(filled.at(c), box.contains_point(c) ? expected.at(c) : 0.0)
              << "trial " << trial;
        });
      }

      // A write through the read's own extract (for a view, a new view
      // that nothing else holds), by set or fill_from, reaches neither the
      // read nor the writers.
      if (!read->is_materialized()) continue;
      Slab written = read->extract(box);
      written.set(box.lb, 1e9);
      written.fill_from(Slab::synthetic(sub, 99));
      EXPECT_EQ(written.at(box.lb), sub.contains_point(box.lb)
                                        ? synthetic_value(99, box.lb)
                                        : 1e9);
      EXPECT_EQ(read->at(box.lb), expected.at(box.lb));
      EXPECT_EQ(writer_of(box.lb).at(box.lb), expected.at(box.lb));
    }

    // Nor does a write through a materialized writer after the reads.
    for (Slab& w : writers) {
      if (!w.is_materialized()) continue;
      auto overlap = intersect(w.box(), box);
      if (!overlap) continue;
      w.set(overlap->lb, -1e9);
      EXPECT_EQ(got.at(overlap->lb), expected.at(overlap->lb));
      EXPECT_EQ(again.at(overlap->lb), expected.at(overlap->lb));
    }
    EXPECT_EQ(got.checksum(), expected.checksum()) << "trial " << trial;
    EXPECT_EQ(again.checksum(), expected.checksum()) << "trial " << trial;
  }
  EXPECT_GT(views, 50);
}

TEST(Assemble, LargeReadsStaySyntheticAndEmptyBoxesAreMaterialized) {
  const Box big({0, 0}, {4096, 2048});  // above kAssembleCapElems
  ASSERT_GT(big.volume(), kAssembleCapElems);
  const Slab piece = Slab::synthetic(Box({0, 0}, {1, 4}), 4).materialize();
  const Slab got = assemble(big, {piece});
  EXPECT_FALSE(got.is_materialized());
  EXPECT_EQ(got.seed(), piece.seed());
  EXPECT_TRUE(assemble(Box({0}, {0}), {}).is_materialized());
}

}  // namespace
}  // namespace imc::nda
