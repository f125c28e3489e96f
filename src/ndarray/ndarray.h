// N-dimensional global arrays, bounding boxes, decompositions and slabs.
//
// This is the data model every staging library in the study shares: a
// variable is a global n-D array of doubles; each writer puts a rectangular
// slab of it; readers get (possibly different) rectangular slabs. The
// decomposition geometry is exactly what the paper's Finding 3 is about, so
// boxes/decompositions are first-class and unit-tested.
//
// Slabs carry *real* element data so tests can assert that what a reader
// gets equals what writers put under any decomposition. For the paper-scale
// runs (128 MB x 1024 ranks), materializing every element is impossible in a
// test container, so a slab can instead be "synthetic": its content is
// defined by a pure function of (seed, global coordinate). Extraction and
// assembly preserve the definition, so correctness checks (sampled equality,
// checksums) work identically in both modes.
//
// A materialized slab is a box window onto a shared, reference-counted
// buffer. Copies and extract() share the buffer; set() and fill_from()
// first detach a shared or windowed buffer into a compact private one, so
// no write is ever visible through another slab. Bytes are produced only
// where a reader needs them: from_rows() writes each element once into an
// uninitialized buffer, and assemble() keeps a read synthetic whenever the
// pieces it is built from tile it with one synthetic definition.
#pragma once

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/buffer_pool.h"
#include "common/rng.h"
#include "common/status.h"

namespace imc::nda {

// Largest rank a global array may have. Every study variable is 1-D to 3-D;
// parsers of external input reject more with kInvalidArgument before they
// build a Dims (check_rank), and code that exceeds it anyway throws.
inline constexpr std::size_t kMaxDims = 4;

// Throws std::length_error naming the rank, the way a vector reports a size
// past max_size(); Dims calls it in every build type when a rank would
// exceed kMaxDims. The engine records it as the failure of the process.
[[noreturn]] void dims_overflow(std::size_t rank);

// kInvalidArgument when `rank` exceeds kMaxDims; `what` names the input.
Status check_rank(std::size_t rank, const std::string& what);

// A coordinate or extent per dimension: the vector surface the code uses,
// stored inline so that a Box, an intersection or a coordinate walk never
// touches the allocator. Elements past size() stay zero.
class Dims {
 public:
  using value_type = std::uint64_t;
  using size_type = std::size_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  constexpr Dims() = default;
  explicit Dims(std::size_t n, std::uint64_t value = 0) { assign(n, value); }
  Dims(std::initializer_list<std::uint64_t> values) {
    set_size(values.size());
    std::copy(values.begin(), values.end(), v_.begin());
  }

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  std::uint64_t& operator[](std::size_t i) { return v_[i]; }
  std::uint64_t operator[](std::size_t i) const { return v_[i]; }
  std::uint64_t back() const { return v_[n_ - 1u]; }
  iterator begin() { return v_.data(); }
  iterator end() { return v_.data() + n_; }
  const_iterator begin() const { return v_.data(); }
  const_iterator end() const { return v_.data() + n_; }

  void resize(std::size_t n, std::uint64_t value = 0) {
    const std::size_t old = n_;
    set_size(n);
    if (n > old) std::fill(v_.begin() + old, v_.begin() + n, value);
    std::fill(v_.begin() + n, v_.end(), 0);
  }
  void assign(std::size_t n, std::uint64_t value) {
    set_size(n);
    std::fill(v_.begin(), v_.begin() + n, value);
    std::fill(v_.begin() + n, v_.end(), 0);
  }
  void push_back(std::uint64_t value) {
    const std::size_t i = n_;
    set_size(i + 1);
    v_[i] = value;
  }

  // Zero padding makes whole-array comparison equal to element-wise
  // comparison of the first size() values, ranks compared like vectors.
  bool operator==(const Dims& other) const = default;
  std::strong_ordering operator<=>(const Dims& other) const {
    return std::lexicographical_compare_three_way(begin(), end(),
                                                  other.begin(), other.end());
  }

 private:
  void set_size(std::size_t n) {
    if (n > kMaxDims) [[unlikely]] dims_overflow(n);
    n_ = static_cast<std::uint8_t>(n);
  }

  std::array<std::uint64_t, kMaxDims> v_{};
  std::uint8_t n_ = 0;
};

// Half-open axis-aligned box: [lb[d], ub[d]) per dimension.
struct Box {
  Dims lb;
  Dims ub;

  Box() = default;
  Box(Dims lower, Dims upper);
  static Box whole(const Dims& global);

  int dims() const { return static_cast<int>(lb.size()); }
  std::uint64_t extent(int d) const {
    return ub[static_cast<std::size_t>(d)] - lb[static_cast<std::size_t>(d)];
  }
  std::uint64_t volume() const;
  bool empty() const { return volume() == 0; }
  bool contains(const Box& other) const;
  bool contains_point(const Dims& p) const;

  std::string to_string() const;
  bool operator==(const Box&) const = default;
};

std::optional<Box> intersect(const Box& a, const Box& b);

// The real libraries carried 32-bit dimension arithmetic for years (Table IV
// "data dimension overflow"); this checker reports when a global geometry
// would overflow it, so the compat mode of the libraries can reproduce the
// failure and the fixed mode can prove the 64-bit resolve.
Status check_dims_32bit(const Dims& global);

// --- Decompositions -------------------------------------------------------

// Splits `global` into `parts` equal blocks along dimension `dim`
// (remainder spread over the first blocks). parts must be <= extent.
std::vector<Box> decompose_1d(const Dims& global, int parts, int dim);

// Block `index` of decompose_1d(global, parts, dim), built on its own.
Box block_1d(const Dims& global, int parts, int dim, int index);

// Cartesian block grid: procs_per_dim[d] blocks along dimension d.
std::vector<Box> decompose_grid(const Dims& global,
                                const std::vector<int>& procs_per_dim);

// Index of the longest dimension (ties -> lowest index). DataSpaces cuts
// its staging regions along this dimension (§III-B4).
int longest_dim(const Dims& global);

// All (index, overlap) pairs of `boxes` that intersect `target`.
std::vector<std::pair<int, Box>> intersecting(const std::vector<Box>& boxes,
                                              const Box& target);

// --- Variables & slabs ----------------------------------------------------

inline constexpr std::uint64_t kElementBytes = sizeof(double);

// A named versioned global array (one entry per timestep).
struct VarDesc {
  std::string name;
  Dims global;
  int version = 0;

  std::uint64_t total_bytes() const;
  bool operator==(const VarDesc&) const = default;
};

// Deterministic content function for synthetic slabs.
double synthetic_value(std::uint64_t seed, const Dims& coord);

class Slab {
 public:
  // Writes the `len` elements of the row that starts at global coordinate
  // `row_start` (innermost dimension contiguous) to `out`.
  using RowWriter =
      std::function<void(const Dims& row_start, double* out, std::uint64_t len)>;

  Slab() = default;

  // Real content (row-major over box extents). data.size() must equal the
  // box volume.
  static Slab materialized(Box box, std::vector<double> data);

  // Content defined by synthetic_value(seed, global coordinate).
  static Slab synthetic(Box box, std::uint64_t seed);

  // Materialized zero-filled slab.
  static Slab zeros(Box box);

  // Materialized slab whose rows `write_row` writes, each exactly once, into
  // a buffer that is not zero-filled first.
  static Slab from_rows(Box box, const RowWriter& write_row);

  const Box& box() const { return box_; }
  bool is_materialized() const { return buf_ != nullptr; }
  std::uint64_t seed() const { return seed_; }
  std::uint64_t declared_bytes() const { return box_.volume() * kElementBytes; }

  // Element at a global coordinate (must lie inside the box).
  double at(const Dims& coord) const;
  void set(const Dims& coord, double value);  // materialized only

  // Copies the intersection of `src` into this slab (materialized target;
  // synthetic or materialized source). A materialized source covering the
  // whole target is shared, not copied.
  void fill_from(const Slab& src);

  // A slab covering `sub` (must be inside the box) with the same content:
  // a window onto the same buffer, or a synthetic slab of the same seed.
  Slab extract(const Box& sub) const;

  // A materialized slab with this slab's content (this slab itself when it
  // is already materialized).
  Slab materialize() const;

  // Order-independent content fingerprint over the slab: sum of
  // hash(coord) * value over all elements. Equal content <=> equal
  // checksum regardless of how the region was decomposed. For synthetic
  // slabs, computed analytically by sampling is wrong — so it walks all
  // elements; use only on test-sized slabs.
  double checksum() const;

 private:
  // A materialized slab's elements, shared by its copies and windows, laid
  // out row-major over `box`, in storage from the process-wide buffer pool
  // (DESIGN.md §18). Synthetic slabs, the many placeholders of the staging
  // servers among them, carry no buffer and so no second box.
  struct Buffer {
    Box box;
    std::unique_ptr<double[], buffer_pool::Deleter> data;
  };

  // Offset of `coord` in the buffer, whose row-major layout is buf_->box.
  std::uint64_t offset_of(const Dims& coord) const;
  // Writes this slab's `len` elements from `row_start` on to `out`.
  void read_row(const Dims& row_start, double* out, std::uint64_t len) const;
  // Gives this slab a private buffer laid out exactly over box_.
  void detach();

  Box box_;
  std::uint64_t seed_ = 0;
  std::shared_ptr<Buffer> buf_;  // null for a synthetic slab
};

// Largest read a staging method assembles into real bytes. Larger reads of
// the paper-scale runs stay synthetic.
inline constexpr std::uint64_t kAssembleCapElems = 1ull << 22;

// The slab a reader gets for `box` from the staged `pieces` that cover it,
// pieces applied in order (a later piece wins where two overlap):
//   * a box larger than kAssembleCapElems is synthetic(box,
//     pieces.front().seed()), the sampled model of the paper-scale runs;
//   * pieces that tile `box` (cover each element exactly once) and are all
//     synthetic with one seed give synthetic(box, seed), which has the same
//     content element for element;
//   * otherwise the box is materialized, zero where no piece covers it.
Slab assemble(const Box& box, const std::vector<Slab>& pieces);

}  // namespace imc::nda
