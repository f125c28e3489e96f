#include "ndarray/ndarray.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>

namespace imc::nda {

void dims_overflow(std::size_t rank) {
  throw std::length_error("nda::Dims: rank " + std::to_string(rank) +
                          " exceeds the capacity of " +
                          std::to_string(kMaxDims));
}

Status check_rank(std::size_t rank, const std::string& what) {
  if (rank <= kMaxDims) return Status::ok();
  return make_error(ErrorCode::kInvalidArgument,
                    what + " has " + std::to_string(rank) +
                        " dimensions; at most " + std::to_string(kMaxDims) +
                        " are supported");
}

Box::Box(Dims lower, Dims upper) : lb(std::move(lower)), ub(std::move(upper)) {
  assert(lb.size() == ub.size());
  for (std::size_t d = 0; d < lb.size(); ++d) assert(lb[d] <= ub[d]);
}

Box Box::whole(const Dims& global) {
  return Box(Dims(global.size(), 0), global);
}

std::uint64_t Box::volume() const {
  std::uint64_t v = 1;
  for (std::size_t d = 0; d < lb.size(); ++d) v *= ub[d] - lb[d];
  return lb.empty() ? 0 : v;
}

bool Box::contains(const Box& other) const {
  if (other.dims() != dims()) return false;
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (other.lb[d] < lb[d] || other.ub[d] > ub[d]) return false;
  }
  return true;
}

bool Box::contains_point(const Dims& p) const {
  if (p.size() != lb.size()) return false;
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (p[d] < lb[d] || p[d] >= ub[d]) return false;
  }
  return true;
}

std::string Box::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t d = 0; d < lb.size(); ++d) {
    if (d != 0) os << ", ";
    os << lb[d] << ".." << ub[d];
  }
  os << ")";
  return os.str();
}

std::optional<Box> intersect(const Box& a, const Box& b) {
  if (a.dims() != b.dims()) return std::nullopt;
  Box out;
  out.lb.resize(a.lb.size());
  out.ub.resize(a.ub.size());
  for (std::size_t d = 0; d < a.lb.size(); ++d) {
    out.lb[d] = std::max(a.lb[d], b.lb[d]);
    out.ub[d] = std::min(a.ub[d], b.ub[d]);
    if (out.lb[d] >= out.ub[d]) return std::nullopt;
  }
  return out;
}

Status check_dims_32bit(const Dims& global) {
  constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t volume = 1;
  for (std::uint64_t extent : global) {
    if (extent > kMax32) {
      return make_error(ErrorCode::kDimensionOverflow,
                        "dimension extent " + std::to_string(extent) +
                            " exceeds 32-bit range");
    }
    // The libraries also computed element counts in 32-bit.
    if (extent != 0 && volume > kMax32 / extent) {
      return make_error(ErrorCode::kDimensionOverflow,
                        "element count overflows 32-bit arithmetic");
    }
    volume *= extent;
  }
  return Status::ok();
}

Box block_1d(const Dims& global, int parts, int dim, int index) {
  assert(parts >= 1);
  assert(dim >= 0 && dim < static_cast<int>(global.size()));
  assert(index >= 0 && index < parts);
  const auto d = static_cast<std::size_t>(dim);
  const auto n = static_cast<std::uint64_t>(parts);
  const auto i = static_cast<std::uint64_t>(index);
  assert(n <= global[d]);
  // The first `rem` blocks are one element longer than the rest.
  const std::uint64_t base = global[d] / n;
  const std::uint64_t rem = global[d] % n;
  Box box = Box::whole(global);
  box.lb[d] = i * base + std::min(i, rem);
  box.ub[d] = box.lb[d] + base + (i < rem ? 1 : 0);
  return box;
}

std::vector<Box> decompose_1d(const Dims& global, int parts, int dim) {
  std::vector<Box> out;
  out.reserve(static_cast<std::size_t>(parts));
  for (int p = 0; p < parts; ++p) out.push_back(block_1d(global, parts, dim, p));
  return out;
}

std::vector<Box> decompose_grid(const Dims& global,
                                const std::vector<int>& procs_per_dim) {
  assert(procs_per_dim.size() == global.size());
  // Per-dimension cut points via decompose_1d on each axis.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> cuts(
      global.size());
  for (std::size_t d = 0; d < global.size(); ++d) {
    auto blocks = decompose_1d(global, procs_per_dim[d], static_cast<int>(d));
    for (const auto& b : blocks) cuts[d].push_back({b.lb[d], b.ub[d]});
  }
  // Cartesian product, last dimension fastest (row-major rank order).
  std::vector<Box> out;
  std::size_t total = 1;
  for (int p : procs_per_dim) total *= static_cast<std::size_t>(p);
  out.reserve(total);
  std::vector<std::size_t> idx(global.size(), 0);
  for (std::size_t i = 0; i < total; ++i) {
    Box box;
    box.lb.resize(global.size());
    box.ub.resize(global.size());
    for (std::size_t d = 0; d < global.size(); ++d) {
      box.lb[d] = cuts[d][idx[d]].first;
      box.ub[d] = cuts[d][idx[d]].second;
    }
    out.push_back(std::move(box));
    for (std::size_t d = global.size(); d-- > 0;) {
      if (++idx[d] < cuts[d].size()) break;
      idx[d] = 0;
    }
  }
  return out;
}

int longest_dim(const Dims& global) {
  int best = 0;
  for (std::size_t d = 1; d < global.size(); ++d) {
    if (global[d] > global[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(d);
    }
  }
  return best;
}

std::vector<std::pair<int, Box>> intersecting(const std::vector<Box>& boxes,
                                              const Box& target) {
  std::vector<std::pair<int, Box>> out;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    if (auto overlap = intersect(boxes[i], target)) {
      out.emplace_back(static_cast<int>(i), std::move(*overlap));
    }
  }
  return out;
}

std::uint64_t VarDesc::total_bytes() const {
  std::uint64_t v = global.empty() ? 0 : 1;
  for (std::uint64_t e : global) v *= e;
  return v * kElementBytes;
}

namespace {

// Maps a chained hash to synthetic_value's (-1, 1) range.
double unit_from_hash(std::uint64_t h) {
  // Map to (-1, 1) with full mantissa use.
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

// Advances all but the innermost dimension of `coord` through `within`
// (row-major: the innermost dimension is the contiguous run the bulk
// kernels below copy in one go). Returns false once every row is visited.
bool next_row(Dims& coord, const Box& within) {
  std::size_t d = coord.size() - 1;
  while (d-- > 0) {
    if (++coord[d] < within.ub[d]) return true;
    coord[d] = within.lb[d];
  }
  return false;
}

// Hash prefix over the outer coordinates: synthetic_value / checksum chain
// their per-coordinate hashes left to right, so one prefix per row covers
// everything but the innermost coordinate.
std::uint64_t row_prefix(std::uint64_t h, const Dims& coord) {
  for (std::size_t d = 0; d + 1 < coord.size(); ++d) {
    h = splitmix64(h ^ coord[d]);
  }
  return h;
}

}  // namespace

double synthetic_value(std::uint64_t seed, const Dims& coord) {
  std::uint64_t h = splitmix64(seed);
  for (std::uint64_t c : coord) h = splitmix64(h ^ c);
  return unit_from_hash(h);
}

Slab Slab::materialized(Box box, std::vector<double> data) {
  assert(data.size() == box.volume());
  return from_rows(std::move(box),
                   [&data, off = std::size_t{0}](const Dims&, double* out,
                                                 std::uint64_t len) mutable {
                     std::copy_n(data.data() + off, len, out);
                     off += len;
                   });
}

Slab Slab::synthetic(Box box, std::uint64_t seed) {
  Slab s;
  s.box_ = std::move(box);
  s.seed_ = seed;
  return s;
}

Slab Slab::zeros(Box box) {
  return from_rows(std::move(box), [](const Dims&, double* out,
                                      std::uint64_t len) {
    std::fill_n(out, len, 0.0);
  });
}

Slab Slab::from_rows(Box box, const RowWriter& write_row) {
  Slab s;
  if (box.volume() > std::numeric_limits<std::size_t>::max() / kElementBytes) {
    throw std::bad_array_new_length();
  }
  const std::size_t bytes = box.volume() * kElementBytes;
  s.buf_ = std::make_shared<Buffer>(
      Buffer{box,
             {static_cast<double*>(buffer_pool::allocate(bytes)),
              buffer_pool::Deleter{bytes}}});
  s.box_ = std::move(box);
  if (s.box_.volume() == 0) return s;
  const std::uint64_t row_len = s.box_.extent(s.box_.dims() - 1);
  Dims coord = s.box_.lb;
  double* out = s.buf_->data.get();
  do {
    write_row(coord, out, row_len);
    out += row_len;
  } while (next_row(coord, s.box_));
  return s;
}

std::uint64_t Slab::offset_of(const Dims& coord) const {
  std::uint64_t off = 0;
  for (std::size_t d = 0; d < coord.size(); ++d) {
    assert(coord[d] >= box_.lb[d] && coord[d] < box_.ub[d]);
    off = off * buf_->box.extent(static_cast<int>(d)) +
          (coord[d] - buf_->box.lb[d]);
  }
  return off;
}

void Slab::read_row(const Dims& row_start, double* out,
                    std::uint64_t len) const {
  if (buf_) {
    std::copy_n(buf_->data.get() + offset_of(row_start), len, out);
    return;
  }
  // One hash prefix per row, finished per element.
  const std::uint64_t prefix = row_prefix(splitmix64(seed_), row_start);
  const std::uint64_t c0 = row_start.back();
  for (std::uint64_t i = 0; i < len; ++i) {
    out[i] = unit_from_hash(splitmix64(prefix ^ (c0 + i)));
  }
}

void Slab::detach() {
  assert(buf_);
  if (buf_.use_count() == 1 && box_ == buf_->box) return;
  *this = from_rows(box_, [this](const Dims& c, double* out,
                                 std::uint64_t len) { read_row(c, out, len); });
}

double Slab::at(const Dims& coord) const {
  if (!buf_) return synthetic_value(seed_, coord);
  return buf_->data[offset_of(coord)];
}

void Slab::set(const Dims& coord, double value) {
  detach();
  buf_->data[offset_of(coord)] = value;
}

void Slab::fill_from(const Slab& src) {
  assert(buf_);
  auto overlap = intersect(box_, src.box());
  if (!overlap) return;
  if (src.buf_ && *overlap == box_) {
    // The source covers this whole slab: share its buffer.
    *this = src.extract(box_);
    return;
  }
  detach();
  const std::uint64_t row_len = overlap->extent(overlap->dims() - 1);
  Dims coord = overlap->lb;
  do {
    src.read_row(coord, buf_->data.get() + offset_of(coord), row_len);
  } while (next_row(coord, *overlap));
}

Slab Slab::extract(const Box& sub) const {
  assert(box_.contains(sub));
  if (!buf_) return synthetic(sub, seed_);
  Slab window = *this;
  window.box_ = sub;
  return window;
}

Slab Slab::materialize() const {
  if (buf_) return *this;
  return from_rows(box_, [this](const Dims& c, double* out,
                                std::uint64_t len) { read_row(c, out, len); });
}

double Slab::checksum() const {
  double sum = 0;
  if (box_.volume() == 0) return sum;
  const std::size_t nd = box_.lb.size();
  const std::uint64_t row_len = box_.extent(static_cast<int>(nd) - 1);
  const std::uint64_t c0 = box_.lb[nd - 1];
  Dims coord = box_.lb;
  // Row-major accumulation in the exact per-element formula (coordinate
  // hash times value), so the sum stays bit-identical across rewrites.
  do {
    const std::uint64_t hash_prefix = row_prefix(0x9e3779b9, coord);
    const std::uint64_t value_prefix =
        buf_ ? 0 : row_prefix(splitmix64(seed_), coord);
    const double* row = buf_ ? buf_->data.get() + offset_of(coord) : nullptr;
    for (std::uint64_t i = 0; i < row_len; ++i) {
      const std::uint64_t c = c0 + i;
      const double value =
          row != nullptr ? row[i]
                         : unit_from_hash(splitmix64(value_prefix ^ c));
      sum += static_cast<double>(splitmix64(hash_prefix ^ c) >> 40) * value;
    }
  } while (next_row(coord, box_));
  return sum;
}

namespace {

// intersect(a, b).has_value() without building the overlap box: tiles()
// runs it for every pair of pieces.
bool overlaps(const Box& a, const Box& b) {
  for (std::size_t d = 0; d < a.lb.size(); ++d) {
    if (a.ub[d] <= b.lb[d] || b.ub[d] <= a.lb[d]) return false;
  }
  return true;
}

// True when the parts of `pieces` inside `box` cover each of its elements
// exactly once.
bool tiles(const Box& box, const std::vector<Slab>& pieces) {
  std::vector<Box> parts;
  std::uint64_t covered = 0;
  for (const Slab& piece : pieces) {
    if (auto part = intersect(piece.box(), box)) {
      covered += part->volume();
      parts.push_back(std::move(*part));
    }
  }
  if (covered != box.volume()) return false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i + 1; j < parts.size(); ++j) {
      if (overlaps(parts[i], parts[j])) return false;
    }
  }
  return true;
}

}  // namespace

Slab assemble(const Box& box, const std::vector<Slab>& pieces) {
  const std::uint64_t seed = pieces.empty() ? 0 : pieces.front().seed();
  if (box.volume() > kAssembleCapElems) return Slab::synthetic(box, seed);
  const bool tiled = tiles(box, pieces);
  const bool one_definition =
      !pieces.empty() &&
      std::all_of(pieces.begin(), pieces.end(), [seed](const Slab& p) {
        return !p.is_materialized() && p.seed() == seed;
      });
  if (tiled && one_definition) return Slab::synthetic(box, seed);
  // Rows no piece covers must read as zero; a tiling overwrites them all.
  Slab out = tiled ? Slab::from_rows(box, [](const Dims&, double*,
                                             std::uint64_t) {})
                   : Slab::zeros(box);
  for (const Slab& piece : pieces) out.fill_from(piece);
  return out;
}

}  // namespace imc::nda
