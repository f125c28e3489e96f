#include "apps/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace imc::apps {
namespace {

// The LAMMPS melt input's `neighbor 0.3 bin`: the Verlet list holds every
// pair within cutoff + skin of each other when it is built.
constexpr double kSkin = 0.3;
// Rebuild margin below skin / 2 (in sigma). Two atoms that each moved less
// than skin / 2 since the build changed their distance by less than the
// skin, so a pair left off the list is still outside the cutoff; the margin
// covers the rounding of the distance and displacement arithmetic.
constexpr double kRebuildMargin = 1e-9;

// Two doubles in one SSE2 register (GCC/Clang vector extensions), and the
// per-lane all-ones/all-zeros mask a comparison of two V2s yields.
using V2 = double __attribute__((vector_size(16)));
using M2 = std::int64_t __attribute__((vector_size(16)));

V2 splat(double v) { return V2{v, v}; }

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// The periodic fold `d > L/2 ? d - L : d < -L/2 ? d + L : d` as two
// selects: both candidates are computed and a mask picks one, so each lane
// gets the branchy fold's value bit for bit without a data-dependent jump.
V2 min_image(V2 d, V2 half, V2 side) {
  return d > half ? d - side : (d < -half ? d + side : d);
}

// Distance to the nearest periodic image along one axis, min(|d|, L - |d|)
// for |d| < L: the magnitude of min_image(d) in a few vector operations
// (the selects compile to maxpd/minpd), for the tests that need only how
// far apart two points are.
V2 nearest(V2 d, V2 side) {
  const V2 a = d > -d ? d : -d;
  const V2 b = side - a;
  return a < b ? a : b;
}

// Lane k of a comparison mask as 0 or 1.
int bit(M2 mask, int k) { return static_cast<int>(mask[k] & 1); }

// The scratch of one LjMelt::step(n) call, or of the constructor's single
// force pass. Holds the positions as structure-of-arrays (padded by one
// atom so the 2-wide loads of an odd tail stay in bounds), the Verlet list
// in CSR form (row i: the partners j > i within cutoff + skin, ascending)
// with the positions it was built at, and the in-cutoff pairs of the row
// being accumulated.
class ForcePass {
 public:
  ForcePass(int natoms, double side, double cutoff)
      : n_(natoms),
        half_(splat(0.5 * side)),
        side_(splat(side)),
        rc2_(cutoff * cutoff),
        rl2_((cutoff + kSkin) * (cutoff + kSkin)) {
    const auto padded = static_cast<std::size_t>(n_ + 1);
    for (auto* v : {&x_, &y_, &z_, &bx_, &by_, &bz_}) v->assign(padded, 0.0);
    for (auto* v : {&cdx_, &cdy_, &cdz_, &cr2_}) v->assign(padded, 0.0);
    cj_.assign(padded, 0);
    row_.assign(padded, 0);
  }

  // Zeroes `force` (3 doubles per atom, interleaved) and accumulates the
  // pair forces of `pos` into it; returns the potential energy. Every pair
  // i < j that the all-pairs loop did not skip (r^2 >= cutoff^2 or
  // r^2 == 0) contributes, in ascending (i, j) order.
  double run(const std::vector<double>& pos, std::vector<double>& force) {
    for (std::size_t a = 0; a < static_cast<std::size_t>(n_); ++a) {
      x_[a] = pos[3 * a];
      y_[a] = pos[3 * a + 1];
      z_[a] = pos[3 * a + 2];
    }
    if (!built_ || moved_past_skin()) build_list();
    std::fill(force.begin(), force.end(), 0.0);
    double potential = 0;
    for (int i = 0; i < n_; ++i) {
      potential = accumulate(i, scan(i), force.data(), potential);
    }
    return potential;
  }

 private:
  // Atom i in both lanes, with the box, held in registers for a row scan.
  struct Row {
    V2 x, y, z, half, side;
  };

  Row row(int i) const {
    const auto a = static_cast<std::size_t>(i);
    return Row{splat(x_[a]), splat(y_[a]), splat(z_[a]), half_, side_};
  }

  // Stage 1, list build: every pair i < j, two partners at a time. A
  // partner is kept unless its nearest-image distance is at least
  // cutoff + skin; the slot is written either way and only the row's end
  // moves, so there is no branch on the distance. Outside the box the
  // skin argument fails, so the list then holds every pair; the test's
  // form keeps NaN distances, which the all-pairs loop also visited.
  void build_list() {
    bx_ = x_;
    by_ = y_;
    bz_ = z_;
    built_ = true;
    const int n = n_;
    const V2 rl2 =
        splat(in_box() ? rl2_ : std::numeric_limits<double>::infinity());
    std::size_t end = 0;
    for (int i = 0; i < n; ++i) {
      row_[static_cast<std::size_t>(i)] = end;
      // Room for every partner plus the write of a masked tail lane.
      const std::size_t need = end + static_cast<std::size_t>(n - i) + 1;
      if (list_.size() < need) list_.resize(std::max(need, 2 * list_.size()));
      const Row r = row(i);
      for (int j = i + 1; j < n; j += 2) {
        const auto b = static_cast<std::size_t>(j);
        const V2 dx = nearest(r.x - load2(&x_[b]), r.side);
        const V2 dy = nearest(r.y - load2(&y_[b]), r.side);
        const V2 dz = nearest(r.z - load2(&z_[b]), r.side);
        const M2 near = ~(dx * dx + dy * dy + dz * dz >= rl2);
        list_[end] = j;
        end += static_cast<std::size_t>(bit(near, 0));
        list_[end] = j + 1;
        end += static_cast<std::size_t>(bit(near, 1) & (j + 1 < n ? 1 : 0));
      }
    }
    row_[static_cast<std::size_t>(n)] = end;
  }

  // Separations of atom i from two partners, one per lane.
  struct Pair2 {
    V2 dx, dy, dz, r2;
  };

  // Stage 1 for row i: the exact min-image separations of atom i from its
  // listed partners, two at a time, compacted into the row's in-cutoff
  // pairs. Returns the in-cutoff pair count.
  int scan(int i) {
    const std::size_t begin = row_[static_cast<std::size_t>(i)];
    const std::size_t end = row_[static_cast<std::size_t>(i) + 1];
    const Row r = row(i);
    const V2 rc2 = splat(rc2_), zero = splat(0.0);
    int count = 0;
    for (std::size_t k = begin; k < end; k += 2) {
      // Entry k + 1 may lie past the row; its value is still an atom index
      // or the padding atom, and its lane is masked off.
      const int j0 = list_[k], j1 = list_[k + 1];
      const auto a = static_cast<std::size_t>(j0);
      const auto b = static_cast<std::size_t>(j1);
      Pair2 p;
      p.dx = min_image(r.x - V2{x_[a], x_[b]}, r.half, r.side);
      p.dy = min_image(r.y - V2{y_[a], y_[b]}, r.half, r.side);
      p.dz = min_image(r.z - V2{z_[a], z_[b]}, r.half, r.side);
      p.r2 = p.dx * p.dx + p.dy * p.dy + p.dz * p.dz;
      // The complement of the all-pairs loop's skip test
      // `r2 >= rc2 || r2 == 0`, so NaN distances are kept as they were.
      const M2 cut = ~(p.r2 >= rc2) & (p.r2 != zero);
      count = compact(p, 0, j0, bit(cut, 0), count);
      count = compact(p, 1, j1, bit(cut, 1) & (k + 1 < end ? 1 : 0), count);
    }
    return count;
  }

  // Stage 2: writes lane k of `p` (partner j) into in-cutoff slot `count`
  // and returns the count advanced by `keep` (0 or 1). The slot is written
  // either way, so there is no branch on the distance.
  int compact(const Pair2& p, int k, int j, int keep, int count) {
    const auto c = static_cast<std::size_t>(count);
    cj_[c] = j;
    cdx_[c] = p.dx[k];
    cdy_[c] = p.dy[k];
    cdz_[c] = p.dz[k];
    cr2_[c] = p.r2[k];
    return count + keep;
  }

  // Stage 3: the scalar pair forces of row i in ascending j, added to
  // `force` and to the running `potential`, which is returned. Atom i's own
  // force is summed in registers: no other row touches it meanwhile, so the
  // additions happen in the same order as summing in place.
  double accumulate(int i, int pairs, double* force, double potential) const {
    const auto a = 3 * static_cast<std::size_t>(i);
    double fx = force[a], fy = force[a + 1], fz = force[a + 2];
    for (int c = 0; c < pairs; ++c) {
      const auto s = static_cast<std::size_t>(c);
      const auto b = 3 * static_cast<std::size_t>(cj_[s]);
      const double inv2 = 1.0 / cr2_[s];
      const double inv6 = inv2 * inv2 * inv2;
      const double f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
      potential += 4.0 * inv6 * (inv6 - 1.0);
      fx += f * cdx_[s];
      force[b] -= f * cdx_[s];
      fy += f * cdy_[s];
      force[b + 1] -= f * cdy_[s];
      fz += f * cdz_[s];
      force[b + 2] -= f * cdz_[s];
    }
    force[a] = fx;
    force[a + 1] = fy;
    force[a + 2] = fz;
    return potential;
  }

  // Whether any atom's nearest-image displacement since the list was built
  // reaches the rebuild trigger or is NaN (the padding atom never moves).
  bool moved_past_skin() const {
    const double trigger = 0.5 * kSkin - kRebuildMargin;
    const V2 limit = splat(trigger * trigger);
    M2 moved = {0, 0};
    for (std::size_t a = 0; a < static_cast<std::size_t>(n_); a += 2) {
      const V2 dx = nearest(load2(&x_[a]) - load2(&bx_[a]), side_);
      const V2 dy = nearest(load2(&y_[a]) - load2(&by_[a]), side_);
      const V2 dz = nearest(load2(&z_[a]) - load2(&bz_[a]), side_);
      moved |= ~(dx * dx + dy * dy + dz * dz <= limit);
    }
    return (moved[0] | moved[1]) != 0;
  }

  // Whether every coordinate lies in [0, L). The integrator's wrap keeps
  // them there unless an atom moves more than L in one step or the state
  // stops being finite; only inside the box is min_image the distance to
  // the nearest image that the skin argument needs.
  bool in_box() const {
    const V2 zero = splat(0.0);
    M2 out = {0, 0};
    for (std::size_t a = 0; a < static_cast<std::size_t>(n_); a += 2) {
      for (const auto* c : {&x_, &y_, &z_}) {
        const V2 v = load2(&(*c)[a]);
        out |= ~((v >= zero) & (v < side_));
      }
    }
    return (out[0] | out[1]) == 0;
  }

  int n_;
  V2 half_, side_;
  double rc2_, rl2_;
  std::vector<double> x_, y_, z_;     // current positions
  std::vector<double> bx_, by_, bz_;  // positions at the last list build
  std::vector<int> list_;
  std::vector<std::size_t> row_;      // row i of list_: [row_[i], row_[i+1])
  bool built_ = false;
  std::vector<int> cj_;                        // in-cutoff partners of a row
  std::vector<double> cdx_, cdy_, cdz_, cr2_;  // and their separations
};

}  // namespace

LjMelt::LjMelt(Params params) : params_(params) {
  // Build the largest FCC lattice with <= natoms atoms: 4 atoms per cell.
  int cells = 1;
  while (4 * (cells + 1) * (cells + 1) * (cells + 1) <=
         params_.natoms) {
    ++cells;
  }
  natoms_ = 4 * cells * cells * cells;
  side_ = std::cbrt(static_cast<double>(natoms_) / params_.density);
  const double a = side_ / cells;

  pos_.resize(static_cast<std::size_t>(3 * natoms_));
  vel_.resize(static_cast<std::size_t>(3 * natoms_));
  force_.resize(static_cast<std::size_t>(3 * natoms_));

  static constexpr double kBasis[4][3] = {
      {0.0, 0.0, 0.0}, {0.5, 0.5, 0.0}, {0.5, 0.0, 0.5}, {0.0, 0.5, 0.5}};
  int atom = 0;
  for (int i = 0; i < cells; ++i) {
    for (int j = 0; j < cells; ++j) {
      for (int k = 0; k < cells; ++k) {
        for (const auto& b : kBasis) {
          pos_[static_cast<std::size_t>(3 * atom + 0)] = (i + b[0]) * a;
          pos_[static_cast<std::size_t>(3 * atom + 1)] = (j + b[1]) * a;
          pos_[static_cast<std::size_t>(3 * atom + 2)] = (k + b[2]) * a;
          ++atom;
        }
      }
    }
  }

  // Maxwell-ish velocities at the target temperature, zero net momentum.
  Rng rng(params_.seed);
  double mean[3] = {0, 0, 0};
  for (int i = 0; i < natoms_; ++i) {
    for (int d = 0; d < 3; ++d) {
      const double v = rng.uniform(-1.0, 1.0);
      vel_[static_cast<std::size_t>(3 * i + d)] = v;
      mean[d] += v;
    }
  }
  for (int d = 0; d < 3; ++d) mean[d] /= natoms_;
  double ke = 0;
  for (int i = 0; i < natoms_; ++i) {
    for (int d = 0; d < 3; ++d) {
      auto& v = vel_[static_cast<std::size_t>(3 * i + d)];
      v -= mean[d];
      ke += v * v;
    }
  }
  const double current_t = ke / (3.0 * natoms_);
  const double scale = std::sqrt(params_.temperature / current_t);
  for (auto& v : vel_) v *= scale;

  potential_ = ForcePass(natoms_, side_, params_.cutoff).run(pos_, force_);
}

void LjMelt::step(int n) {
  const double dt = params_.dt;
  ForcePass pass(natoms_, side_, params_.cutoff);
  for (int it = 0; it < n; ++it) {
    for (int i = 0; i < 3 * natoms_; ++i) {
      vel_[static_cast<std::size_t>(i)] +=
          0.5 * dt * force_[static_cast<std::size_t>(i)];
      pos_[static_cast<std::size_t>(i)] +=
          dt * vel_[static_cast<std::size_t>(i)];
      // Wrap into the periodic box.
      auto& x = pos_[static_cast<std::size_t>(i)];
      if (x < 0) x += side_;
      if (x >= side_) x -= side_;
    }
    potential_ = pass.run(pos_, force_);
    for (int i = 0; i < 3 * natoms_; ++i) {
      vel_[static_cast<std::size_t>(i)] +=
          0.5 * dt * force_[static_cast<std::size_t>(i)];
    }
    ++steps_;
  }
}

double LjMelt::kinetic_energy() const {
  double ke = 0;
  for (double v : vel_) ke += v * v;
  return 0.5 * ke;
}

double LjMelt::potential_energy() const { return potential_; }

double LjMelt::temperature() const {
  return 2.0 * kinetic_energy() / (3.0 * natoms_);
}

JacobiLaplace::JacobiLaplace(Params params) : params_(params) {
  const std::size_t n =
      static_cast<std::size_t>(params_.nx) * static_cast<std::size_t>(params_.ny);
  grid_.assign(n, 0.0);
  next_.assign(n, 0.0);
  // Hot top edge (i == 0).
  for (int j = 0; j < params_.ny; ++j) {
    grid_[static_cast<std::size_t>(j)] = params_.hot_boundary;
    next_[static_cast<std::size_t>(j)] = params_.hot_boundary;
  }
}

double JacobiLaplace::sweep(int iters) {
  const int nx = params_.nx, ny = params_.ny;
  double max_delta = 0;
  for (int it = 0; it < iters; ++it) {
    max_delta = 0;
    for (int i = 1; i < nx - 1; ++i) {
      for (int j = 1; j < ny - 1; ++j) {
        const std::size_t idx = static_cast<std::size_t>(i * ny + j);
        const double v = 0.25 * (grid_[idx - 1] + grid_[idx + 1] +
                                 grid_[idx - static_cast<std::size_t>(ny)] +
                                 grid_[idx + static_cast<std::size_t>(ny)]);
        max_delta = std::max(max_delta, std::abs(v - grid_[idx]));
        next_[idx] = v;
      }
    }
    std::swap(grid_, next_);
    ++sweeps_;
  }
  return max_delta;
}

}  // namespace imc::apps
