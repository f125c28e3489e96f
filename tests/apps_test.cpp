#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "apps/analysis.h"
#include "apps/apps.h"
#include "apps/kernels.h"
#include "common/units.h"

namespace imc::apps {
namespace {

TEST(LjMelt, BuildsFccLattice) {
  LjMelt md(LjMelt::Params{.natoms = 256});
  EXPECT_EQ(md.natoms(), 256);  // 4 * 4^3
  EXPECT_GT(md.box_side(), 0);
  EXPECT_EQ(md.positions().size(), 3u * 256);
}

TEST(LjMelt, InitialTemperatureMatchesTarget) {
  LjMelt md(LjMelt::Params{.natoms = 256, .temperature = 3.0});
  EXPECT_NEAR(md.temperature(), 3.0, 1e-9);
}

TEST(LjMelt, EnergyApproximatelyConservedOverShortRun) {
  LjMelt md(LjMelt::Params{.natoms = 108});
  const double e0 = md.kinetic_energy() + md.potential_energy();
  md.step(50);
  const double e1 = md.kinetic_energy() + md.potential_energy();
  // Velocity Verlet with dt=0.005 at T=3: drift below a percent of |E|.
  EXPECT_NEAR(e1, e0, 0.02 * std::abs(e0));
}

TEST(LjMelt, AtomsActuallyMove) {
  LjMelt md(LjMelt::Params{.natoms = 108});
  const auto before = md.positions();
  md.step(20);
  double displacement = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    displacement += std::abs(md.positions()[i] - before[i]);
  }
  EXPECT_GT(displacement, 1e-3);
  EXPECT_EQ(md.steps_taken(), 20u);
}

TEST(LjMelt, DeterministicForSameSeed) {
  LjMelt a(LjMelt::Params{.natoms = 108, .seed = 5});
  LjMelt b(LjMelt::Params{.natoms = 108, .seed = 5});
  a.step(10);
  b.step(10);
  EXPECT_EQ(a.positions(), b.positions());
}

// The all-pairs Lennard-Jones kernel LjMelt started from, copied verbatim:
// every pair i < j is visited with a branchy min-image fold. LjMelt's
// Verlet-list pass must reproduce its trajectory bit for bit.
class AllPairsLjMelt {
 public:
  explicit AllPairsLjMelt(LjMelt::Params params) : params_(params) {
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

    compute_forces();
  }

  void step(int n) {
    const double dt = params_.dt;
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
      compute_forces();
      for (int i = 0; i < 3 * natoms_; ++i) {
        vel_[static_cast<std::size_t>(i)] +=
            0.5 * dt * force_[static_cast<std::size_t>(i)];
      }
      ++steps_;
    }
  }

  const std::vector<double>& positions() const { return pos_; }
  const std::vector<double>& velocities() const { return vel_; }
  double potential_energy() const { return potential_; }

 private:
  double min_image(double d) const {
    if (d > 0.5 * side_) return d - side_;
    if (d < -0.5 * side_) return d + side_;
    return d;
  }

  void compute_forces() {
    std::fill(force_.begin(), force_.end(), 0.0);
    potential_ = 0;
    const double rc2 = params_.cutoff * params_.cutoff;
    for (int i = 0; i < natoms_; ++i) {
      for (int j = i + 1; j < natoms_; ++j) {
        double d[3], r2 = 0;
        for (int k = 0; k < 3; ++k) {
          d[k] = min_image(pos_[static_cast<std::size_t>(3 * i + k)] -
                           pos_[static_cast<std::size_t>(3 * j + k)]);
          r2 += d[k] * d[k];
        }
        if (r2 >= rc2 || r2 == 0) continue;
        const double inv2 = 1.0 / r2;
        const double inv6 = inv2 * inv2 * inv2;
        const double f = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
        potential_ += 4.0 * inv6 * (inv6 - 1.0);
        for (int k = 0; k < 3; ++k) {
          force_[static_cast<std::size_t>(3 * i + k)] += f * d[k];
          force_[static_cast<std::size_t>(3 * j + k)] -= f * d[k];
        }
      }
    }
  }

  LjMelt::Params params_;
  int natoms_;
  double side_;
  std::vector<double> pos_, vel_, force_;
  double potential_ = 0;
  std::uint64_t steps_ = 0;
};

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_state(const LjMelt& md, const AllPairsLjMelt& ref,
                       const std::string& where) {
  EXPECT_TRUE(same_bytes(md.positions(), ref.positions())) << where;
  EXPECT_TRUE(same_bytes(md.velocities(), ref.velocities())) << where;
  const double a = md.potential_energy(), b = ref.potential_energy();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << where;
}

// Steps both kernels through chunks of `chunks` steps each and compares
// their states bytewise after construction and after every chunk.
void expect_parity(LjMelt::Params params, std::initializer_list<int> chunks) {
  LjMelt md(params);
  AllPairsLjMelt ref(params);
  const std::string tag = "natoms=" + std::to_string(params.natoms) +
                          " seed=" + std::to_string(params.seed);
  expect_same_state(md, ref, tag + " initial");
  for (int chunk : chunks) {
    md.step(chunk);
    ref.step(chunk);
    expect_same_state(md, ref, tag + " after step(" + std::to_string(chunk) +
                                   ")");
  }
}

// Lattice sizes from one cell (every pair inside the cutoff) to boxes much
// wider than the cutoff; the 40-step chunk rebuilds the Verlet list within
// one step(n) call.
TEST(LjMeltParity, MatchesAllPairsReferenceAcrossLatticeSizes) {
  for (int natoms : {4, 32, 108, 256, 500, 864}) {
    expect_parity(LjMelt::Params{.natoms = natoms, .seed = 7}, {1, 5, 40});
  }
}

// Every seed a world of up to 64 ranks gives its 256-atom kernels (the
// workflow seeds rank r with 7 + r), at the workflow's step(5) cadence.
TEST(LjMeltParity, MatchesAllPairsReferenceForEveryWorldSeed) {
  for (std::uint64_t seed = 7; seed <= 70; ++seed) {
    expect_parity(LjMelt::Params{.natoms = 256, .seed = seed}, {1, 5, 5});
  }
}

// A lattice packed so densely that the first force pass overflows: forces,
// then positions, turn infinite and NaN. The all-pairs loop visited every
// pair whose distance is NaN; the list must visit the same ones.
TEST(LjMeltParity, MatchesAllPairsReferenceOnceTheStateIsNotFinite) {
  const LjMelt::Params params{.natoms = 32, .density = 1e70, .seed = 7};
  expect_parity(params, {1, 5});
  LjMelt md(params);
  md.step(6);
  EXPECT_TRUE(std::any_of(md.positions().begin(), md.positions().end(),
                          [](double x) { return std::isnan(x); }));
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// The state after step(15), pinned to the hash the all-pairs kernel gave.
TEST(LjMeltParity, PinnedStateHashAfterFifteenSteps) {
  LjMelt md(LjMelt::Params{.natoms = 256, .seed = 7});
  md.step(15);
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(md.positions().data(), md.positions().size() * sizeof(double), h);
  h = fnv1a(md.velocities().data(), md.velocities().size() * sizeof(double),
            h);
  const double potential = md.potential_energy();
  h = fnv1a(&potential, sizeof potential, h);
  EXPECT_EQ(h, 0x44ccb7b780d16b04ull);
}

TEST(Jacobi, HotBoundaryDiffusesInward) {
  JacobiLaplace solver(JacobiLaplace::Params{32, 32, 100.0});
  EXPECT_DOUBLE_EQ(solver.at(0, 5), 100.0);
  EXPECT_DOUBLE_EQ(solver.at(5, 5), 0.0);
  solver.sweep(100);
  EXPECT_GT(solver.at(5, 16), 0.0);
  EXPECT_LT(solver.at(5, 16), 100.0);
  // Monotone in distance from the hot edge.
  EXPECT_GT(solver.at(1, 16), solver.at(10, 16));
}

TEST(Jacobi, ResidualDecreases) {
  JacobiLaplace solver(JacobiLaplace::Params{24, 24, 100.0});
  const double early = solver.sweep(5);
  double late = 0;
  for (int i = 0; i < 40; ++i) late = solver.sweep(5);
  EXPECT_LT(late, early);
}

TEST(Jacobi, InteriorSatisfiesDiscreteLaplaceAfterConvergence) {
  JacobiLaplace solver(JacobiLaplace::Params{16, 16, 100.0});
  solver.sweep(4000);
  for (int i = 2; i < 14; ++i) {
    for (int j = 2; j < 14; ++j) {
      const double expected = 0.25 * (solver.at(i - 1, j) + solver.at(i + 1, j) +
                                      solver.at(i, j - 1) + solver.at(i, j + 1));
      EXPECT_NEAR(solver.at(i, j), expected, 1e-6);
    }
  }
}

TEST(Msd, ZeroWhenNothingMoved) {
  nda::Box box({0, 0, 0}, {5, 2, 100});
  nda::Slab a = nda::Slab::synthetic(box, 7);
  EXPECT_DOUBLE_EQ(mean_squared_displacement(a, a), 0.0);
}

TEST(Msd, PositiveForDisplacedParticles) {
  nda::Box box({0, 0, 0}, {5, 2, 100});
  nda::Slab ref = nda::Slab::zeros(box);
  nda::Slab cur = nda::Slab::zeros(box);
  // Shift every particle by (1, 2, 2): MSD = 1 + 4 + 4 = 9.
  for (std::uint64_t p = 0; p < 2; ++p) {
    for (std::uint64_t atom = 0; atom < 100; ++atom) {
      cur.set({0, p, atom}, 1.0);
      cur.set({1, p, atom}, 2.0);
      cur.set({2, p, atom}, 2.0);
    }
  }
  EXPECT_DOUBLE_EQ(mean_squared_displacement(ref, cur), 9.0);
}

TEST(Mta, MomentsOfConstantFieldAreZero) {
  nda::Slab field = nda::Slab::zeros(nda::Box({0, 0}, {32, 32}));
  auto moments = moment_analysis(field, 4);
  ASSERT_EQ(moments.size(), 3u);
  for (double m : moments) EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(Mta, SecondMomentIsVariance) {
  // Two-valued field: half 0, half 2 -> variance 1.
  nda::Slab field = nda::Slab::zeros(nda::Box({0, 0}, {2, 1000}));
  for (std::uint64_t j = 0; j < 1000; ++j) field.set({1, j}, 2.0);
  auto moments = moment_analysis(field, 2, 100000);
  ASSERT_EQ(moments.size(), 1u);
  EXPECT_NEAR(moments[0], 1.0, 0.05);  // sampled
}

TEST(LammpsSim, PaperGeometry) {
  LammpsSim sim(LammpsSim::Params{.rank = 3, .nprocs = 32});
  const auto var = sim.output_desc(2);
  EXPECT_EQ(var.global, (nda::Dims{5, 32, 512000}));
  EXPECT_EQ(var.version, 2);
  EXPECT_EQ(sim.my_box(), nda::Box({0, 3, 0}, {5, 4, 512000}));
  // 20 MB per rank (Table II / Fig. 2 caption).
  EXPECT_NEAR(static_cast<double>(sim.my_box().volume() * 8), 20.48e6, 1e4);
}

TEST(LammpsSim, SmallOutputMaterializedFromKernel) {
  LammpsSim sim(LammpsSim::Params{
      .rank = 0, .nprocs = 2, .atoms_per_proc = 1000, .kernel_atoms = 108});
  sim.advance();
  auto slab = sim.output(0);
  ASSERT_TRUE(slab.is_materialized());
  // Property 0 is x: must match a kernel position.
  EXPECT_DOUBLE_EQ(slab.at({0, 0, 0}), sim.kernel().positions()[0]);
}

TEST(LammpsSim, LargeOutputIsSynthetic) {
  LammpsSim sim(LammpsSim::Params{.rank = 0, .nprocs = 2});
  EXPECT_FALSE(sim.output(0).is_materialized());
}

TEST(LaplaceSim, PaperGeometry) {
  LaplaceSim sim(LaplaceSim::Params{.rank = 1, .nprocs = 64});
  EXPECT_EQ(sim.output_desc(0).global, (nda::Dims{4096, 64ull * 4096}));
  EXPECT_EQ(sim.my_box(), nda::Box({0, 4096}, {4096, 8192}));
  // 128 MB per rank.
  EXPECT_EQ(sim.my_box().volume() * 8, 4096ull * 4096 * 8);
}

TEST(LaplaceSim, ComputeScalesWithProblemSize) {
  LaplaceSim big(LaplaceSim::Params{.rank = 0, .nprocs = 1});
  LaplaceSim small(LaplaceSim::Params{
      .rank = 0, .nprocs = 1, .rows = 2048, .cols_per_proc = 2048});
  EXPECT_NEAR(big.titan_seconds_per_step() / small.titan_seconds_per_step(),
              4.0, 0.2);
}

TEST(SyntheticWriter, MismatchedLayoutSplitsDimensionOne) {
  SyntheticWriter w(SyntheticWriter::Params{.rank = 2, .nprocs = 8});
  const auto box = w.my_box();
  EXPECT_EQ(box.lb[1], 2u);
  EXPECT_EQ(box.ub[1], 3u);
  EXPECT_EQ(box.extent(0), 5u);
  // DataSpaces would split dimension 2 (the longest) — the mismatch.
  EXPECT_EQ(nda::longest_dim(w.output_desc(0).global), 2);
}

TEST(SyntheticWriter, MatchedLayoutSplitsLongestDimension) {
  SyntheticWriter w(SyntheticWriter::Params{
      .rank = 2, .nprocs = 8, .match_staging_layout = true});
  const auto box = w.my_box();
  const auto global = w.output_desc(0).global;
  EXPECT_EQ(nda::longest_dim(global), 2);
  EXPECT_GT(box.lb[2], 0u);               // rank 2 owns a dim-2 slice
  EXPECT_EQ(box.extent(0), global[0]);    // full other dims
  EXPECT_EQ(box.extent(1), global[1]);
}

// Visits every coordinate of `box` in row-major order.
template <typename F>
void for_each_coord(const nda::Box& box, F&& visit) {
  nda::Dims coord = box.lb;
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

// The row-kernel outputs must equal each app's per-element definition, and
// their checksums stay pinned to the values the per-element loops produced.
TEST(AppOutput, LaplaceRowsMatchPerElementDefinition) {
  struct Case {
    int rank, nprocs;
    std::uint64_t rows, cols;
    int kernel_n;
    double checksum;
  };
  for (const Case& c : {Case{0, 2, 64, 96, 8, 0x1.c100b6e10b3p+39},
                        Case{3, 4, 50, 77, 12, 0x1.db898eb8df4p+38}}) {
    LaplaceSim sim(LaplaceSim::Params{.rank = c.rank,
                                      .nprocs = c.nprocs,
                                      .rows = c.rows,
                                      .cols_per_proc = c.cols,
                                      .kernel_n = c.kernel_n});
    sim.advance();
    const nda::Slab out = sim.output(0);
    ASSERT_TRUE(out.is_materialized());
    const auto kn = static_cast<std::uint64_t>(c.kernel_n);
    int mismatches = 0;
    for_each_coord(out.box(), [&](const nda::Dims& x) {
      const double want = sim.kernel().at(static_cast<int>(x[0] % kn),
                                          static_cast<int>(x[1] % kn));
      if (out.at(x) != want) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0) << "rank " << c.rank;
    EXPECT_EQ(out.checksum(), c.checksum) << "rank " << c.rank;
  }
}

TEST(AppOutput, LammpsRowsMatchPerElementDefinition) {
  struct Case {
    int rank, nprocs;
    std::uint64_t atoms;
    int kernel_atoms;
    double checksum;
  };
  for (const Case& c : {Case{0, 2, 1000, 32, 0x1.3443af016b32ap+35},
                        Case{5, 8, 777, 108, 0x1.58c9b4ad600dfp+35}}) {
    LammpsSim sim(LammpsSim::Params{.rank = c.rank,
                                    .nprocs = c.nprocs,
                                    .atoms_per_proc = c.atoms,
                                    .kernel_atoms = c.kernel_atoms});
    sim.advance();
    const nda::Slab out = sim.output(0);
    ASSERT_TRUE(out.is_materialized());
    const auto n = static_cast<std::uint64_t>(sim.kernel().natoms());
    const auto& pos = sim.kernel().positions();
    const auto& vel = sim.kernel().velocities();
    int mismatches = 0;
    for_each_coord(out.box(), [&](const nda::Dims& x) {
      const std::uint64_t k = x[2] % n;
      const double want = x[0] < 3 ? pos[3 * k + x[0]] : vel[3 * k + x[0] - 3];
      if (out.at(x) != want) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0) << "rank " << c.rank;
    EXPECT_EQ(out.checksum(), c.checksum) << "rank " << c.rank;
  }
}

TEST(AppOutput, SyntheticWriterRowsMatchPerElementDefinition) {
  struct Case {
    int rank, nprocs;
    bool matched;
    std::uint64_t elements;
    double checksum;
  };
  for (const Case& c : {Case{1, 3, false, 5000, 0x1.2a6b390279992p+28},
                        Case{2, 4, true, 15360, -0x1.61a0e8d664a5ap+26}}) {
    SyntheticWriter w(SyntheticWriter::Params{.rank = c.rank,
                                              .nprocs = c.nprocs,
                                              .match_staging_layout = c.matched,
                                              .elements_per_proc = c.elements});
    const nda::Slab out = w.output(0);
    ASSERT_TRUE(out.is_materialized());
    int mismatches = 0;
    for_each_coord(out.box(), [&](const nda::Dims& x) {
      if (out.at(x) != nda::synthetic_value(23, x)) ++mismatches;
    });
    EXPECT_EQ(mismatches, 0) << "rank " << c.rank;
    EXPECT_EQ(out.checksum(), c.checksum) << "rank " << c.rank;
  }
}

}  // namespace
}  // namespace imc::apps
