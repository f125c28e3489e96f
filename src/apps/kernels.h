// Real numerical kernels backing the two scientific workflows.
//
// The paper's workflows are LAMMPS (Lennard-Jones melt) + MSD and a Laplace
// solver + moment turbulence analysis (Table II). The staging study needs
// their *output geometry* and *compute cadence*; correctness tests and the
// examples additionally exercise these real kernels end to end (melting
// actually raises the temperature; Jacobi actually converges), on
// container-sized problem instances.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace imc::apps {

// Velocity-Verlet Lennard-Jones molecular dynamics in a cubic periodic box
// (the "melt" benchmark: an FCC solid initialized hot enough to liquefy).
//
// Each force pass visits the pairs i < j whose min-image distance is inside
// the cutoff, in ascending (i, j) order, with a fixed sequence of IEEE
// operations: the trajectory is a pure function of Params, bit for bit.
// Within one step(n) call the pass reads those pairs from a Verlet list
// (cutoff + 0.3 sigma skin) that lives only for that call; see DESIGN.md §8.
class LjMelt {
 public:
  struct Params {
    int natoms = 256;        // rounded down to a full FCC lattice
    double density = 0.8442; // LJ reduced units (the LAMMPS melt input)
    double temperature = 3.0;
    double dt = 0.005;
    double cutoff = 2.5;
    std::uint64_t seed = 1;
  };

  explicit LjMelt(Params params);

  void step(int n = 1);

  int natoms() const { return natoms_; }
  double box_side() const { return side_; }
  // Positions/velocities: 3 doubles per atom (x, y, z interleaved).
  const std::vector<double>& positions() const { return pos_; }
  const std::vector<double>& velocities() const { return vel_; }

  double kinetic_energy() const;
  double potential_energy() const;
  double temperature() const;
  std::uint64_t steps_taken() const { return steps_; }

 private:
  Params params_;
  int natoms_;
  double side_;
  std::vector<double> pos_, vel_, force_;
  double potential_ = 0;
  std::uint64_t steps_ = 0;
};

// Jacobi iteration for Laplace's equation on a rectangle with Dirichlet
// boundaries (u = 100 on the top edge, 0 elsewhere — the classic
// laplace_mpi problem the paper cites).
class JacobiLaplace {
 public:
  struct Params {
    int nx = 64;
    int ny = 64;
    double hot_boundary = 100.0;
  };

  explicit JacobiLaplace(Params params);

  // Runs `iters` sweeps; returns the max-abs update of the last sweep.
  double sweep(int iters = 1);

  int nx() const { return params_.nx; }
  int ny() const { return params_.ny; }
  double at(int i, int j) const {
    return grid_[static_cast<std::size_t>(i * params_.ny + j)];
  }
  const std::vector<double>& grid() const { return grid_; }
  std::uint64_t sweeps_taken() const { return sweeps_; }

 private:
  Params params_;
  std::vector<double> grid_, next_;
  std::uint64_t sweeps_ = 0;
};

}  // namespace imc::apps
