#include "apps/apps.h"

#include <algorithm>
#include <cassert>

namespace imc::apps {
namespace {

// Calibrated Titan-reference compute costs (see apps.h header comment).
constexpr double kLammpsSecondsPerStep = 2.0;
constexpr double kLaplaceSecondsPerStepAt4096 = 8.0;
constexpr double kMsdSecondsPerMiB = 0.02;   // ~0.8 s over two 20 MB slabs
constexpr double kMtaSecondsPerMiB = 0.016;  // ~4 s over two 128 MB slabs

}  // namespace

// ------------------------------------------------------------- LAMMPS -----

LammpsSim::LammpsSim(Params params)
    : params_(params),
      kernel_(LjMelt::Params{params.kernel_atoms, 0.8442, 3.0, 0.005, 2.5,
                             params.seed + static_cast<std::uint64_t>(
                                               params.rank)}) {}

void LammpsSim::advance() { kernel_.step(params_.md_steps_per_output); }

nda::VarDesc LammpsSim::output_desc(const Params& params, int version) {
  return nda::VarDesc{
      "atoms",
      {5, static_cast<std::uint64_t>(params.nprocs), params.atoms_per_proc},
      version};
}

nda::Box LammpsSim::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  return nda::Box({0, rank, 0}, {5, rank + 1, params_.atoms_per_proc});
}

nda::Slab LammpsSim::output(int version) const {
  const nda::Box box = my_box();
  if (box.volume() > kMaterializeCapElems) {
    return nda::Slab::synthetic(box, params_.seed);
  }
  // Materialize by tiling the kernel's atoms over the declared atom count:
  // row (property, rank) holds that property of atom k = atom % natoms.
  const auto n = static_cast<std::uint64_t>(kernel_.natoms());
  const double* pos = kernel_.positions().data();
  const double* vel = kernel_.velocities().data();
  (void)version;
  return nda::Slab::from_rows(box, [n, pos, vel](const nda::Dims& row,
                                                 double* out,
                                                 std::uint64_t len) {
    const std::uint64_t property = row[0];
    const double* src = property < 3 ? pos + property : vel + (property - 3);
    std::uint64_t k = row[2] % n;
    for (std::uint64_t i = 0; i < len; ++i) {
      out[i] = src[3 * k];
      if (++k == n) k = 0;
    }
  });
}

double LammpsSim::titan_seconds_per_step() const {
  // Weak scaling: cost tracks the per-rank atom count.
  const double size_factor =
      static_cast<double>(params_.atoms_per_proc) / 512000.0;
  // Small deterministic per-rank jitter so collectives see realistic skew.
  Rng rng(params_.seed * 131 + static_cast<std::uint64_t>(params_.rank));
  return kLammpsSecondsPerStep * size_factor * rng.uniform(0.98, 1.02);
}

double msd_titan_seconds_per_step(std::uint64_t bytes_processed) {
  return kMsdSecondsPerMiB * static_cast<double>(bytes_processed) /
         static_cast<double>(kMiB);
}

// ------------------------------------------------------------ Laplace -----

LaplaceSim::LaplaceSim(Params params)
    : params_(params),
      kernel_(JacobiLaplace::Params{params.kernel_n, params.kernel_n, 100.0}) {
}

void LaplaceSim::advance() { kernel_.sweep(params_.sweeps_per_output); }

nda::VarDesc LaplaceSim::output_desc(const Params& params, int version) {
  return nda::VarDesc{
      "field",
      {params.rows,
       static_cast<std::uint64_t>(params.nprocs) * params.cols_per_proc},
      version};
}

nda::Box LaplaceSim::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  return nda::Box({0, rank * params_.cols_per_proc},
                  {params_.rows, (rank + 1) * params_.cols_per_proc});
}

nda::Slab LaplaceSim::output(int version) const {
  const nda::Box box = my_box();
  if (box.volume() > kMaterializeCapElems) {
    return nda::Slab::synthetic(box, params_.seed);
  }
  // Tile the kernel grid over the declared field: element (i, j) is grid
  // point (i % kn, j % kn). Every row of the box starts at column lb[1], so
  // the box has at most kn distinct rows; build each once, then copy.
  const auto kn = static_cast<std::uint64_t>(kernel_.nx());
  const std::uint64_t distinct = std::min(kn, box.ub[0]);
  const std::uint64_t width = box.extent(1);
  std::vector<double> rows(distinct * width);
  for (std::uint64_t i = 0; i < distinct; ++i) {
    std::uint64_t j = box.lb[1] % kn;
    for (std::uint64_t c = 0; c < width; ++c) {
      rows[i * width + c] =
          kernel_.at(static_cast<int>(i), static_cast<int>(j));
      if (++j == kn) j = 0;
    }
  }
  (void)version;
  return nda::Slab::from_rows(box, [&rows, kn](const nda::Dims& row,
                                               double* out,
                                               std::uint64_t len) {
    std::copy_n(rows.data() + row[0] % kn * len, len, out);
  });
}

double LaplaceSim::titan_seconds_per_step() const {
  const double elements =
      static_cast<double>(params_.rows * params_.cols_per_proc);
  const double size_factor = elements / (4096.0 * 4096.0);
  Rng rng(params_.seed * 151 + static_cast<std::uint64_t>(params_.rank));
  return kLaplaceSecondsPerStepAt4096 * size_factor * rng.uniform(0.98, 1.02);
}

double mta_titan_seconds_per_step(std::uint64_t bytes_processed) {
  return kMtaSecondsPerMiB * static_cast<double>(bytes_processed) /
         static_cast<double>(kMiB);
}

// ---------------------------------------------------------- Synthetic -----

nda::VarDesc SyntheticWriter::output_desc(const Params& params,
                                          int version) {
  const auto n = static_cast<std::uint64_t>(params.nprocs);
  if (params.match_staging_layout) {
    // 5 x 512 x (per-proc x nprocs): ranks and DataSpaces both split the
    // last (longest) dimension.
    const std::uint64_t per_rank = params.elements_per_proc / (5 * 512);
    return nda::VarDesc{"synthetic", {5, 512, per_rank * n}, version};
  }
  // 5 x nprocs x per-atom: ranks split dimension 1 while DataSpaces splits
  // the longest dimension 2 (the paper's mismatched default).
  return nda::VarDesc{"synthetic", {5, n, params.elements_per_proc / 5},
                      version};
}

nda::Box SyntheticWriter::my_box() const {
  const auto rank = static_cast<std::uint64_t>(params_.rank);
  const nda::Dims global = output_desc(0).global;
  nda::Box box = nda::Box::whole(global);
  if (params_.match_staging_layout) {
    const std::uint64_t share =
        global[2] / static_cast<std::uint64_t>(params_.nprocs);
    box.lb[2] = rank * share;
    box.ub[2] = (rank + 1) * share;
  } else {
    box.lb[1] = rank;
    box.ub[1] = rank + 1;
  }
  return box;
}

nda::Slab SyntheticWriter::output(int version) const {
  (void)version;
  const nda::Box box = my_box();
  if (box.volume() > kMaterializeCapElems) {
    return nda::Slab::synthetic(box, params_.seed);
  }
  return nda::Slab::synthetic(box, params_.seed).materialize();
}

}  // namespace imc::apps
