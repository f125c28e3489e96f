#include "probes.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "apps/analysis.h"
#include "apps/apps.h"
#include "dataspaces/dataspaces.h"
#include "dataspaces/regions.h"
#include "hpc/cluster.h"
#include "mem/memory.h"
#include "ndarray/index.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "sim/engine.h"

namespace perfbench {
namespace {

using imc::workflow::AppSel;
using imc::workflow::Spec;
namespace apps = imc::apps;
namespace nda = imc::nda;

// One writer rank's application, built the way workflow::run builds it.
struct App {
  std::unique_ptr<apps::LammpsSim> lammps;
  std::unique_ptr<apps::LaplaceSim> laplace;
  std::unique_ptr<apps::SyntheticWriter> synthetic;

  nda::VarDesc desc(int v) const {
    if (lammps) return lammps->output_desc(v);
    if (laplace) return laplace->output_desc(v);
    return synthetic->output_desc(v);
  }
  nda::Box box() const {
    if (lammps) return lammps->my_box();
    if (laplace) return laplace->my_box();
    return synthetic->my_box();
  }
  nda::Slab output(int v) const {
    if (lammps) return lammps->output(v);
    if (laplace) return laplace->output(v);
    return synthetic->output(v);
  }
  bool has_kernel() const { return !synthetic; }
  void advance() {
    if (lammps) lammps->advance();
    if (laplace) laplace->advance();
  }
};

// workflow::run runs the real kernels only in worlds of at most 64 ranks.
bool runs_kernel(const Spec& spec) { return spec.nsim <= 64; }

App make_app(const Spec& spec, int rank, bool kernel) {
  App app;
  switch (spec.app) {
    case AppSel::kLammps: {
      apps::LammpsSim::Params p;
      p.rank = rank;
      p.nprocs = spec.nsim;
      p.atoms_per_proc = spec.lammps_atoms_per_proc;
      p.kernel_atoms = kernel ? 256 : 4;
      app.lammps = std::make_unique<apps::LammpsSim>(p);
      break;
    }
    case AppSel::kLaplace: {
      apps::LaplaceSim::Params p;
      p.rank = rank;
      p.nprocs = spec.nsim;
      p.rows = spec.laplace_rows;
      p.cols_per_proc = spec.laplace_cols_per_proc;
      p.kernel_n = kernel ? 48 : 8;
      app.laplace = std::make_unique<apps::LaplaceSim>(p);
      break;
    }
    case AppSel::kSynthetic: {
      apps::SyntheticWriter::Params p;
      p.rank = rank;
      p.nprocs = spec.nsim;
      p.match_staging_layout = spec.synthetic_match_layout;
      p.elements_per_proc = spec.synthetic_elements_per_proc;
      app.synthetic = std::make_unique<apps::SyntheticWriter>(p);
      break;
    }
  }
  return app;
}

// The box analytics rank `a` reads (as workflow::run decomposes readers).
nda::Box reader_box(const Spec& spec, const nda::Dims& global, int a) {
  const int dim =
      spec.app == AppSel::kSynthetic && spec.synthetic_match_layout ? 2 : 1;
  return nda::decompose_1d(global, spec.nana, dim)[static_cast<std::size_t>(a)];
}

// Staging-region count of the DataSpaces model the probes apply to every
// method: the spec's server count, else DataSpaces' default of nana/8.
int region_servers(const Spec& spec) {
  return spec.num_servers > 0 ? spec.num_servers : std::max(1, spec.nana / 8);
}

bool materialized(const App& app) {
  return app.box().volume() <= apps::kMaterializeCapElems;
}

// Staged pieces of a writer's box: the box cut by the staging regions.
std::vector<nda::Box> pieces_of(const nda::Box& writer,
                                const imc::dataspaces::RegionSet& regions) {
  std::vector<nda::Box> out;
  for (auto& [region, overlap] : regions.index.query(writer)) {
    (void)region;
    out.push_back(overlap);
  }
  return out;
}

template <typename F>
void timed(Timed& t, F&& f) {
  const double t0 = host_seconds();
  f();
  t.seconds += host_seconds() - t0;
  ++t.calls;
}

imc::sim::Task<> yielder(imc::sim::Engine& engine, int n) {
  for (int i = 0; i < n; ++i) co_await engine.yield();
}

using DsClient = imc::dataspaces::DataSpaces::Client;

// put, publish, wait and get of one object per version, in one process so
// max_versions eviction never races the read.
imc::sim::Task<> put_get_rounds(DsClient& writer, DsClient& reader,
                                nda::VarDesc var, nda::Slab slab, int rounds,
                                int& completed) {
  if (!(co_await writer.init()).is_ok()) co_return;
  if (!(co_await reader.init()).is_ok()) co_return;
  for (int v = 0; v < rounds; ++v) {
    var.version = v;
    if (!(co_await writer.put(var, slab)).is_ok()) co_return;
    if (!(co_await writer.publish(var)).is_ok()) co_return;
    if (!(co_await reader.wait_version(var.name, v)).is_ok()) co_return;
    auto got = co_await reader.get(var, slab.box());
    if (!got.has_value()) co_return;
    ++completed;
  }
}

}  // namespace

WorldCalls world_calls(const Spec& spec) {
  WorldCalls c;
  const App probe = make_app(spec, 0, false);
  const nda::Dims global = probe.desc(0).global;
  const bool real_bytes = materialized(probe);
  const auto steps = static_cast<std::uint64_t>(spec.steps);
  const auto nsim = static_cast<std::uint64_t>(spec.nsim);
  const auto nana = static_cast<std::uint64_t>(spec.nana);
  if (runs_kernel(spec) && probe.has_kernel()) c.advance = nsim * steps;
  c.output = nsim * steps;
  if (spec.app != AppSel::kSynthetic) c.analysis = nana * steps;
  c.query = nana * steps;

  const auto& regions =
      imc::dataspaces::staging_regions_cached(global, region_servers(spec));
  std::vector<nda::Box> pieces;
  for (int r = 0; r < spec.nsim; ++r) {
    for (const nda::Box& piece :
         pieces_of(make_app(spec, r, false).box(), regions)) {
      pieces.push_back(piece);
    }
  }
  c.extract = pieces.size() * steps;
  if (real_bytes) {
    double piece_bytes = 0;
    for (const nda::Box& p : pieces) piece_bytes += p.volume() * 8.0;
    const nda::BoxIndex index = nda::BoxIndex::build(pieces);
    double read_bytes = 0;
    for (int a = 0; a < spec.nana; ++a) {
      for (auto& [id, overlap] : index.query(reader_box(spec, global, a))) {
        (void)id;
        ++c.fill_from;
        read_bytes += overlap.volume() * 8.0;
      }
    }
    c.fill_from *= steps;
    c.bytes_copied = (piece_bytes + read_bytes) * static_cast<double>(steps);
  }
  return c;
}

std::string geometry_key(const Spec& spec) {
  const nda::Box box = make_app(spec, 0, false).box();
  return std::string(imc::workflow::to_string(spec.app)) + " " +
         std::to_string(spec.nsim) + "x" + std::to_string(spec.nana) + " " +
         box.to_string() + " steps=" + std::to_string(spec.steps) +
         " servers=" + std::to_string(region_servers(spec)) +
         (spec.synthetic_match_layout ? " matched" : "");
}

void GeometryCost::add(const GeometryCost& o) {
  advance.add(o.advance);
  output.add(o.output);
  analysis.add(o.analysis);
  extract.add(o.extract);
  fill_from.add(o.fill_from);
  query.add(o.query);
}

GeometryCost replay_geometry(const Spec& spec, int replica, SpanLog* log) {
  GeometryCost cost;
  Span top(log, "probe.geometry");
  const bool kernel = runs_kernel(spec);
  const nda::Dims global = make_app(spec, 0, false).desc(0).global;
  const auto& regions =
      imc::dataspaces::staging_regions_cached(global, region_servers(spec));

  // Writers: eight ranks spread over the communicator, shifted per replica.
  for (int k = 0; k < 8; ++k) {
    const int r = (replica * 7 + k * std::max(1, spec.nsim / 8)) % spec.nsim;
    App app = make_app(spec, r, kernel);
    for (int step = 0; step < spec.steps; ++step) {
      if (kernel && app.has_kernel()) {
        Span s(log, "apps.advance");
        timed(cost.advance, [&app] { app.advance(); });
      }
      nda::Slab slab;
      {
        Span s(log, "apps.output");
        timed(cost.output, [&] { slab = app.output(step); });
      }
      Span s(log, "ndarray.extract");
      for (const nda::Box& piece : pieces_of(slab.box(), regions)) {
        timed(cost.extract, [&] { (void)slab.extract(piece); });
      }
    }
  }

  // Readers: four ranks, each queries the region index, assembles its box
  // from the staged pieces of the writers it overlaps, and analyses it.
  for (int k = 0; k < 4; ++k) {
    const int a = (replica * 5 + k * std::max(1, spec.nana / 4)) % spec.nana;
    const nda::Box box = reader_box(spec, global, a);
    {
      Span s(log, "ndarray.index_query");
      for (int i = 0; i < 32; ++i) {
        timed(cost.query, [&] { (void)regions.index.query(box); });
      }
    }
    std::vector<nda::Slab> pieces;
    std::uint64_t seed = 0;
    bool real_bytes = false;
    for (int r = 0; r < spec.nsim; ++r) {
      App writer = make_app(spec, r, false);
      if (!nda::intersect(writer.box(), box)) continue;
      const nda::Slab out = writer.output(0);
      seed = out.seed();
      real_bytes = out.is_materialized();
      if (!real_bytes) break;
      for (const nda::Box& piece : pieces_of(out.box(), regions)) {
        if (auto overlap = nda::intersect(piece, box)) {
          pieces.push_back(out.extract(*overlap));
        }
      }
    }
    nda::Slab got;
    if (real_bytes) {
      // The zero-filled target is part of the assembly's cost.
      Span s(log, "ndarray.fill_from");
      const double t0 = host_seconds();
      got = nda::Slab::zeros(box);
      for (const nda::Slab& piece : pieces) got.fill_from(piece);
      cost.fill_from.seconds += host_seconds() - t0;
      cost.fill_from.calls += pieces.size();
    } else {
      got = nda::Slab::synthetic(box, seed);
    }
    if (spec.app == AppSel::kSynthetic) continue;
    Span s(log, "apps.analysis");
    const nda::Slab reference = got;
    for (int step = 0; step < spec.steps; ++step) {
      timed(cost.analysis, [&] {
        if (spec.app == AppSel::kLammps) {
          (void)apps::mean_squared_displacement(reference, got, 512);
        } else {
          (void)apps::moment_analysis(got, 4, 2048);
        }
      });
    }
  }
  return cost;
}

double engine_event_ns(SpanLog* log) {
  Span span(log, "sim.event_probe");
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    imc::sim::Engine engine;
    for (int p = 0; p < 64; ++p) engine.spawn(yielder(engine, 2000));
    const double t0 = host_seconds();
    engine.run();
    const double dt = host_seconds() - t0;
    samples.push_back(dt * 1e9 /
                      static_cast<double>(engine.events_processed()));
  }
  return median(samples);
}

double fabric_reserve_ns(const Spec& spec, SpanLog* log) {
  Span span(log, "net.reserve_probe");
  imc::sim::Engine engine;
  imc::hpc::Cluster cluster(spec.machine);
  imc::net::Fabric fabric(engine, cluster.config());
  const std::vector<int> nodes = cluster.allocate_nodes(8);
  const std::uint64_t bytes =
      make_app(spec, 0, false).box().volume() * nda::kElementBytes;
  constexpr int kCalls = 200000;
  const double t0 = host_seconds();
  for (int i = 0; i < kCalls; ++i) {
    (void)fabric.reserve_transfer(cluster.node(nodes[i % 8]),
                                  cluster.node(nodes[(i * 3 + 1) % 8]), bytes);
  }
  return (host_seconds() - t0) * 1e9 / kCalls;
}

double dataspaces_put_get_us(const Spec& spec, SpanLog* log) {
  Span span(log, "dataspaces.put_get_probe");
  imc::sim::Engine engine;
  imc::hpc::Cluster cluster(spec.machine);
  imc::net::Fabric fabric(engine, cluster.config());
  imc::net::RdmaTransport transport(engine, fabric,
                                    imc::net::TransportKind::kRdmaUgni);
  imc::dataspaces::Config config;
  config.num_servers = 1;
  imc::dataspaces::DataSpaces ds(engine, cluster, transport, config);
  if (!ds.deploy(cluster.allocate_nodes(1)).is_ok()) return 0;
  const int wnode = cluster.allocate_nodes(1)[0];
  const int rnode = cluster.allocate_nodes(1)[0];
  imc::mem::ProcessMemory wmem(engine, "probe-writer");
  imc::mem::ProcessMemory rmem(engine, "probe-reader");
  DsClient writer(ds, imc::net::Endpoint{1, 0, &cluster.node(wnode)}, wmem);
  DsClient reader(ds, imc::net::Endpoint{2, 1, &cluster.node(rnode)}, rmem);
  const App app = make_app(spec, 0, false);
  constexpr int kRounds = 16;
  int completed = 0;
  engine.spawn(put_get_rounds(writer, reader, app.desc(0), app.output(0),
                              kRounds, completed));
  const double t0 = host_seconds();
  engine.run();
  const double dt = host_seconds() - t0;
  ds.shutdown();
  engine.run();
  engine.reap_processes();
  return completed == kRounds ? dt * 1e6 / kRounds : 0.0;
}

}  // namespace perfbench
