// staging::Port contract, checked against a trivial oracle.
//
// Every implementation of the port (the two native clients and adios::Io
// over each of its four methods) runs the same coupled exchange: three
// writers put a ragged decomposition of two versions, the root publishes
// each version, and two readers read boxes that straddle the writers'
// boundaries. Each read is compared element by element against a
// std::map<(var, version), Slab> assembled from the writers' inputs with
// plain at()/set() loops, never against another staging path.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "adios/adios.h"
#include "dataspaces/dataspaces.h"
#include "dimes/dimes.h"
#include "flexpath/flexpath.h"
#include "hpc/cluster.h"
#include "lustre/lustre.h"
#include "net/fabric.h"
#include "net/transport.h"
#include "sim/engine.h"
#include "sim/sync.h"
#include "staging/port.h"

namespace imc::staging {
namespace {

using nda::Box;
using nda::Dims;
using nda::Slab;
using nda::VarDesc;

enum class Impl {
  kDataspacesNative,
  kDimesNative,
  kIoDataspaces,
  kIoDimes,
  kIoMpi,
  kIoFlexpath,
};

std::string impl_name(Impl impl) {
  switch (impl) {
    case Impl::kDataspacesNative:
      return "DataspacesNative";
    case Impl::kDimesNative:
      return "DimesNative";
    case Impl::kIoDataspaces:
      return "IoDataspaces";
    case Impl::kIoDimes:
      return "IoDimes";
    case Impl::kIoMpi:
      return "IoMpi";
    case Impl::kIoFlexpath:
      return "IoFlexpath";
  }
  return "?";
}

// Test names print the parameters by name.
void PrintTo(Impl impl, std::ostream* os) { *os << impl_name(impl); }

// A global array, the boxes its writers put and the boxes its readers read.
struct Layout {
  Dims global;
  std::vector<Box> writers;
  std::vector<Box> readers;
};

enum class Shape { kRagged1D, kColumns2D };

std::string shape_name(Shape shape) {
  return shape == Shape::kRagged1D ? "Ragged1D" : "Columns2D";
}

void PrintTo(Shape shape, std::ostream* os) { *os << shape_name(shape); }

Layout layout_of(Shape shape) {
  if (shape == Shape::kRagged1D) {
    // 13 / 18 / 19 elements; each reader box crosses a writer boundary.
    return {{50},
            {Box({0}, {13}), Box({13}, {31}), Box({31}, {50})},
            {Box({0}, {20}), Box({10}, {50})}};
  }
  // Column blocks of 7 / 9 / 8; readers take row bands across all of them.
  return {{6, 24},
          {Box({0, 0}, {6, 7}), Box({0, 7}, {6, 16}), Box({0, 16}, {6, 24})},
          {Box({0, 0}, {3, 24}), Box({3, 5}, {6, 20})}};
}

constexpr int kVersions = 2;

// Every element of `box` in row-major order.
std::vector<Dims> coords(const Box& box) {
  std::vector<Dims> out;
  Dims c = box.lb;
  if (box.empty()) return out;
  while (true) {
    out.push_back(c);
    int d = box.dims() - 1;
    for (; d >= 0; --d) {
      const auto i = static_cast<std::size_t>(d);
      if (++c[i] < box.ub[i]) break;
      c[i] = box.lb[i];
    }
    if (d < 0) return out;
  }
}

// Writer input: a distinct value per (version, global element).
Slab writer_slab(const Box& box, int version) {
  Slab slab = Slab::zeros(box);
  for (const Dims& c : coords(box)) {
    double linear = 0;
    for (std::size_t d = 0; d < c.size(); ++d) linear = linear * 100 + c[d];
    slab.set(c, 1000.0 * version + linear + 0.25);
  }
  return slab;
}

using Oracle = std::map<std::pair<std::string, int>, Slab>;

struct PortContract : ::testing::TestWithParam<std::tuple<Impl, Shape>> {
  PortContract()
      : machine(hpc::titan()), cluster(machine), fabric(engine, machine),
        rdma(engine, fabric, net::TransportKind::kRdmaUgni) {}

  // One rank's port and what backs it; the Io is declared last so it is
  // destroyed before the client and Flexpath endpoint it points to.
  struct Rank {
    std::unique_ptr<mem::ProcessMemory> memory;
    std::unique_ptr<Port> client;
    std::unique_ptr<flexpath::Flexpath::Writer> fp_writer;
    std::unique_ptr<flexpath::Flexpath::Reader> fp_reader;
    std::unique_ptr<adios::Io> io;
    Port* port = nullptr;
  };

  void deploy(Impl impl, int readers) {
    switch (impl) {
      case Impl::kDataspacesNative:
      case Impl::kIoDataspaces: {
        dataspaces::Config c;
        c.num_servers = 2;
        c.max_versions = kVersions;
        ds = std::make_unique<dataspaces::DataSpaces>(engine, cluster, rdma,
                                                      c);
        ASSERT_TRUE(ds->deploy(cluster.allocate_nodes(1)).is_ok());
        group.method = adios::Method::kDataspaces;
        break;
      }
      case Impl::kDimesNative:
      case Impl::kIoDimes: {
        dimes::Config c;
        c.num_servers = 2;
        c.max_versions = kVersions;
        dm = std::make_unique<dimes::Dimes>(engine, cluster, rdma, c);
        ASSERT_TRUE(dm->deploy(cluster.allocate_nodes(1)).is_ok());
        group.method = adios::Method::kDimes;
        break;
      }
      case Impl::kIoMpi:
        fs = std::make_unique<lustre::FileSystem>(engine, fabric, machine);
        group.method = adios::Method::kMpiIo;
        break;
      case Impl::kIoFlexpath: {
        flexpath::Config c;
        c.queue_size = kVersions;
        c.num_readers = readers;
        fp = std::make_unique<flexpath::Flexpath>(engine, cluster, rdma, c);
        group.method = adios::Method::kFlexpath;
        break;
      }
    }
    group.name = "g";
    config.buffer_bytes = 1 * kMiB;
  }

  Rank make_rank(Impl impl, int pid, bool writer) {
    Rank rank;
    rank.memory = std::make_unique<mem::ProcessMemory>(
        engine, "rank" + std::to_string(pid));
    const net::Endpoint ep{pid, writer ? 0 : 1,
                           &cluster.node(cluster.allocate_nodes(1)[0])};
    if (ds) {
      rank.client =
          std::make_unique<dataspaces::DataSpaces::Client>(*ds, ep,
                                                           *rank.memory);
    } else if (dm) {
      rank.client = std::make_unique<dimes::Dimes::Client>(*dm, ep,
                                                           *rank.memory);
    }
    rank.port = rank.client.get();
    if (impl == Impl::kDataspacesNative || impl == Impl::kDimesNative) {
      return rank;
    }
    adios::Io::Backends backends;
    backends.staging = rank.client.get();
    if (fp && writer) {
      rank.fp_writer =
          std::make_unique<flexpath::Flexpath::Writer>(*fp, ep, *rank.memory);
      backends.flexpath_writer = rank.fp_writer.get();
    } else if (fp) {
      rank.fp_reader =
          std::make_unique<flexpath::Flexpath::Reader>(*fp, ep, *rank.memory);
      backends.flexpath_reader = rank.fp_reader.get();
    }
    backends.lustre = fs.get();
    backends.node = ep.node;
    rank.io = std::make_unique<adios::Io>(engine, config, group,
                                          "/scratch/port.bp", backends,
                                          *rank.memory);
    rank.port = rank.io.get();
    return rank;
  }

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  net::RdmaTransport rdma;
  std::unique_ptr<dataspaces::DataSpaces> ds;
  std::unique_ptr<dimes::Dimes> dm;
  std::unique_ptr<flexpath::Flexpath> fp;
  std::unique_ptr<lustre::FileSystem> fs;
  adios::AdiosConfig config;
  adios::GroupDecl group;
};

// Shared progress of one exchange.
struct Board {
  explicit Board(sim::Engine& engine)
      : writers_open(engine), writers_done(engine), readers_done(engine) {
    for (int v = 0; v < kVersions; ++v) {
      all_put.push_back(std::make_unique<sim::Event>(engine));
    }
  }
  sim::Event writers_open, writers_done, readers_done;
  std::vector<std::unique_ptr<sim::Event>> all_put;  // per version
  int opened = 0, finished = 0, readers_finished = 0;
  std::vector<int> puts = std::vector<int>(kVersions, 0);
  int reads_checked = 0;
};

sim::Task<> writer(Port& port, int w, int writers, Dims global,
                   std::vector<Slab> inputs, Board& board) {
  EXPECT_TRUE((co_await port.init()).is_ok());
  if (++board.opened == writers) board.writers_open.set();
  for (int v = 0; v < kVersions; ++v) {
    const VarDesc var{"u", global, v};
    const Status st = co_await port.put(var, inputs[static_cast<std::size_t>(v)]);
    EXPECT_TRUE(st.is_ok()) << st;
    if (++board.puts[static_cast<std::size_t>(v)] == writers) {
      board.all_put[static_cast<std::size_t>(v)]->set();
    }
    if (w == 0) {
      co_await board.all_put[static_cast<std::size_t>(v)]->wait();
      EXPECT_TRUE((co_await port.publish(var)).is_ok());
    }
  }
  if (++board.finished == writers) board.writers_done.set();
  // DIMES and Flexpath serve reads from the writer's memory.
  co_await board.readers_done.wait();
  port.finalize();
}

sim::Task<> reader(Port& port, Box box, Dims global, int readers,
                   bool after_writers, const Oracle& oracle, Board& board) {
  co_await board.writers_open.wait();
  if (after_writers) co_await board.writers_done.wait();  // MPI-IO
  EXPECT_TRUE((co_await port.init()).is_ok());
  for (int v = 0; v < kVersions; ++v) {
    const VarDesc var{"u", global, v};
    const Result<Slab> got = co_await port.read(var, box);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_EQ(got->box(), box);
      const Slab& want = oracle.at({var.name, v});
      int mismatches = 0;
      for (const Dims& c : coords(box)) {
        if (got->at(c) != want.at(c)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << box.to_string() << " version " << v;
      ++board.reads_checked;
    }
    EXPECT_TRUE((co_await port.advance(v)).is_ok());
  }
  port.finalize();
  if (++board.readers_finished == readers) board.readers_done.set();
}

TEST_P(PortContract, ReadsMatchTheWritersInputs) {
  const auto [impl, shape] = GetParam();
  const Layout layout = layout_of(shape);
  const int writers = static_cast<int>(layout.writers.size());
  const int readers = static_cast<int>(layout.readers.size());
  deploy(impl, readers);

  // The oracle: each version's global array, written element by element
  // from the writers' inputs.
  Oracle oracle;
  std::vector<std::vector<Slab>> inputs(layout.writers.size());
  for (int v = 0; v < kVersions; ++v) {
    Slab whole = Slab::zeros(Box::whole(layout.global));
    for (std::size_t w = 0; w < layout.writers.size(); ++w) {
      Slab in = writer_slab(layout.writers[w], v);
      for (const Dims& c : coords(layout.writers[w])) whole.set(c, in.at(c));
      inputs[w].push_back(std::move(in));
    }
    oracle.emplace(std::make_pair(std::string("u"), v), std::move(whole));
  }

  std::vector<Rank> ranks;
  for (int w = 0; w < writers; ++w) {
    ranks.push_back(make_rank(impl, 1 + w, /*writer=*/true));
  }
  for (int r = 0; r < readers; ++r) {
    ranks.push_back(make_rank(impl, 100 + r, /*writer=*/false));
  }
  Board board(engine);
  for (int w = 0; w < writers; ++w) {
    engine.spawn(writer(*ranks[static_cast<std::size_t>(w)].port, w, writers,
                        layout.global, inputs[static_cast<std::size_t>(w)],
                        board));
  }
  for (int r = 0; r < readers; ++r) {
    engine.spawn(reader(*ranks[static_cast<std::size_t>(writers + r)].port,
                        layout.readers[static_cast<std::size_t>(r)],
                        layout.global, readers, impl == Impl::kIoMpi, oracle,
                        board));
  }
  engine.run();
  ASSERT_TRUE(engine.process_failures().empty())
      << engine.process_failures()[0];
  EXPECT_EQ(board.reads_checked, readers * kVersions);
  if (ds) ds->shutdown();
  if (dm) dm->shutdown();
  engine.run();
}

INSTANTIATE_TEST_SUITE_P(
    AllPorts, PortContract,
    ::testing::Combine(
        ::testing::Values(Impl::kDataspacesNative, Impl::kDimesNative,
                          Impl::kIoDataspaces, Impl::kIoDimes, Impl::kIoMpi,
                          Impl::kIoFlexpath),
        ::testing::Values(Shape::kRagged1D, Shape::kColumns2D)),
    [](const auto& info) {
      return impl_name(std::get<0>(info.param)) + "_" +
             shape_name(std::get<1>(info.param));
    });

}  // namespace
}  // namespace imc::staging
