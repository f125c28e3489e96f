// ADIOS Io over the staging backends (the MPI-IO path is covered in
// adios_test.cpp): put/publish/read round trips through DataSpaces and
// DIMES behind the framework's staging port, including the umbrella header.
#include <gtest/gtest.h>

#include "imc.h"

namespace imc::adios {
namespace {

struct StagingIoFixture : ::testing::Test {
  StagingIoFixture()
      : machine(hpc::titan()), cluster(machine), fabric(engine, machine),
        ugni(engine, fabric, net::TransportKind::kRdmaUgni) {
    group.name = "g";
    config.buffer_bytes = 8 * kMiB;
  }

  void run_all() {
    engine.run();
    ASSERT_TRUE(engine.process_failures().empty())
        << engine.process_failures()[0];
  }

  sim::Engine engine;
  hpc::MachineConfig machine;
  hpc::Cluster cluster;
  net::Fabric fabric;
  net::RdmaTransport ugni;
  AdiosConfig config;
  GroupDecl group;
};

TEST_F(StagingIoFixture, DataspacesRoundTripThroughTheFramework) {
  group.method = Method::kDataspaces;
  dataspaces::Config ds_config;
  ds_config.num_servers = 2;
  dataspaces::DataSpaces ds(engine, cluster, ugni, ds_config);
  ASSERT_TRUE(ds.deploy(cluster.allocate_nodes(1)).is_ok());

  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  dataspaces::DataSpaces::Client wclient(
      ds, net::Endpoint{1, 0, &cluster.node(cluster.allocate_nodes(1)[0])},
      wmem);
  dataspaces::DataSpaces::Client rclient(
      ds, net::Endpoint{2, 1, &cluster.node(cluster.allocate_nodes(1)[0])},
      rmem);

  Io::Backends wb, rb;
  wb.staging = &wclient;
  rb.staging = &rclient;
  Io writer(engine, config, group, "stream", wb, wmem);
  Io reader(engine, config, group, "stream", rb, rmem);

  const nda::Dims dims = {32, 32};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 7);

  engine.spawn([](Io& w, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await w.init()).is_ok());
    EXPECT_TRUE((co_await w.put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.publish(var)).is_ok());
  }(writer, dims, source));
  engine.spawn([](Io& r, nda::Dims dims, nda::Slab src) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 0};
    EXPECT_TRUE((co_await r.init()).is_ok());
    nda::Box half({0, 0}, {16, 32});
    auto got = co_await r.read(var, half);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.extract(half).checksum());
    }
  }(reader, dims, source));
  run_all();
}

TEST_F(StagingIoFixture, DimesRoundTripThroughTheFramework) {
  group.method = Method::kDimes;
  dimes::Config dm_config;
  dimes::Dimes dm(engine, cluster, ugni, dm_config);
  ASSERT_TRUE(dm.deploy(cluster.allocate_nodes(2)).is_ok());

  mem::ProcessMemory wmem(engine, "w"), rmem(engine, "r");
  dimes::Dimes::Client wclient(
      dm, net::Endpoint{1, 0, &cluster.node(cluster.allocate_nodes(1)[0])},
      wmem);
  dimes::Dimes::Client rclient(
      dm, net::Endpoint{2, 1, &cluster.node(cluster.allocate_nodes(1)[0])},
      rmem);

  Io::Backends wb, rb;
  wb.staging = &wclient;
  rb.staging = &rclient;
  Io writer(engine, config, group, "stream", wb, wmem);
  Io reader(engine, config, group, "stream", rb, rmem);

  const nda::Dims dims = {16, 48};
  nda::Slab source = nda::Slab::synthetic(nda::Box::whole(dims), 9);
  bool writer_done = false;

  engine.spawn([](sim::Engine& e, Io& w, nda::Dims dims, nda::Slab src,
                  bool& done) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 2};
    EXPECT_TRUE((co_await w.init()).is_ok());
    EXPECT_TRUE((co_await w.put(var, src)).is_ok());
    EXPECT_TRUE((co_await w.publish(var)).is_ok());
    // DIMES data lives in this writer's memory: stay alive for the reader.
    while (!done) co_await e.sleep(1e-3);
  }(engine, writer, dims, source, writer_done));
  engine.spawn([](Io& r, nda::Dims dims, nda::Slab src,
                  bool& done) -> sim::Task<> {
    nda::VarDesc var{"u", dims, 2};
    EXPECT_TRUE((co_await r.init()).is_ok());
    nda::Box whole = nda::Box::whole(dims);
    auto got = co_await r.read(var, whole);
    EXPECT_TRUE(got.has_value()) << got.status();
    if (got.has_value()) {
      EXPECT_DOUBLE_EQ(got->checksum(), src.checksum());
    }
    done = true;
  }(reader, dims, source, writer_done));
  run_all();
  EXPECT_TRUE(writer_done);
}

TEST_F(StagingIoFixture, AdiosAddsStatsCostOverNative) {
  // The framework's min/max statistics pass is one of the reasons the
  // ADIOS curves in Fig. 2 sit slightly above the native ones.
  group.method = Method::kDataspaces;
  config.stats = true;
  dataspaces::Config ds_config;
  ds_config.num_servers = 1;
  dataspaces::DataSpaces ds(engine, cluster, ugni, ds_config);
  ASSERT_TRUE(ds.deploy(cluster.allocate_nodes(1)).is_ok());
  mem::ProcessMemory wmem(engine, "w");
  dataspaces::DataSpaces::Client wclient(
      ds, net::Endpoint{1, 0, &cluster.node(cluster.allocate_nodes(1)[0])},
      wmem);
  Io::Backends wb;
  wb.staging = &wclient;
  Io writer(engine, config, group, "stream", wb, wmem);

  double framework_time = 0, native_time = 0;
  engine.spawn([](sim::Engine& e, Io& w, dataspaces::DataSpaces::Client& c,
                  double& fw, double& native) -> sim::Task<> {
    const nda::Dims dims = {256, 256};
    nda::Slab content = nda::Slab::synthetic(nda::Box::whole(dims), 1);
    EXPECT_TRUE((co_await w.init()).is_ok());
    double t0 = e.now();
    nda::VarDesc v0{"u", dims, 0};
    EXPECT_TRUE((co_await w.put(v0, content)).is_ok());
    fw = e.now() - t0;
    t0 = e.now();
    nda::VarDesc v1{"u", dims, 1};
    EXPECT_TRUE((co_await c.put(v1, content)).is_ok());
    native = e.now() - t0;
  }(engine, writer, wclient, framework_time, native_time));
  run_all();
  EXPECT_GT(framework_time, native_time);
}

}  // namespace
}  // namespace imc::adios
