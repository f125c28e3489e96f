// The staging port: the one surface a workflow rank stages through.
//
// The paper compares five staging methods, reached natively or through
// ADIOS, and a coupled workflow only ever needs the same step-based
// sequence from any of them (the model is ADIOS2's engine API: one surface,
// many engines):
//
//   init -> { put ... publish } per step        (writer)
//   init -> { read -> advance } per step        (reader)
//   finalize
//
// Implementations: dataspaces::DataSpaces::Client, dimes::Dimes::Client
// (their native API is the port, plus read = wait_version + get) and
// adios::Io (the framework over DataSpaces, DIMES, MPI-IO and Flexpath).
// Decaf's producer/consumer dataflow is not a port. DESIGN.md §17.
#pragma once

#include "common/status.h"
#include "ndarray/ndarray.h"
#include "sim/task.h"

namespace imc::staging {

class Port {
 public:
  virtual ~Port() = default;

  // Connects to the method (servers, connection manager, file system) and
  // allocates the client-side library pool.
  virtual sim::Task<Status> init() = 0;

  // Stages this rank's slab of `var` (version var.version).
  virtual sim::Task<Status> put(const nda::VarDesc& var,
                                const nda::Slab& slab) = 0;

  // Makes var.version visible to readers; one writer (the root) calls it
  // after every writer's put of that version completed.
  virtual sim::Task<Status> publish(const nda::VarDesc& var) = 0;

  // Waits until var.version is available, then fetches `box` of it.
  virtual sim::Task<Result<nda::Slab>> read(const nda::VarDesc& var,
                                            const nda::Box& box) = 0;

  // Tells the method this reader is done with `step` (Flexpath frees the
  // writers' queue slots); a no-op for the others.
  virtual sim::Task<Status> advance(int step) {
    (void)step;
    co_return Status::ok();
  }

  // Releases connections and pools. Synchronous, so world teardown can
  // call it without running the engine; safe to call more than once.
  virtual void finalize() = 0;
};

}  // namespace imc::staging
