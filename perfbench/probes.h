// Layer probes: the benchmark replays, from its own code, the calls a world
// makes into apps, ndarray, sim, net and dataspaces, with the inputs that
// world uses, and times them through the modules' public functions.
//
// Per-call costs come from replaying a sample of ranks; the number of calls
// a world makes comes from its spec (one advance and one output per sim rank
// per step, one analysis per analytics rank per step, and the staging
// region cuts and reader assemblies of the DataSpaces region model). Their
// product estimates each layer's host time inside a world.
#pragma once

#include <cstdint>

#include "spans.h"
#include "workflow/workflow.h"

namespace perfbench {

// How often one world calls each probed function, and the element bytes
// those calls copy (computed from box volumes, zero for synthetic slabs).
struct WorldCalls {
  std::uint64_t advance = 0;    // LammpsSim / LaplaceSim::advance
  std::uint64_t output = 0;     // LammpsSim / LaplaceSim / SyntheticWriter::output
  std::uint64_t analysis = 0;   // mean_squared_displacement / moment_analysis
  std::uint64_t extract = 0;    // writer slab cut into staging regions
  std::uint64_t fill_from = 0;  // reader slab assembled from staged pieces
  std::uint64_t query = 0;      // staging_regions_cached(...).index.query
  double bytes_copied = 0;
};
WorldCalls world_calls(const imc::workflow::Spec& spec);

// Identity of the inputs the apps/ndarray probes depend on; worlds with the
// same geometry share one replay.
std::string geometry_key(const imc::workflow::Spec& spec);

// Host seconds and calls measured by a replay, per probed function.
struct Timed {
  double seconds = 0;
  std::uint64_t calls = 0;
  double per_call() const { return calls ? seconds / calls : 0.0; }
  void add(const Timed& o) {
    seconds += o.seconds;
    calls += o.calls;
  }
};
struct GeometryCost {
  Timed advance, output, analysis, extract, fill_from, query;
  void add(const GeometryCost& o);
};

// Replays a sample of the world's ranks (`replica` picks which) and times
// every probed call. Records one span per probed function under `log`.
GeometryCost replay_geometry(const imc::workflow::Spec& spec, int replica,
                             SpanLog* log);

// Micro-probes on single layers, each returning host time per operation.
double engine_event_ns(SpanLog* log);                           // sim
double fabric_reserve_ns(const imc::workflow::Spec& spec, SpanLog* log);  // net
double dataspaces_put_get_us(const imc::workflow::Spec& spec,
                             SpanLog* log);                     // dataspaces

}  // namespace perfbench
