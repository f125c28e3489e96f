// Workload families of the repository benchmark, the seeded choice of
// worlds from them, and the per-world correctness fingerprint.
//
// A family is a list of slots; each slot has one or more variants of about
// the same host cost (Titan or Cori; one of the fault-plan seeds). The seed
// picks one variant per slot and the submission order, so different seeds
// run different worlds while the work per batch stays comparable. Every
// variant of every slot has a recorded reference fingerprint
// (references.tsv), so any seed can be checked.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workflow/workflow.h"

namespace perfbench {

struct World {
  std::string key;  // stable identity; the reference file is keyed on it
  imc::workflow::Spec spec;
};

// kernel-lammps, dataplane-laplace, staging-scale or chaos-replicated (the
// reasons for each are in README.md and BENCHMARK.json).
bool known_workload(const std::string& name);

// Every world the workload can run under any seed (reference recording).
std::vector<World> family(const std::string& workload);

// The worlds one batch of the workload runs for `seed`, in submission order.
// `batch` varies only the order, so repeated batches average out where the
// longest world lands.
std::vector<World> batch_worlds(const std::string& workload,
                                std::uint64_t seed, std::uint64_t batch);

// The world each lane runs once during set-up: a fixed mid-family world, so
// set-up cost does not depend on the seed and is not dominated by process
// start-up noise. The layer micro-probes use its geometry too.
World warmup_world(const std::string& workload);

// Correctness fingerprint of one finished world: verdict and typed-failure
// token, digest, engine/fabric counters, simulated end-to-end time,
// analysis value, memory and RDMA peaks, fault and replication statistics.
std::string fingerprint(const imc::workflow::RunResult& result);
std::string fingerprint_hash(const std::string& fingerprint);

// key -> fingerprint hash, as stored in references.tsv.
using References = std::map<std::string, std::string>;
bool load_references(const std::string& path, References& out,
                     std::string& error);
bool save_references(const std::string& path, const References& refs);

}  // namespace perfbench
