#include "workloads.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "hpc/machine.h"

namespace perfbench {
namespace {

using imc::splitmix64;
using imc::workflow::AppSel;
using imc::workflow::MethodSel;
using imc::workflow::Spec;

constexpr MethodSel kAllMethods[] = {
    MethodSel::kMpiIo,       MethodSel::kDataspacesAdios,
    MethodSel::kDataspacesNative, MethodSel::kDimesAdios,
    MethodSel::kDimesNative, MethodSel::kFlexpath,
    MethodSel::kDecaf};

// Fault-plan seeds of the chaos workload; the run seed picks one per slot. A
// small fixed set keeps every plan a world can run covered by references.tsv.
constexpr std::uint64_t kPlanSeeds[] = {0x5eedfa17u, 0x0c0ffee1u, 0x5ca1ab1eu,
                                        0xdecafbadu};

// One slot of a family: its variants cost about the same host time.
using Slot = std::vector<World>;

std::string key_of(const Spec& s, const std::string& extra) {
  std::string key = std::string(imc::workflow::to_string(s.app)) + "|" +
                    std::string(imc::workflow::to_string(s.method)) + "|" +
                    s.machine.name + "|" + std::to_string(s.nsim) + "x" +
                    std::to_string(s.nana) + "|steps=" +
                    std::to_string(s.steps);
  switch (s.app) {
    case AppSel::kLammps:
      key += "|atoms=" + std::to_string(s.lammps_atoms_per_proc);
      break;
    case AppSel::kLaplace:
      key += "|grid=" + std::to_string(s.laplace_rows) + "x" +
             std::to_string(s.laplace_cols_per_proc);
      break;
    case AppSel::kSynthetic:
      key += "|elems=" + std::to_string(s.synthetic_elements_per_proc) +
             (s.synthetic_match_layout ? "|matched" : "|mismatched");
      break;
  }
  if (!extra.empty()) key += "|" + extra;
  return key;
}

World make_world(Spec spec, const std::string& extra = "") {
  World w;
  w.key = key_of(spec, extra);
  w.spec = std::move(spec);
  return w;
}

Spec base_spec(AppSel app, MethodSel method, int nsim, int nana) {
  Spec s;
  s.app = app;
  s.method = method;
  s.nsim = nsim;
  s.nana = nana;
  s.steps = 3;
  return s;
}

// Titan / Cori variants of one spec.
Slot machine_variants(const Spec& spec) {
  Slot slot;
  for (const imc::hpc::MachineConfig& machine :
       {imc::hpc::titan(), imc::hpc::cori_knl()}) {
    Spec s = spec;
    s.machine = machine;
    slot.push_back(make_world(s));
  }
  return slot;
}

// LAMMPS+MSD at 32, 48 and 64 sim ranks: the real LJ kernel runs (worlds of
// at most 64 ranks) and the 20 MB/rank payload is synthetic. Three sizes, so
// the median world sits inside a cluster of world costs, not between two.
std::vector<Slot> kernel_lammps() {
  std::vector<Slot> slots;
  for (const auto& [nsim, nana] :
       {std::pair{32, 16}, std::pair{48, 24}, std::pair{64, 32}}) {
    for (MethodSel m : kAllMethods) {
      slots.push_back(machine_variants(base_spec(AppSel::kLammps, m, nsim, nana)));
    }
  }
  return slots;
}

// Laplace+MTA at 128 sim ranks with 256x384 doubles per rank: below the
// materialization cap, so every output is real bytes; the kernel is off
// above 64 ranks. One grid size and both machines in every batch: worlds of
// equal footprint make the peak RSS and the memory-bandwidth contention the
// same in every batch, which mixed sizes did not. Two steps instead of
// three keep a batch short enough for several batches per run.
std::vector<Slot> dataplane_laplace() {
  std::vector<Slot> slots;
  for (MethodSel m : kAllMethods) {
    Spec s = base_spec(AppSel::kLaplace, m, 128, 64);
    s.steps = 2;
    s.laplace_rows = 256;
    s.laplace_cols_per_proc = 384;
    for (World& w : machine_variants(s)) slots.push_back({w});
  }
  return slots;
}

// Paper-size synthetic payloads at 512 sim ranks (the synthetic writer with
// mismatched and matched layouts, and LAMMPS) and at 1024 (matched layout;
// mismatched DataSpaces and LAMMPS DataSpaces take seconds or fail there).
// Engine, protocols, fabric model and BoxIndex do the work; DataSpaces on the
// mismatched layout is the N-to-1 convoy and the longest world of a batch.
// Titan and Cori are separate slots here, not seed-picked variants: the
// doubled batch keeps where a convoy world lands from swinging the makespan,
// and a fixed set keeps the median of these short worlds steady.
std::vector<Slot> staging_scale() {
  struct Shape {
    AppSel app;
    bool matched;
    int nsim;
  };
  const Shape kShapes[] = {{AppSel::kSynthetic, false, 512},
                           {AppSel::kSynthetic, true, 512},
                           {AppSel::kLammps, false, 512},
                           {AppSel::kSynthetic, true, 1024}};
  std::vector<Slot> slots;
  for (const Shape& shape : kShapes) {
    for (MethodSel m : kAllMethods) {
      Spec s = base_spec(shape.app, m, shape.nsim, shape.nsim / 2);
      s.synthetic_match_layout = shape.matched;
      for (World& w : machine_variants(s)) slots.push_back({w});
    }
  }
  return slots;
}

// DataSpaces and DIMES at 96 sim ranks under three fault plans and
// replication factors 1..3, MPI-IO fallback armed. The 2.5 MB/rank payload
// is synthetic (above the materialization cap), so replica puts, resilver
// copies, failover gets and retries are not buried under per-element
// output. A world runs about 0.9 simulated seconds.
Spec chaos_spec(MethodSel method, int plan, int factor, std::uint64_t seed) {
  Spec s = base_spec(AppSel::kLammps, method, 96, 48);
  s.lammps_atoms_per_proc = 64000;
  s.num_servers = 6;
  s.fallback.to_mpi_io = true;
  s.repl.factor = factor;
  s.fault.seed = seed;
  s.fault.transport_retry.initial_backoff = 5e-4;
  s.fault.transport_retry.max_attempts = 6;
  switch (plan) {
    case 0:  // server crash mid-run, between steps
      s.fault.server_crashes = {{0.5, 0}};
      break;
    case 1:  // lossy link plus a half-bandwidth window
      s.fault.packet_loss = 0.15;
      s.fault.link_degrade = {0.05, 0.4, 0.5};
      break;
    default:  // transient RDMA registration failures
      s.fault.rdma_flap = 0.15;
      break;
  }
  return s;
}

const char* const kPlanNames[] = {"server-crash", "link-loss", "rdma-flap"};

// Every batch runs both APIs of both staging methods under every plan and
// factor; a slot's variants are its plan seeds, and the run seed picks one
// per slot. Seed-picked APIs and one plan seed per batch moved the batch's
// cost and its median world by about 10% from seed to seed.
std::vector<Slot> chaos_replicated() {
  std::vector<Slot> slots;
  for (MethodSel m :
       {MethodSel::kDataspacesNative, MethodSel::kDataspacesAdios,
        MethodSel::kDimesNative, MethodSel::kDimesAdios}) {
    for (int plan = 0; plan < 3; ++plan) {
      // A mid-run crash at R=1 falls back to MPI-IO, and every fallback
      // world leaves a non-empty leak ledger (README.md), so the crash plan
      // runs with replicas only.
      for (int factor = plan == 0 ? 2 : 1; factor <= 3; ++factor) {
        Slot slot;
        for (std::uint64_t plan_seed : kPlanSeeds) {
          char extra[96];
          std::snprintf(extra, sizeof extra, "plan=%s|R=%d|fseed=%" PRIx64,
                        kPlanNames[plan], factor, plan_seed);
          slot.push_back(
              make_world(chaos_spec(m, plan, factor, plan_seed), extra));
        }
        slots.push_back(std::move(slot));
      }
    }
  }
  return slots;
}

std::vector<Slot> slots_for(const std::string& workload) {
  if (workload == "kernel-lammps") return kernel_lammps();
  if (workload == "dataplane-laplace") return dataplane_laplace();
  if (workload == "staging-scale") return staging_scale();
  return chaos_replicated();
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "kernel-lammps" || name == "dataplane-laplace" ||
         name == "staging-scale" || name == "chaos-replicated";
}

std::vector<World> family(const std::string& workload) {
  const std::vector<Slot> slots = slots_for(workload);
  std::vector<World> all;
  for (const Slot& slot : slots) all.insert(all.end(), slot.begin(), slot.end());
  return all;
}

std::vector<World> batch_worlds(const std::string& workload,
                                std::uint64_t seed, std::uint64_t batch) {
  const std::vector<Slot> slots = slots_for(workload);
  std::vector<World> worlds;
  worlds.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint64_t pick = splitmix64(seed * 0x100000001b3ull + i);
    worlds.push_back(slots[i][pick % slots[i].size()]);
  }
  imc::Rng rng(splitmix64(seed) ^ splitmix64(batch + 0x6a09e667));
  for (std::size_t i = worlds.size(); i > 1; --i) {
    std::swap(worlds[i - 1], worlds[rng.next_below(i)]);
  }
  return worlds;
}

World warmup_world(const std::string& workload) {
  const std::vector<Slot> slots = slots_for(workload);
  return slots[slots.size() / 2].front();
}

std::string fingerprint(const imc::workflow::RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << "ok=" << r.ok << " verdict=" << r.failure_summary()
      << " recovered=" << r.recovered_failures.size()
      << (r.recovered_failures.empty() ? "" : " " + r.recovered_failures[0])
      << " digest=" << r.run_digest << " events=" << r.events_processed
      << " transfers=" << r.transfers << " bytes=" << r.bytes_moved
      << " e2e=" << r.end_to_end << " analysis=" << r.sample_analysis_value
      << " sim_peak=" << r.sim_rank_peak << " ana_peak=" << r.ana_rank_peak
      << " server_peak=" << r.server_peak
      << " rdma_bytes=" << r.rdma_peak_bytes
      << " rdma_handlers=" << r.rdma_peak_handlers
      << " sockets=" << r.socket_peak << " fault=" << r.fault.injected << ","
      << r.fault.retries << "," << r.fault.timeouts << ","
      << r.fault.dropped_ops << "," << r.fault.server_crashes << ","
      << r.fault.node_deaths << "," << r.fault.fallback_activated << ","
      << r.fault.time_to_recover << " repl=" << r.repl.factor << ","
      << r.repl.replica_puts << "," << r.repl.replica_bytes << ","
      << r.repl.degraded_gets << "," << r.repl.under_replicated << ","
      << r.repl.objects_lost << "," << r.repl.resilver_copies << ","
      << r.repl.resilver_bytes << "," << r.repl.resilver_failures << ","
      << r.repl.restores << "," << r.repl.time_to_restore;
  return out.str();
}

std::string fingerprint_hash(const std::string& fingerprint) {
  // FNV-1a, 64 bit.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : fingerprint) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

bool load_references(const std::string& path, References& out,
                     std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos || line.size() - tab - 1 != 16) {
      error = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    out[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

bool save_references(const std::string& path, const References& refs) {
  std::ofstream out(path);
  out << "# world key<TAB>fingerprint hash; regenerate with --record "
         "(see README.md)\n";
  for (const auto& [key, hash] : refs) out << key << '\t' << hash << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
