// ADIOS 1.x framework layer (Liu et al., reimplemented).
//
// ADIOS is the plug-and-play I/O framework through which the paper drives
// MPI-IO, DataSpaces, DIMES and Flexpath ("DataSpaces/ADIOS" etc. in
// Table I). It contributes:
//  * the XML configuration (groups, variables with symbolic dimensions, a
//    transport method per group, buffer sizing, stats on/off) — the
//    usability surface measured in Table III;
//  * buffered writes: adios_write copies into the group buffer; the flush
//    to the selected method happens at adios_close;
//  * a uniform read API with box selections over any method.
//
// A small per-step metadata footer and the optional min/max statistics pass
// model ADIOS's overhead relative to the native APIs (the paper's
// ADIOS-vs-native curves are close but not identical).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adios/xml.h"
#include "common/status.h"
#include "common/units.h"
#include "flexpath/flexpath.h"
#include "lustre/lustre.h"
#include "mem/memory.h"
#include "ndarray/ndarray.h"
#include "sim/engine.h"
#include "sim/task.h"
#include "staging/port.h"

namespace imc::adios {

enum class Method { kMpiIo, kDataspaces, kDimes, kFlexpath };

Result<Method> parse_method(const std::string& name);
std::string_view to_string(Method method);

struct VarDecl {
  std::string name;
  std::string dimensions;  // e.g. "5,nprocs,512000" (symbols allowed)
  std::string type = "double";
};

struct GroupDecl {
  std::string name;
  std::vector<VarDecl> vars;
  Method method = Method::kMpiIo;
  std::string parameters;  // method options verbatim (e.g. "queue_size=1")
};

struct AdiosConfig {
  std::vector<GroupDecl> groups;
  std::uint64_t buffer_bytes = 64 * kMiB;  // <buffer size-MB=.../>
  bool stats = true;                       // stats="off" disables

  const GroupDecl* group(const std::string& name) const;
};

// Parses an <adios-config> document.
Result<AdiosConfig> parse_config(const std::string& xml);

// Resolves "5,nprocs,512000" against a symbol table.
Result<nda::Dims> resolve_dims(const std::string& spec,
                               const std::map<std::string, std::uint64_t>& symbols);

// Per-rank I/O context for one group: the adios_open/adios_write/
// adios_close and read-API surface, exposed as the staging port. The
// backend matching the group's method must be supplied: `staging` for
// DATASPACES and DIMES, the Flexpath writer or reader for FLEXPATH, lustre
// and node for MPI. The Io never owns its backends and must not outlive
// them.
class Io : public staging::Port {
 public:
  struct Backends {
    staging::Port* staging = nullptr;  // a DataSpaces or DIMES client
    flexpath::Flexpath::Writer* flexpath_writer = nullptr;
    flexpath::Flexpath::Reader* flexpath_reader = nullptr;
    lustre::FileSystem* lustre = nullptr;
    hpc::Node* node = nullptr;  // MPI-IO needs the rank's node for striping
  };

  // `path` names the BP output; the MPI method writes step v to
  // "<path>.<v>".
  Io(sim::Engine& engine, const AdiosConfig& config, const GroupDecl& group,
     std::string path, Backends backends, mem::ProcessMemory& memory,
     double cpu_speed = 1.0);

  // adios_open: method-level open. The staging methods initialize their
  // client, Flexpath opens the writer or the reader it was given; MPI
  // opens one BP file per step inside put()/read(), as ADIOS 1.x does.
  sim::Task<Status> init() override;

  // adios_write + adios_close: copies the slab into the group buffer, then
  // flushes it through the method and releases the buffer. Fails with
  // kOutOfMemory when the configured buffer size would be exceeded (ADIOS
  // 1.x behavior). For staging methods, data becomes visible to readers
  // only after publish() (the collective unlock).
  sim::Task<Status> put(const nda::VarDesc& var,
                        const nda::Slab& slab) override;

  // Collective step commit: exactly one rank (the writer root) calls this
  // after all ranks' puts. Publishes the staged version (DataSpaces/DIMES);
  // no-op for MPI-IO and Flexpath (file visibility / queue semantics).
  sim::Task<Status> publish(const nda::VarDesc& var) override;

  // adios_schedule_read + adios_perform_reads for one box selection.
  // Blocks until the requested version is available.
  sim::Task<Result<nda::Slab>> read(const nda::VarDesc& var,
                                    const nda::Box& box) override;

  // adios_advance_step on the reader side (Flexpath releases the step).
  sim::Task<Status> advance(int step) override;

  void finalize() override;

 private:
  // Opens the MPI method's BP file of `version` as file_.
  sim::Task<Status> open_step(int version);

  sim::Engine* engine_;
  const AdiosConfig* config_;
  const GroupDecl* group_;
  std::string base_path_;
  Backends backends_;
  mem::ProcessMemory* memory_;
  double cpu_speed_;
  std::shared_ptr<lustre::File> file_;  // the MPI method's current step
  bool open_ = false;
};

}  // namespace imc::adios
