// Invariant / leak auditor for simulated resources.
//
// Every pool in the simulator (process memory, RDMA registrations and
// handlers, sockets, DRC credentials, DataSpaces locks, staged objects)
// reports acquire/release pairs here, tagged with an owner string. At
// scenario teardown anything still outstanding is a leak — the simulated
// analogue of the memory-growth failure modes the paper documents (F4/F8).
//
// global() is the bound world's auditor (world::Context, DESIGN.md §16).
// All hooks compile to no-ops when the IMC_CHECK CMake option is off, and
// become runtime no-ops when the IMC_CHECK *environment variable* is 0.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/world.h"

namespace imc::audit {

enum class Resource : int {
  kProcessBytes = 0,  // mem::ProcessMemory tagged allocations
  kRdmaBytes,         // hpc::RdmaPool registered bytes
  kRdmaHandlers,      // hpc::RdmaPool connection handlers
  kSockets,           // hpc::SocketPool descriptors
  kDrcCredential,     // net::DrcService credentials
  kDsLock,            // dataspaces::LockService held locks
  kStagedObject,      // objects resident in a staging store
};
inline constexpr int kResourceCount = 7;

std::string_view to_string(Resource r);

class Auditor {
 public:
  void acquire(Resource r, const std::string& owner, std::uint64_t n = 1);
  void release(Resource r, const std::string& owner, std::uint64_t n = 1);
  void violation(const std::string& what);

  std::uint64_t outstanding(Resource r) const;
  // Formatted "resource: N outstanding (owner tag)" lines plus any recorded
  // violations; empty means the scenario tore down cleanly.
  std::vector<std::string> leaks() const;
  const std::vector<std::string>& violations() const { return violations_; }
  bool clean() const;
  void reset();

 private:
  // owner -> outstanding count, per resource class.
  std::map<std::string, std::uint64_t> ledger_[kResourceCount];
  std::uint64_t totals_[kResourceCount] = {};
  std::vector<std::string> violations_;
};

// The auditor used by all instrumentation hooks.
inline Auditor& global() { return *world::current().auditor; }

// Runtime gate: IMC_CHECK=0 in the environment disables the (compiled-in)
// instrumentation hooks; unset or IMC_CHECK=1 leaves them on. Parsed once
// on first use; garbage values terminate with a clear error.
bool runtime_enabled();

// Guarded entry points — call these from instrumented code, never
// Auditor methods directly, so the whole layer disappears under
// -DIMC_CHECK=OFF.
inline void acquire(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().acquire(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void release(Resource r, const std::string& owner,
                    std::uint64_t n = 1) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().release(r, owner, n);
#else
  (void)r;
  (void)owner;
  (void)n;
#endif
}

inline void violation(const std::string& what) {
#if IMC_CHECK_ENABLED
  if (runtime_enabled()) global().violation(what);
#else
  (void)what;
#endif
}

}  // namespace imc::audit
