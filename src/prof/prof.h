// Wall-clock profiling and resource accounting for the harness itself
// (imc::prof).
//
// Everything else in this codebase measures *simulated* time; the one
// question it cannot answer is where the real wall-clock time of a sweep
// goes — pool lock waits, log/trace flush costs, arena growth, worker idle
// gaps. imc::prof answers that, and is therefore the designated exception
// to the wall-clock ban: src/prof/ is the only library directory where
// imc-analyze allows std::chrono::steady_clock (the rule is path-scoped;
// see scripts/analyze/rules.py).
//
// The determinism contracts survive because prof data is strictly
// digest-excluded: nothing recorded here ever reaches stdout, a trace
// Recorder, a RunChunk digest, or an engine digest. Exports go through the
// two channels that are outside every byte-identity contract — the trace
// Sink's add_meta() side channel (rendered as an "imc"."meta" block whose
// content the chain digest deliberately ignores) and a standalone JSON
// report written at process exit when IMC_PROF=<path> is set.
//
// Shape (mirrors imc::trace):
//   - Meter: one lane of harness work (a sweep worker, the pool's caller
//     thread, the sequential path). Aggregates named phase timings
//     (histograms), counters, and sampled levels. Not thread-safe; owned
//     by exactly one thread at a time.
//   - meter(): the bound lane's Meter (world::Context, DESIGN.md §16).
//   - Timer / PROF_TIMER: RAII wall-clock phase timer; inert (no clock
//     read) when no meter is bound.
//   - Collector: process-global, thread-safe fold target. Lanes merge by
//     name; to_json() adds the host descriptor, process rusage, and the
//     process-wide log-flush counters.
//
// Gating is double, exactly like tracing. Compile time: the IMC_PROF CMake
// option (default ON) defines the IMC_PROF macro; OFF makes meter() a
// constexpr nullptr and every hook dead-code eliminates. Run time: a
// Collector is only installed when IMC_PROF=<path> is set (or a test calls
// set_global_collector), and sweep::Pool only binds Meters when
// prof::enabled() — so the default cost is one thread-local null check.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "common/world.h"
#include "trace/trace.h"

#if defined(IMC_PROF) && IMC_PROF
#define IMC_PROF_ENABLED 1
#else
#define IMC_PROF_ENABLED 0
#endif

namespace imc::prof {

// Host descriptor recorded into every report so committed numbers are
// interpretable across machines (the committed sweep_scaling table came
// from a 1-core box; without this block nobody could tell).
struct HostInfo {
  int cores = 0;               // online processors
  long page_size = 0;          // bytes
  std::string cpu_model;       // /proc/cpuinfo "model name", or "unknown"
  std::string build_type;      // CMAKE_BUILD_TYPE baked in at compile time
};
// Read once, cached for the process.
const HostInfo& host();

// Process resource usage (getrusage(RUSAGE_SELF)); ok=false when the call
// failed (non-POSIX host) — fields are then zero.
struct Rusage {
  bool ok = false;
  long max_rss_kb = 0;
  long minor_faults = 0;
  long voluntary_ctx_switches = 0;
  long involuntary_ctx_switches = 0;
};
Rusage read_rusage();

// The calling thread's kernel cost so far (getrusage(RUSAGE_THREAD)):
// system CPU seconds and minor page faults. ok=false where the call is
// unavailable (non-Linux hosts) — fields are then zero.
struct ThreadUsage {
  bool ok = false;
  double sys_s = 0.0;
  long minor_faults = 0;
};
ThreadUsage read_thread_usage();

// Wall-clock seconds since a process-local origin. The only clock source
// prof code uses; everything simulated keeps taking time from
// sim::Engine::now().
double wall_seconds();

// One lane of harness work. Stats reuse trace::Stat so the meta-chunk
// export is a direct translation: kind 'h' = phase timing histogram
// (seconds), 'c' = monotonic counter, 'g' = sampled level (min/max/last
// meaningful, e.g. arena high-water marks).
class Meter {
 public:
  explicit Meter(std::string lane) : lane_(std::move(lane)) {}
  Meter(const Meter&) = delete;
  Meter& operator=(const Meter&) = delete;

  const std::string& lane() const { return lane_; }

  void timing(const char* name, double seconds) { bump(name, 'h', seconds); }
  void count(const char* name, double n = 1.0) { bump(name, 'c', n); }
  void sample(const char* name, double v) { bump(name, 'g', v); }

  bool empty() const { return stats_.empty(); }
  const std::map<std::string, trace::Stat>& stats() const { return stats_; }

 private:
  void bump(const char* name, char kind, double v);

  std::string lane_;
  std::map<std::string, trace::Stat> stats_;
};

// The meter for the current lane, or nullptr. With the IMC_PROF compile
// option OFF this is a constexpr nullptr and every hook below folds away.
#if IMC_PROF_ENABLED
inline Meter* meter() { return world::current().meter; }
#else
constexpr Meter* meter() { return nullptr; }
#endif

// RAII phase timer. A default-constructed or null-meter timer is inert and
// never reads the clock. stop() ends the phase early (before scope exit).
class Timer {
 public:
  Timer() = default;
  Timer(Meter* m, const char* name) : meter_(m), name_(name) {
    if (meter_ != nullptr) start_ = wall_seconds();
  }
  Timer(Timer&& other) noexcept { swap(other); }
  Timer& operator=(Timer&& other) noexcept {
    if (this != &other) {
      stop();
      swap(other);
    }
    return *this;
  }
  ~Timer() { stop(); }

  bool active() const { return meter_ != nullptr; }
  void stop() {
    if (meter_ == nullptr) return;
    meter_->timing(name_, wall_seconds() - start_);
    meter_ = nullptr;
  }

 private:
  void swap(Timer& other) noexcept {
    std::swap(meter_, other.meter_);
    std::swap(name_, other.name_);
    std::swap(start_, other.start_);
  }

  Meter* meter_ = nullptr;
  const char* name_ = "";
  double start_ = 0.0;
};

// --- Instrumentation hooks (the only API call sites should use) ---------

inline Timer timer(const char* name) { return Timer(meter(), name); }
inline void count(const char* name, double n = 1.0) {
  if (Meter* m = meter()) m->count(name, n);
}
inline void sample(const char* name, double v) {
  if (Meter* m = meter()) m->sample(name, v);
}

// Argless statement form, mirroring TRACE_SPAN.
#if IMC_PROF_ENABLED
#define IMC_PROF_CONCAT_IMPL(a, b) a##b
#define IMC_PROF_CONCAT(a, b) IMC_PROF_CONCAT_IMPL(a, b)
#define PROF_TIMER(name)                                         \
  ::imc::prof::Timer IMC_PROF_CONCAT(imc_prof_timer_, __LINE__) = \
      ::imc::prof::timer(name)
#else
#define PROF_TIMER(name) \
  do {                   \
  } while (false)
#endif

// --- Collector: cross-lane aggregation and export -----------------------

class Collector {
 public:
  // Merges a lane's stats (thread-safe; lanes with the same name fold
  // together — a reused worker index accumulates across sweeps).
  void fold(const Meter& m);

  std::size_t lane_count() const;
  // Snapshot for tests and exporters: lane -> name -> stat.
  std::map<std::string, std::map<std::string, trace::Stat>> lanes() const;

  // Standalone JSON report: schema, host block, rusage, process-wide log
  // flush counters, and every lane's stats. Deterministic field order;
  // values are wall-clock and therefore outside every digest contract.
  std::string to_json() const;
  // Renders the lanes as a metrics-only trace::RunChunk labeled "prof"
  // (metric names "<lane>/<stat>"), for Sink::add_meta — the digest field
  // stays 0 and the sink's chain digest never sees it.
  trace::RunChunk to_meta_chunk() const;
  // Writes to_json() to `path`; returns false (with a log warning) on I/O
  // failure.
  bool write_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::map<std::string, trace::Stat>> lanes_;
};

// The installed collector, or nullptr when profiling is off. First call
// parses IMC_PROF (dies on garbage via env::str_or_die); an env-installed
// collector writes its report — and folds a "prof" meta chunk into the
// trace sink, when one is installed — at process exit.
Collector* global_collector();
// Test hook: overrides the env collector (nullptr restores it). Returns
// the previous override.
Collector* set_global_collector(Collector* collector);
// True when a collector is installed; sweep::Pool only recruits Meters
// (and pays for clock reads) then.
#if IMC_PROF_ENABLED
inline bool enabled() { return global_collector() != nullptr; }
#else
constexpr bool enabled() { return false; }
#endif

}  // namespace imc::prof
