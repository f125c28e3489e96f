// In-memory spans for the benchmark's traced pass, and the host-clock
// helpers every timing in the benchmark uses.
//
// The benchmark records spans from its own code around the calls it makes
// into the simulator's modules: workload -> world (workflow::run) -> probe
// call. Spans of one world share its id. Nothing is written until the run
// ends; write_chrome_trace() then renders Chrome trace JSON, the format
// IMC_TRACE exports, so both open in the same viewer.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Seconds on the host's monotonic clock since the first call.
double host_seconds();

// CPU seconds the calling thread, and the whole process, have run. On a
// shared host these leave out the time a lane waited for a core (and, on a
// guest with paravirtual steal accounting, the time the hypervisor took the
// core away), which wall-clock times do not.
double thread_cpu_seconds();
double process_cpu_seconds();

// The factor that scales CPU seconds the calling thread's core runs now to
// a reference core: 3 ms over the CPU time of a fixed chain of 2^20
// dependent multiply-adds (the benchmark's own loop, no simulator code, so
// a change to the simulator cannot move it). A shared host's core clock
// drifts by a fifth within minutes, and CPU seconds follow it.
double clock_scale();

// Median of `v` (0 when empty).
double median(std::vector<double> v);

struct SpanRecord {
  int id = 0;
  int parent = -1;  // -1: root
  int world = -1;   // world id shared by the world's spans; -1: none
  int lane = 0;     // recording thread, in order of first use
  std::string name;
  double start = 0;  // host seconds
  double end = 0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanLog {
 public:
  // Opens a span on the calling thread; its parent is `parent` when given,
  // else the innermost span open on that thread. Returns the span id.
  int open(std::string name, int world, int parent = -1);
  void close(int id);
  void arg(int id, std::string key, double value);

  std::vector<SpanRecord> records() const;

  // Host seconds each span covers that none of its children do.
  static std::map<int, double> self_seconds(
      const std::vector<SpanRecord>& records);

  // Writes the spans (with their self time) as Chrome trace events.
  // `other_data` and `extra` are raw JSON object texts placed under
  // "otherData" and "imcProf".
  bool write_chrome_trace(const std::string& path,
                          const std::string& other_data,
                          const std::string& extra) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
};

// RAII span; inert when `log` is null, so untraced passes pay nothing.
class Span {
 public:
  Span(SpanLog* log, std::string name, int world = -1, int parent = -1)
      : log_(log),
        id_(log ? log->open(std::move(name), world, parent) : -1) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  int id() const { return id_; }
  void arg(std::string key, double value) {
    if (log_ != nullptr) log_->arg(id_, std::move(key), value);
  }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
