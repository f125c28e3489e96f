#include "sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "common/buffer_pool.h"
#include "common/env.h"
#include "prof/prof.h"

namespace imc::sweep {
namespace {

// IMC_TRACE_SWEEP=1 publishes wall-clock worker-occupancy spans (sweep.job
// / sweep.idle) into the trace sink as a meta chunk. Off by default: the
// spans are wall-clock by nature (they describe the host pool, not any
// simulated world) and therefore live outside the byte-identity contracts.
bool occupancy_spans_enabled() {
  static const bool value =
      env::int_or_die("IMC_TRACE_SWEEP", 0, 0, 1) == 1;
  return value;
}

// Wall-clock seconds since `origin`. Confined to the occupancy-span
// diagnostics; simulated-world timestamps must come from sim::Engine.
double seconds_since(
    std::chrono::steady_clock::time_point origin) {  // imc-analyze: allow(wall-clock)
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - origin)  // imc-analyze: allow(wall-clock)
      .count();
}

// Cumulative counters of the worker thread and its reused context,
// snapshotted before a job so the job's own deltas can be recorded.
struct Counters {
  std::uint64_t allocations = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t heap_fallbacks = 0;
  buffer_pool::Stats buffers;
  prof::ThreadUsage usage;
};

Counters read_counters(const arena::Arena& arena) {
  return Counters{arena.allocations(), arena.pool_hits(),
                  arena.heap_fallbacks(), buffer_pool::thread_stats(),
                  prof::read_thread_usage()};
}

// Resource accounting for one finished job, attributed to the worker's
// prof lane: deltas of the counters snapshotted in `before` (the world ran
// wholly on this thread, so the thread's kernel cost and buffer-pool
// traffic are the world's own), the arena's and buffer pool's levels, and
// log/trace figures straight from the retained captures. Wall-clock-free,
// but still prof-only: nothing recorded here may reach a digest (DESIGN.md
// §14), which is exactly what the prof meta channel guarantees.
void note_world_stats(prof::Meter& m, const arena::Arena& arena,
                      const Counters& before, const LogText& logs,
                      const std::vector<trace::RunChunk>& chunks) {
  const Counters after = read_counters(arena);
  m.sample("arena.reserved_bytes",
           static_cast<double>(arena.reserved_bytes()));
  m.sample("arena.outstanding", static_cast<double>(arena.outstanding()));
  m.count("arena.allocations",
          static_cast<double>(after.allocations - before.allocations));
  m.count("arena.pool_hits",
          static_cast<double>(after.pool_hits - before.pool_hits));
  m.count("arena.heap_fallbacks",
          static_cast<double>(after.heap_fallbacks - before.heap_fallbacks));
  m.count("buffer_pool.hits",
          static_cast<double>(after.buffers.hits - before.buffers.hits));
  m.count("buffer_pool.misses",
          static_cast<double>(after.buffers.misses - before.buffers.misses));
  m.count("buffer_pool.evictions",
          static_cast<double>(after.buffers.evictions -
                              before.buffers.evictions));
  m.sample("buffer_pool.idle_bytes",
           static_cast<double>(buffer_pool::stats().idle_bytes));
  if (before.usage.ok && after.usage.ok) {
    m.timing("world.sys_s", after.usage.sys_s - before.usage.sys_s);
    m.count("world.minor_faults",
            static_cast<double>(after.usage.minor_faults -
                                before.usage.minor_faults));
  }
  m.count("log.captured_bytes", static_cast<double>(logs.size()));
  m.count("log.captured_chunks", static_cast<double>(logs.chunks().size()));
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  for (const trace::RunChunk& chunk : chunks) {
    events += chunk.spans.size() + chunk.counters.size();
    dropped += chunk.dropped_events;
  }
  m.count("trace.chunks", static_cast<double>(chunks.size()));
  m.count("trace.events_recorded", static_cast<double>(events));
  m.count("trace.events_dropped", static_cast<double>(dropped));
}

}  // namespace

void WorldContext::run(const std::function<void()>& job) {
  // Rewind, then bind. The ledger clears unconditionally; the arena only
  // rewinds its cursor when no blocks are outstanding (a leaked frame keeps
  // its storage valid and merely forgoes the rewind).
  auditor_.reset();
  arena_.reset();
  LogText logs;
  std::vector<trace::RunChunk> chunks;
  world::Scope scope;
  scope->auditor = &auditor_;
  scope->arena = &arena_;
  scope->log = &logs;
  scope->chunks = &chunks;
  // Per-job resource accounting needs before-values of the cumulative
  // counters; prof::meter() is a constexpr nullptr when the IMC_PROF
  // compile option is off, so all of this folds away.
  prof::Meter* const meter = prof::meter();
  const Counters before = meter ? read_counters(arena_) : Counters{};
  // Keeps the captures (taken, so the Scope forwards nothing) on every
  // exit, the exceptional one included.
  auto keep = [&] {
    logs_ = std::move(logs);
    chunks_ = std::move(chunks);
    if (meter != nullptr) {
      note_world_stats(*meter, arena_, before, logs_, chunks_);
    }
  };
  try {
    job();
  } catch (...) {
    keep();
    throw;
  }
  keep();
}

int default_threads() {
  static const int value = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(
        env::int_or_die("IMC_THREADS", hw == 0 ? 1 : hw, 1, 512));
  }();
  return value;
}

Pool::Pool(int threads)
    : threads_(threads <= 0 ? default_threads() : threads) {}

void Pool::run_indexed(std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t width = std::min(static_cast<std::size_t>(threads_), n);

  // Wall-clock profiling lanes (imc::prof): only recruited when a
  // collector is installed (IMC_PROF=<path> or a test collector), so the
  // default cost of all the hooks below is a thread-local null check.
  const bool prof_on = prof::enabled();

  if (width <= 1) {
    // Sequential path: jobs run inline in submission order on one reused
    // context; each job's log flushes as soon as it finishes, trace chunks
    // emit in order, exceptions propagate immediately (after flushing).
    WorldContext world;
    prof::Meter meter("sequential");
    world::Scope lane;
    const double lane_start = prof_on ? prof::wall_seconds() : 0.0;
    if (prof_on) lane->meter = &meter;
    auto fold_lane = [&meter, prof_on, lane_start] {
      if (!prof_on) return;
      meter.timing("worker.span", prof::wall_seconds() - lane_start);
      prof::global_collector()->fold(meter);
    };
    for (std::size_t i = 0; i < n; ++i) {
      prof::Timer run_timer = prof::timer("job.run");
      try {
        world.run([&fn, i] { fn(i); });
      } catch (...) {
        run_timer.stop();
        prof::Timer flush_timer = prof::timer("job.flush");
        write_log_output(world.take_logs());
        for (trace::RunChunk& chunk : world.take_chunks()) {
          trace::emit_chunk(std::move(chunk));
        }
        flush_timer.stop();
        fold_lane();
        throw;
      }
      run_timer.stop();
      prof::count("jobs");
      prof::Timer flush_timer = prof::timer("job.flush");
      write_log_output(world.take_logs());
      for (trace::RunChunk& chunk : world.take_chunks()) {
        trace::emit_chunk(std::move(chunk));
      }
      flush_timer.stop();
    }
    fold_lane();
    return;
  }

  std::vector<LogText> logs(n);
  std::vector<std::vector<trace::RunChunk>> chunks(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};

  // Optional worker-occupancy diagnostics (see occupancy_spans_enabled).
  const bool spans_on = occupancy_spans_enabled() && trace::enabled();
  std::vector<std::vector<trace::SpanEvent>> worker_spans(width);
  const auto origin = std::chrono::steady_clock::now();  // imc-analyze: allow(wall-clock)

  // The caller's own lane: dispatch cost, join wait (which is the whole
  // sweep's wall time from this thread's perspective), and the ordered
  // result-flush cost — the part the 0.58× scaling investigation needs to
  // separate from worker idle time. Meters live out here so they survive
  // the workers and fold after the join.
  prof::Meter caller_meter("caller");
  world::Scope caller_lane;
  std::vector<std::unique_ptr<prof::Meter>> worker_meters;
  if (prof_on) {
    caller_lane->meter = &caller_meter;
    caller_meter.sample("pool.width", static_cast<double>(width));
    worker_meters.reserve(width);
    for (std::size_t w = 0; w < width; ++w) {
      worker_meters.push_back(
          std::make_unique<prof::Meter>("worker" + std::to_string(w)));
    }
  }

  auto work = [&logs, &chunks, &errors, &next, &abort, &fn, n, spans_on,
               &worker_spans, origin, prof_on,
               &worker_meters](std::size_t w) {
    // One reusable world per worker: auditor ledgers, arena chunks, and
    // capture buffers are recruited once and rebound per job.
    WorldContext world;
    std::vector<trace::SpanEvent>& spans = worker_spans[w];
    double idle_since = spans_on ? seconds_since(origin) : 0.0;
    world::Scope lane;
    double lane_start = 0.0;
    double idle_mark = 0.0;
    if (prof_on) {
      lane->meter = worker_meters[w].get();
      lane_start = prof::wall_seconds();
      idle_mark = lane_start;
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (abort.load(std::memory_order_acquire)) break;
      if (spans_on) {
        const double now = seconds_since(origin);
        if (now > idle_since) {
          spans.push_back(trace::SpanEvent{
              "sweep.idle", trace::Track{-1, static_cast<int>(w) + 1},
              idle_since, now, {}});
        }
        idle_since = now;
      }
      if (prof_on) {
        worker_meters[w]->timing("idle", prof::wall_seconds() - idle_mark);
      }
      prof::Timer run_timer = prof::timer("job.run");
      try {
        world.run([&fn, i] { fn(i); });
      } catch (...) {
        errors[i] = std::current_exception();
        abort.store(true, std::memory_order_release);
      }
      run_timer.stop();
      prof::count("jobs");
      logs[i] = world.take_logs();
      chunks[i] = world.take_chunks();
      if (prof_on) idle_mark = prof::wall_seconds();
      if (spans_on) {
        const double now = seconds_since(origin);
        spans.push_back(trace::SpanEvent{
            "sweep.job", trace::Track{-1, static_cast<int>(w) + 1},
            idle_since, now,
            {{"job", static_cast<double>(i)}}});
        idle_since = now;
      }
    }
    if (prof_on) {
      worker_meters[w]->timing("worker.span",
                               prof::wall_seconds() - lane_start);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(width);
  prof::Timer dispatch_timer = prof::timer("pool.dispatch");
  for (std::size_t w = 0; w < width; ++w) workers.emplace_back(work, w);
  dispatch_timer.stop();
  // Joining here (success or failure) is what "drains cleanly" means: by
  // the time control returns to the submitter no worker is running and
  // every started job has either a result slot or an exception recorded.
  prof::Timer join_timer = prof::timer("pool.join");
  for (auto& worker : workers) worker.join();
  join_timer.stop();

  if (spans_on) {
    trace::RunChunk occupancy;
    occupancy.label = "sweep-pool";
    for (std::vector<trace::SpanEvent>& spans : worker_spans) {
      for (trace::SpanEvent& span : spans) {
        occupancy.spans.push_back(std::move(span));
      }
    }
    if (!occupancy.spans.empty()) {
      trace::global_sink()->add_meta(std::move(occupancy));
    }
  }

  // Flush per-job captures in submission order so log bytes and trace
  // chunks land identically at every worker count.
  {
    prof::Timer flush_timer = prof::timer("pool.flush");
    for (std::size_t i = 0; i < n; ++i) {
      prof::Timer job_flush = prof::timer("job.flush");
      write_log_output(logs[i]);
      for (trace::RunChunk& chunk : chunks[i]) {
        trace::emit_chunk(std::move(chunk));
      }
    }
  }
  if (prof_on) {
    prof::Collector* collector = prof::global_collector();
    for (const auto& meter : worker_meters) collector->fold(*meter);
    collector->fold(caller_meter);
  }
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace imc::sweep
