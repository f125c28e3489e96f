// imc::world: the one thread binding behind every per-world service —
// nesting and LIFO restore through normal exit and exception unwind, the
// flush-don't-drop contract for log and trace-chunk captures, and
// workflow::run setting (not inheriting) its per-world fields.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/audit.h"
#include "common/log.h"
#include "common/world.h"
#include "fault/fault.h"
#include "prof/prof.h"
#include "repl/repl.h"
#include "sim/engine.h"
#include "trace/trace.h"
#include "workflow/workflow.h"

namespace imc {
namespace {

// What every accessor resolves to; compared field by field so a failure
// names the accessor that resolved wrongly.
struct Resolved {
  const audit::Auditor* auditor;
  const arena::Arena* arena;
  const trace::Recorder* recorder;
  const prof::Meter* meter;
  const fault::Injector* injector;
  const repl::Coordinator* coordinator;
};

Resolved resolve() {
  return {&audit::global(), arena::current(), trace::global(),
          prof::meter(),    fault::active(),  repl::active()};
}

void expect_resolved(const Resolved& want, const char* where) {
  const Resolved got = resolve();
  EXPECT_EQ(got.auditor, want.auditor) << where;
  EXPECT_EQ(got.arena, want.arena) << where;
  EXPECT_EQ(got.recorder, want.recorder) << where;
  EXPECT_EQ(got.meter, want.meter) << where;
  EXPECT_EQ(got.injector, want.injector) << where;
  EXPECT_EQ(got.coordinator, want.coordinator) << where;
}

// One full set of services, bound by bind().
struct Services {
  explicit Services(const std::string& name)
      : recorder(engine, name, 16), meter(name), injector(fault_plan()),
        coordinator(repl::Policy{}) {}

  static fault::Plan fault_plan() {
    fault::Plan plan;
    plan.packet_loss = 0.5;
    return plan;
  }

  void bind(world::Scope& scope) {
    scope->auditor = &auditor;
    scope->arena = &arena;
    scope->recorder = &recorder;
    scope->meter = &meter;
    scope->injector = &injector;
    scope->coordinator = &coordinator;
    scope->log = &log;
    scope->chunks = &chunks;
  }

  // Accessors fold away to nullptr when a compile gate is off.
  Resolved expected() {
    return {&auditor,
            &arena,
            IMC_TRACE_ENABLED ? &recorder : nullptr,
            IMC_PROF_ENABLED ? &meter : nullptr,
            &injector,
            &coordinator};
  }

  sim::Engine engine;
  audit::Auditor auditor;
  arena::Arena arena;
  trace::Recorder recorder;
  prof::Meter meter;
  fault::Injector injector;
  repl::Coordinator coordinator;
  LogText log;
  std::vector<trace::RunChunk> chunks;
};

trace::RunChunk labeled_chunk(const std::string& label) {
  sim::Engine engine;
  trace::Recorder recorder(engine, label, 16);
  return recorder.take_chunk();
}

// Checks the hooks that write rather than return: a log line, a trace
// chunk and a coroutine frame all land in `s`'s services.
void expect_hooks_land_in(Services& s, const std::string& mark) {
  const std::size_t log_bytes = s.log.size();
  log_message(LogLevel::kWarn, mark);
  EXPECT_GT(s.log.size(), log_bytes) << mark;
  EXPECT_NE(s.log.str().find(mark), std::string::npos) << mark;

  const std::size_t chunk_count = s.chunks.size();
  trace::emit_chunk(labeled_chunk(mark));
  ASSERT_EQ(s.chunks.size(), chunk_count + 1) << mark;
  EXPECT_EQ(s.chunks.back().label, mark);

  const std::uint64_t frames = s.arena.outstanding();
  void* frame = arena::frame_allocate(64);
  EXPECT_EQ(s.arena.outstanding(), frames + 1) << mark;
  arena::frame_free(frame);
  EXPECT_EQ(s.arena.outstanding(), frames) << mark;
}

TEST(World, DefaultContextHasTheProcessAuditorAndNothingElse) {
  const audit::Auditor* fallback = &audit::global();
  ASSERT_NE(fallback, nullptr);
  expect_resolved({fallback, nullptr, nullptr, nullptr, nullptr, nullptr},
                  "unbound");
  EXPECT_EQ(world::current().log, nullptr);
  EXPECT_EQ(world::current().chunks, nullptr);
  {
    world::Scope scope;  // inherits: binding a copy changes nothing
    expect_resolved({fallback, nullptr, nullptr, nullptr, nullptr, nullptr},
                    "inherited");
  }
  EXPECT_EQ(&audit::global(), fallback);
}

TEST(World, NestedScopesResolveInnermostAndRestoreLifo) {
  const Resolved unbound = resolve();
  Services outer("outer");
  Services inner("inner");
  {
    world::Scope bind_outer;
    outer.bind(bind_outer);
    expect_resolved(outer.expected(), "outer");
    expect_hooks_land_in(outer, "outer-before");
    {
      world::Scope bind_inner;
      inner.bind(bind_inner);
      expect_resolved(inner.expected(), "inner");
      expect_hooks_land_in(inner, "inner");
      inner.log.clear();
      inner.chunks.clear();
    }
    expect_resolved(outer.expected(), "outer after normal exit");
    expect_hooks_land_in(outer, "outer-after-exit");

    try {
      world::Scope bind_inner;
      inner.bind(bind_inner);
      expect_resolved(inner.expected(), "inner before throw");
      throw std::runtime_error("unwind");
    } catch (const std::runtime_error&) {
      expect_resolved(outer.expected(), "outer after exception");
    }
    expect_hooks_land_in(outer, "outer-after-throw");
    outer.log.clear();
    outer.chunks.clear();
  }
  expect_resolved(unbound, "unbound again");
}

TEST(World, ScopeFieldsCanBeSetAfterConstruction) {
  // workflow::run binds its recorder once the engine exists.
  sim::Engine engine;
  trace::Recorder recorder(engine, "late", 16);
  world::Scope scope;
  EXPECT_EQ(trace::global(), nullptr);
  scope->recorder = &recorder;
  EXPECT_EQ(trace::global(), IMC_TRACE_ENABLED ? &recorder : nullptr);
  scope->recorder = nullptr;
  EXPECT_EQ(trace::global(), nullptr);
}

TEST(World, UntakenCapturesForwardToTheEnclosingCapture) {
  LogText outer_log;
  std::vector<trace::RunChunk> outer_chunks;
  world::Scope bind_outer;
  bind_outer->log = &outer_log;
  bind_outer->chunks = &outer_chunks;

  // Normal exit.
  {
    LogText log;
    std::vector<trace::RunChunk> chunks;
    world::Scope scope;
    scope->log = &log;
    scope->chunks = &chunks;
    log_message(LogLevel::kWarn, "left behind");
    trace::emit_chunk(labeled_chunk("left behind"));
    {
      world::Scope inherits;  // same captures: forwards nothing on exit
    }
    EXPECT_EQ(outer_log.size(), 0u);
    EXPECT_TRUE(outer_chunks.empty());
  }
  EXPECT_EQ(outer_log.str(), "[WARN] left behind\n");
  ASSERT_EQ(outer_chunks.size(), 1u);
  EXPECT_EQ(outer_chunks[0].label, "left behind");

  // Exception unwind.
  try {
    LogText log;
    std::vector<trace::RunChunk> chunks;
    world::Scope scope;
    scope->log = &log;
    scope->chunks = &chunks;
    log_message(LogLevel::kWarn, "unwound");
    trace::emit_chunk(labeled_chunk("unwound"));
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(outer_log.str(), "[WARN] left behind\n[WARN] unwound\n");
  ASSERT_EQ(outer_chunks.size(), 2u);
  EXPECT_EQ(outer_chunks[1].label, "unwound");
}

TEST(World, OutermostUntakenChunksReachTheSink) {
  trace::Sink sink;
  trace::Sink* previous = trace::set_global_sink(&sink);
  {
    std::vector<trace::RunChunk> chunks;
    world::Scope scope;
    scope->chunks = &chunks;
    trace::emit_chunk(labeled_chunk("to-sink"));
    EXPECT_EQ(sink.size(), 0u);
  }
  trace::set_global_sink(previous);
  EXPECT_EQ(sink.size(), 1u);
}

// workflow::run sets its per-world fields instead of inheriting them: a
// fault-free, unreplicated world run inside a Scope that binds a lossy
// injector and a factor-3 coordinator must match the same world run
// unbound, byte for byte.
TEST(World, WorkflowRunSetsPerWorldFieldsInsteadOfInheriting) {
  workflow::Spec spec;
  spec.app = workflow::AppSel::kLaplace;
  spec.method = workflow::MethodSel::kDataspacesNative;
  spec.machine = hpc::titan();
  spec.nsim = 8;
  spec.nana = 4;
  spec.steps = 2;
  spec.laplace_rows = 64;
  spec.laplace_cols_per_proc = 64;
  const workflow::RunResult unbound = workflow::run(spec);
  ASSERT_TRUE(unbound.ok) << unbound.failure_summary();

  fault::Plan plan;
  plan.packet_loss = 0.5;
  plan.rdma_flap = 0.5;
  plan.server_crash = {1e-3, 0};
  fault::Injector injector(plan);
  repl::Policy policy;
  policy.factor = 3;
  repl::Coordinator coordinator(policy);
  world::Scope scope;
  scope->injector = &injector;
  scope->coordinator = &coordinator;
  const workflow::RunResult bound = workflow::run(spec);

  EXPECT_TRUE(bound.ok) << bound.failure_summary();
  EXPECT_EQ(bound.run_digest, unbound.run_digest);
  EXPECT_EQ(bound.fault.injected, 0u);
  EXPECT_EQ(bound.fault.retries, 0u);
  EXPECT_EQ(bound.fault.server_crashes, 0u);
  EXPECT_FALSE(bound.fault.fallback_activated);
  EXPECT_EQ(bound.repl.factor, 1);
  EXPECT_EQ(bound.repl.replica_puts, 0u);
  EXPECT_EQ(bound.repl.degraded_gets, 0u);
  EXPECT_EQ(injector.stats().injected, 0u);
  EXPECT_EQ(coordinator.stats().replica_puts, 0u);
  // The caller's binding is intact afterwards.
  EXPECT_EQ(fault::active(), &injector);
  EXPECT_EQ(repl::active(), &coordinator);
}

}  // namespace
}  // namespace imc
