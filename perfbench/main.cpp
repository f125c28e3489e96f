// The repository benchmark, imc_perfbench (see README.md).
//
//   imc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--refs <references.tsv>] [--trace-out <trace.json>]
//                 [--lanes <W>]
//   imc_perfbench --workload <name> --record --refs <references.tsv>
//
// Each workload is a closed loop: one process submits a seeded batch of
// workflow::Spec worlds to one sweep::Pool of W = min(cores, 4) lanes, the
// next world starting when a lane frees up, and repeats batches (in
// reshuffled order) until --seconds have passed. Every world is checked
// against its recorded reference fingerprint.
//
// Times are CPU seconds scaled to a reference core: CPU seconds leave out
// the time a lane waited for a core on a shared host, and the scale, from a
// probe loop run on every lane before and after each batch, takes out the
// host's drifting core clock (README.md). The wall-clock makespan is
// reported with the per-layer metrics.
//
// --trace 0 prints the end-to-end metrics of that untraced pass. --trace 1
// splits the time between the untraced pass and a traced pass (spans and
// the sweep pool's prof lanes on), then runs the layer probes and prints
// the per-layer metrics. The last stdout line is the JSON result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "probes.h"
#include "prof/prof.h"
#include "spans.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool record = false;
  std::string refs = "perfbench/references.tsv";
  std::string trace_out;
  int lanes = 0;  // 0: min(cores, 4)
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "imc_perfbench: %s\nusage: imc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--refs <file>] "
               "[--trace-out <file>] [--lanes <W>] | --workload <name> "
               "--record\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty() && value[0] != '-';
      if (!have_seed) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0 && o.seconds <= 3600;
      if (!have_seconds) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
      have_trace = true;
    } else if (flag == "--refs") {
      o.refs = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--lanes") {
      o.lanes = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || o.lanes < 1 || o.lanes > 64) {
        usage("bad --lanes " + value);
      }
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!known_workload(o.workload)) usage("unknown workload '" + o.workload + "'");
  if (!o.record && !(have_seed && have_seconds && have_trace)) {
    usage("--seed, --seconds and --trace are required");
  }
  return o;
}

// The 90th percentile (nearest rank) of per-world CPU seconds. A fixed
// percentile, so the tail of a run does not depend on how many batches fit
// in it: every batch of a workload runs worlds of the same mix, and a run on
// a slower host runs fewer batches of it.
constexpr double kTailPercentile = 90;
double tail(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::ceil(kTailPercentile / 100 * static_cast<double>(v.size()));
  return v[static_cast<std::size_t>(std::max(1.0, rank)) - 1];
}

struct Outcome {
  imc::workflow::RunResult result;
  double seconds = 0;      // host (wall-clock) seconds
  double cpu_seconds = 0;  // CPU seconds of the lane that ran it
  std::string error;       // non-empty when workflow::run threw
};

// One pass: batches of worlds until the time is up.
struct Pass {
  std::vector<double> batch_s;      // makespans, host seconds
  std::vector<double> batch_cpu_s;  // process CPU seconds per batch
  std::vector<double> batch_ref_s;  // the same on the reference core
  std::vector<double> scales;       // clock scale of each batch
  std::vector<double> world_s;
  std::vector<double> world_cpu_s;
  std::vector<double> world_ref_s;
  std::vector<World> worlds;      // every world run, in completion order
  std::vector<Outcome> outcomes;  // parallel to `worlds`
  std::size_t first_batch = 0;    // worlds in batch 0
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Bench {
 public:
  Bench(const Options& o, int lanes) : o_(o), pool_(lanes), lanes_(lanes) {}

  bool load_refs() {
    std::string error;
    if (!load_references(o_.refs, refs_, error)) {
      std::fprintf(stderr, "imc_perfbench: %s\n", error.c_str());
      return false;
    }
    return true;
  }

  // Runs `worlds` on the pool; returns per-world outcomes in submission
  // order, the batch's makespan and the process CPU seconds it took. Spans
  // go to `log` when tracing.
  std::vector<Outcome> run_batch(const std::vector<World>& worlds,
                                 double& makespan, double& cpu, SpanLog* log,
                                 int parent, int first_id) {
    std::vector<std::function<Outcome()>> jobs;
    jobs.reserve(worlds.size());
    for (std::size_t i = 0; i < worlds.size(); ++i) {
      const World* w = &worlds[i];
      const int id = first_id + static_cast<int>(i);
      jobs.push_back([w, log, parent, id] {
        Span world_span(log, "world " + w->key, id, parent);
        Outcome o;
        const double t0 = host_seconds();
        const double c0 = thread_cpu_seconds();
        try {
          Span run_span(log, "workflow.run");
          o.result = imc::workflow::run(w->spec);
        } catch (const std::exception& e) {
          o.error = e.what();
        } catch (...) {
          o.error = "unknown exception";
        }
        o.seconds = host_seconds() - t0;
        o.cpu_seconds = thread_cpu_seconds() - c0;
        world_span.arg("host_s", o.seconds);
        world_span.arg("events", static_cast<double>(o.result.events_processed));
        return o;
      });
    }
    const double t0 = host_seconds();
    const double c0 = process_cpu_seconds();
    std::vector<Outcome> out = pool_.run_ordered(std::move(jobs));
    makespan = host_seconds() - t0;
    cpu = process_cpu_seconds() - c0;
    return out;
  }

  // Empty when the world is correct; else why not.
  std::string check(const World& w, const Outcome& o) const {
    if (!o.error.empty()) return "aborted: " + o.error;
    if (!o.result.leaks.empty()) {
      return "leak ledger not empty: " + o.result.leaks.front();
    }
    const auto ref = refs_.find(w.key);
    if (ref == refs_.end()) return "no reference fingerprint";
    if (fingerprint_hash(fingerprint(o.result)) != ref->second) {
      return "fingerprint differs from reference: " + fingerprint(o.result);
    }
    return "";
  }

  void tally(Pass& pass, const World& w, const Outcome& o) {
    ++pass.attempted;
    const std::string why = check(w, o);
    if (!why.empty()) {
      ++pass.failed;
      std::fprintf(stderr, "imc_perfbench: WRONG %s: %s\n", w.key.c_str(),
                   why.c_str());
    }
  }

  // clock_scale() now: the median over all lanes, probed at once.
  double host_scale() {
    std::vector<std::function<double()>> jobs(static_cast<std::size_t>(lanes_),
                                              clock_scale);
    return median(pool_.run_ordered(std::move(jobs)));
  }

  // Set-up: generate the first batch's specs (measure() regenerates them;
  // generating them is part of what set-up costs) and run one warm-up world
  // per lane. Returns the CPU seconds set-up took, summed over the lanes, on
  // the reference core.
  double setup_once(Pass& checks) {
    const double before = host_scale();
    const double t0 = process_cpu_seconds();
    (void)batch_worlds(o_.workload, o_.seed, 0);
    const std::vector<World> warm(static_cast<std::size_t>(lanes_),
                                  warmup_world(o_.workload));
    double makespan = 0, cpu = 0;
    const std::vector<Outcome> out =
        run_batch(warm, makespan, cpu, nullptr, -1, 0);
    const double dt = process_cpu_seconds() - t0;
    for (std::size_t i = 0; i < warm.size(); ++i) tally(checks, warm[i], out[i]);
    return dt * (before + host_scale()) / 2;
  }

  // Batches until `seconds` are used: a batch starts only if a batch of
  // median length still fits (the first always runs).
  Pass measure(SpanLog* log, double seconds) {
    Pass pass;
    Span workload_span(log, "workload " + o_.workload);
    const double start = host_seconds();
    double before = host_scale();
    for (std::uint64_t b = 0;
         b == 0 || host_seconds() - start + median(pass.batch_s) <= seconds;
         ++b) {
      const std::vector<World> worlds = batch_worlds(o_.workload, o_.seed, b);
      double makespan = 0, cpu = 0;
      std::vector<Outcome> out =
          run_batch(worlds, makespan, cpu, log, workload_span.id(),
                    static_cast<int>(pass.worlds.size()));
      const double after = host_scale();
      const double scale = (before + after) / 2;
      before = after;
      pass.batch_s.push_back(makespan);
      pass.batch_cpu_s.push_back(cpu);
      pass.batch_ref_s.push_back(cpu * scale);
      pass.scales.push_back(scale);
      if (b == 0) pass.first_batch = worlds.size();
      for (std::size_t i = 0; i < worlds.size(); ++i) {
        tally(pass, worlds[i], out[i]);
        pass.world_s.push_back(out[i].seconds);
        pass.world_cpu_s.push_back(out[i].cpu_seconds);
        pass.world_ref_s.push_back(out[i].cpu_seconds * scale);
        pass.worlds.push_back(worlds[i]);
        pass.outcomes.push_back(std::move(out[i]));
      }
    }
    return pass;
  }

  int record() {
    std::string error;
    load_references(o_.refs, refs_, error);  // keep other workloads' entries
    const std::vector<World> all = family(o_.workload);
    std::vector<std::function<Outcome()>> jobs;
    for (const World& w : all) {
      jobs.push_back([&w] {
        Outcome o;
        o.result = imc::workflow::run(w.spec);
        return o;
      });
    }
    const std::vector<Outcome> out = pool_.run_ordered(std::move(jobs));
    int bad = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& r = out[i].result;
      if (!r.ok || !r.leaks.empty() || r.fault.fallback_activated) {
        std::fprintf(stderr, "imc_perfbench: not recordable %s: %s%s\n",
                     all[i].key.c_str(), r.failure_summary().c_str(),
                     r.leaks.empty() ? "" : " (leaks)");
        ++bad;
      }
      refs_[all[i].key] = fingerprint_hash(fingerprint(r));
    }
    if (bad != 0) return 1;
    if (!save_references(o_.refs, refs_)) return 1;
    std::printf("recorded %zu worlds of %s into %s\n", all.size(),
                o_.workload.c_str(), o_.refs.c_str());
    return 0;
  }

  int lanes() const { return lanes_; }
  imc::sweep::Pool& pool() { return pool_; }

 private:
  const Options& o_;
  imc::sweep::Pool pool_;
  int lanes_;
  References refs_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Sum of one stat over the pool's caller lane (`caller`) or its worker lanes.
double stat_sum(
    const std::map<std::string, std::map<std::string, imc::trace::Stat>>& lanes,
    const std::string& stat, bool caller) {
  double total = 0;
  for (const auto& [lane, stats] : lanes) {
    if ((lane == "caller") != caller) continue;
    const auto it = stats.find(stat);
    if (it != stats.end()) total += it->second.sum;
  }
  return total;
}

// Per-layer metrics of the traced pass, from the probe replays, the worlds'
// own counters and the pool's prof lanes.
std::vector<Metric> layer_metrics(Bench& bench, const Options& o,
                                  const Pass& untraced, const Pass& traced,
                                  const imc::prof::Collector& lanes,
                                  SpanLog& log, std::uint64_t attempted,
                                  std::uint64_t failed) {
  // Replay each distinct geometry four times on the pool, so at W lanes the
  // probes see the memory-bandwidth contention the worlds did.
  std::map<std::string, imc::workflow::Spec> geometries;
  for (std::size_t i = 0; i < traced.first_batch; ++i) {
    geometries.emplace(geometry_key(traced.worlds[i].spec), traced.worlds[i].spec);
  }
  std::vector<std::string> keys;
  std::vector<std::function<GeometryCost()>> jobs;
  for (const auto& [key, spec] : geometries) {
    for (int replica = 0; replica < 4; ++replica) {
      keys.push_back(key);
      jobs.push_back([&spec, replica, &log] {
        return replay_geometry(spec, replica, &log);
      });
    }
  }
  std::map<std::string, GeometryCost> cost;
  const std::vector<GeometryCost> replays = bench.pool().run_ordered(std::move(jobs));
  for (std::size_t i = 0; i < replays.size(); ++i) cost[keys[i]].add(replays[i]);
  GeometryCost all;
  for (const auto& [key, c] : cost) all.add(c);

  // Estimated layer seconds over every traced world.
  std::map<std::string, WorldCalls> calls_of;
  double world_total = 0, advance_s = 0, output_s = 0, analysis_s = 0,
         copy_s = 0, query_s = 0;
  std::uint64_t events_total = 0, fallbacks = 0;
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < traced.worlds.size(); ++i) {
    const imc::workflow::Spec& spec = traced.worlds[i].spec;
    const std::string& key = traced.worlds[i].key;
    auto it = calls_of.find(key);
    if (it == calls_of.end()) it = calls_of.emplace(key, world_calls(spec)).first;
    const WorldCalls& c = it->second;
    const GeometryCost& g = cost[geometry_key(spec)];
    const double adv = c.advance * g.advance.per_call();
    const double out = c.output * g.output.per_call();
    const double ana = c.analysis * g.analysis.per_call();
    const double cp = c.extract * g.extract.per_call() +
                      c.fill_from * g.fill_from.per_call();
    const double q = c.query * g.query.per_call();
    advance_s += adv;
    output_s += out;
    analysis_s += ana;
    copy_s += cp;
    query_s += q;
    const Outcome& oc = traced.outcomes[i];
    world_total += oc.seconds;
    unattributed.push_back(oc.seconds - (adv + out + ana + cp + q));
    events_total += oc.result.events_processed;
    fallbacks += oc.result.fault.fallback_activated ? 1 : 0;
  }

  // Counts of one batch (the seed's world set).
  double batch_events = 0, transfers = 0, bytes_moved = 0, retries = 0,
         replica_bytes = 0, resilver = 0, degraded = 0, bytes_copied = 0;
  for (std::size_t i = 0; i < traced.first_batch; ++i) {
    const auto& r = traced.outcomes[i].result;
    batch_events += static_cast<double>(r.events_processed);
    transfers += static_cast<double>(r.transfers);
    bytes_moved += r.bytes_moved;
    retries += static_cast<double>(r.fault.retries);
    replica_bytes += static_cast<double>(r.repl.replica_bytes);
    resilver += static_cast<double>(r.repl.resilver_copies);
    degraded += static_cast<double>(r.repl.degraded_gets);
    bytes_copied += calls_of[traced.worlds[i].key].bytes_copied;
  }

  const World probe_world = warmup_world(o.workload);
  const double event_ns = engine_event_ns(&log);
  const double reserve_ns = fabric_reserve_ns(probe_world.spec, &log);
  const double put_get_us = dataspaces_put_get_us(probe_world.spec, &log);

  const auto lane_stats = lanes.lanes();
  double sweep_total = 0;
  for (double b : traced.batch_s) sweep_total += b;
  const double busy = stat_sum(lane_stats, "job.run", false);
  // Lane-seconds with no world running: W lanes over the caller's join
  // wait, less the workers' world time. The one-lane pool runs inline and
  // has no caller lane; its lane span is the whole wait.
  double join = stat_sum(lane_stats, "pool.join", true);
  if (join == 0) join = stat_sum(lane_stats, "worker.span", false);
  const double idle = bench.lanes() * join - busy;
  const double share = world_total > 0 ? 1.0 / world_total : 0.0;
  const double n_worlds = static_cast<double>(std::max<std::size_t>(1, traced.worlds.size()));

  return {
      {"apps.advance_ms", all.advance.per_call() * 1e3, "ms"},
      {"apps.advance_share", advance_s * share, "ratio"},
      {"apps.output_ms", all.output.per_call() * 1e3, "ms"},
      {"apps.output_share", output_s * share, "ratio"},
      {"apps.analysis_ms", all.analysis.per_call() * 1e3, "ms"},
      {"ndarray.extract_ms", all.extract.per_call() * 1e3, "ms"},
      {"ndarray.fill_from_ms", all.fill_from.per_call() * 1e3, "ms"},
      {"ndarray.copy_share", copy_s * share, "ratio"},
      {"ndarray.bytes_copied_gb", bytes_copied / 1e9, "GB"},
      {"ndarray.index_query_us", all.query.per_call() * 1e6, "us"},
      {"ndarray.index_share", query_s * share, "ratio"},
      {"sim.events", batch_events, "count"},
      {"sim.host_ns_per_event",
       events_total ? world_total * 1e9 / static_cast<double>(events_total) : 0,
       "ns"},
      {"sim.event_ns", event_ns, "ns"},
      {"dataspaces.put_get_us", put_get_us, "us"},
      {"net.transfers", transfers, "count"},
      {"net.bytes_moved_gb", bytes_moved / 1e9, "GB"},
      {"net.reserve_ns", reserve_ns, "ns"},
      {"fault.retries", retries, "count"},
      {"fault.fallback_share", static_cast<double>(fallbacks) / n_worlds, "ratio"},
      {"repl.replica_gb", replica_bytes / 1e9, "GB"},
      {"repl.resilver_copies", resilver, "count"},
      {"repl.degraded_gets", degraded, "count"},
      {"sweep.makespan_s", median(untraced.batch_s), "s"},
      {"sweep.busy_s", busy, "s"},
      {"sweep.utilization",
       sweep_total > 0 ? busy / (bench.lanes() * sweep_total) : 0, "ratio"},
      {"sweep.idle_s", idle, "s"},
      {"sweep.flush_s", stat_sum(lane_stats, "pool.flush", true), "s"},
      {"workflow.world_s", world_total / n_worlds, "s"},
      {"workflow.unattributed_s", median(unattributed), "s"},
      {"trace.overhead_ratio",
       median(traced.batch_ref_s) / median(untraced.batch_ref_s), "ratio"},
      {"error_rate",
       attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
       "ratio"},
  };
}

void print_self_times(const SpanLog& log) {
  const std::vector<SpanRecord> recs = log.records();
  const std::map<int, double> self = SpanLog::self_seconds(recs);
  std::map<std::string, std::pair<std::size_t, std::pair<double, double>>> by_name;
  for (const SpanRecord& r : recs) {
    std::string name = r.name.substr(0, r.name.find(' '));
    auto& e = by_name[name];
    ++e.first;
    e.second.first += r.end - r.start;
    e.second.second += self.at(r.id);
  }
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, e] : by_name) {
    std::printf("%-28s %8zu %12.4f %12.4f\n", name.c_str(), e.first,
                e.second.first, e.second.second);
  }
}

int run_main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const imc::prof::HostInfo& host = imc::prof::host();
  if (host.build_type != "Release") {
    std::fprintf(stderr,
                 "imc_perfbench: refusing to report timings from a '%s' "
                 "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 host.build_type.c_str());
    return 2;
  }
  // --lanes exists for the gprof comparison, which needs one lane because
  // gprof samples only the main thread.
  const int lanes = o.lanes > 0 ? o.lanes : std::clamp(host.cores, 1, 4);
  Bench bench(o, o.record ? 1 : lanes);
  if (o.record) return bench.record();
  if (!bench.load_refs()) return 2;

  std::printf("host: cores=%d cpu=\"%s\" build=%s lanes=%d workload=%s "
              "seed=%llu seconds=%g trace=%d\n",
              host.cores, host.cpu_model.c_str(), host.build_type.c_str(),
              lanes, o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);

  Pass checks;  // warm-up worlds are checked too
  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) setups.push_back(bench.setup_once(checks));
  const double setup_s = median(setups);

  // With --trace 1 the untraced and traced passes share the run's seconds.
  const double pass_seconds = o.trace ? o.seconds / 2 : o.seconds;
  const Pass untraced = bench.measure(nullptr, pass_seconds);
  const imc::prof::Rusage rusage = imc::prof::read_rusage();
  const double world_tail = tail(untraced.world_ref_s);
  std::printf("untraced: batches=%zu worlds=%zu sweep_cpu_s=%.4f "
              "world_cpu_p50_s=%.4f world_cpu_tail_s=%.4f at p%g of n=%zu; "
              "clock scale=%.4f; unscaled CPU: sweep=%.4f world_p50=%.4f; "
              "wall: makespan=%.4f world_p50=%.4f\n",
              untraced.batch_s.size(), untraced.world_s.size(),
              median(untraced.batch_ref_s), median(untraced.world_ref_s),
              world_tail, kTailPercentile, untraced.world_s.size(),
              median(untraced.scales), median(untraced.batch_cpu_s),
              median(untraced.world_cpu_s), median(untraced.batch_s),
              median(untraced.world_s));

  std::uint64_t attempted = checks.attempted + untraced.attempted;
  std::uint64_t failed = checks.failed + untraced.failed;
  if (!o.trace) {
    print_result(failed == 0, attempted, failed,
                 {{"setup_s", setup_s, "s"},
                  {"sweep_cpu_s", median(untraced.batch_ref_s), "s"},
                  {"world_cpu_p50_s", median(untraced.world_ref_s), "s"},
                  {"world_cpu_tail_s", world_tail, "s"},
                  {"peak_rss_mb", static_cast<double>(rusage.max_rss_kb) / 1024.0,
                   "MB"}});
    return 0;
  }

  SpanLog log;
  imc::prof::Collector collector;
  imc::prof::Collector* previous = imc::prof::set_global_collector(&collector);
  const Pass traced = bench.measure(&log, pass_seconds);
  imc::prof::set_global_collector(previous);
  attempted += traced.attempted;
  failed += traced.failed;
  const std::vector<Metric> metrics = layer_metrics(
      bench, o, untraced, traced, collector, log, attempted, failed);
  print_self_times(log);
  if (!o.trace_out.empty()) {
    char other[512];
    std::snprintf(other, sizeof other,
                  "{\"workload\":\"%s\",\"seed\":%llu,\"lanes\":%d,"
                  "\"cores\":%d,\"build_type\":\"%s\"}",
                  o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                  lanes, host.cores, host.build_type.c_str());
    if (!log.write_chrome_trace(o.trace_out, other, collector.to_json())) {
      std::fprintf(stderr, "imc_perfbench: cannot write %s\n",
                   o.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %s\n", o.trace_out.c_str());
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
