#!/usr/bin/env python3
"""Merge perf baselines, prof reports, and sweep-scaling tables into a
markdown dashboard with per-host history and regression detection.

Three inputs, all optional but at least one required for `report`:
  - BENCH_perf.json        (scripts/bench.py full mode: micro + scenarios +
                            derived.sweep_scaling)
  - imc::prof JSON reports (IMC_PROF=<path> runs: per-lane wall-clock
                            timings + resource counters + host + rusage)
  - BENCH_history.json     (per-host history this tool maintains)

Subcommands:

  report   write the markdown dashboard
      --perf FILE          bench.py full-mode report
      --prof LABEL=FILE    prof report (repeatable; LABEL names the run,
                           e.g. w2 for an IMC_THREADS=2 sweep)
      --history FILE       per-host history for the trend/regression block
      --out FILE           markdown output (default: stdout)

  update-history   fold a BENCH_perf.json into the history file
      --perf FILE --history FILE  [--max-per-host N]

  gate     history-aware sweep-speedup gate for CI
      --speedup X          the measured speedup to judge
      --threads N          sweep width the measurement used
      --history FILE       committed per-host history
      --floor X            required speedup (default 1.3)
      Hard-fails (exit 1) only when a same-host/same-core-count history
      entry proves the floor is reachable on this hardware at the same
      width (its sweep_scaling table, or its headline figure); everything
      else — unknown host, single core, host that has never met the
      floor, IMC_PERF_GATE_SOFT=1 — degrades to a warning (exit 0).

The history file keys entries by (cpu_model, cores): committed numbers are
only comparable within a host class, which is exactly why the committed
0.58x sweep_speedup (1-core container) must not hard-gate a 16-core box
and vice versa.
"""

import argparse
import json
import os
import sys
import time

HISTORY_SCHEMA = "imc-bench-history-v1"
PROF_SCHEMA = "imc-prof-v1"
DEFAULT_FLOOR = 1.3
# Regression thresholds for the report's detection block.
SPEEDUP_DROP = 0.9      # sweep_speedup below 90% of the host's best
RATIO_RISE = 1.2        # derived speedups below 1/1.2 of the host's best


def load_json(path, what):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"imc-report: cannot load {what} {path}: {e}")


def host_info():
    """Current host descriptor; mirrors bench.py and prof::host()."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count() or 0, "cpu_model": cpu_model}


def host_key(host):
    return (host.get("cpu_model", "unknown"), host.get("cores", 0))


def load_history(path):
    if not path or not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "entries": []}
    data = load_json(path, "history")
    if data.get("schema") != HISTORY_SCHEMA or \
            not isinstance(data.get("entries"), list):
        sys.exit(f"imc-report: {path} is not a {HISTORY_SCHEMA} file")
    return data


def same_host_entries(history, host):
    key = host_key(host)
    return [e for e in history["entries"]
            if host_key(e.get("host", {})) == key]


# ---------------------------------------------------------------------------
# Markdown helpers
# ---------------------------------------------------------------------------

def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


def fmt_seconds(s):
    if s >= 1.0:
        return f"{s:.2f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f} ms"
    return f"{s * 1e6:.1f} µs"


def fmt_bytes(b):
    for unit, div in (("GiB", 1 << 30), ("MiB", 1 << 20), ("KiB", 1 << 10)):
        if b >= div:
            return f"{b / div:.1f} {unit}"
    return f"{b:.0f} B"


def stat_sum(lane, name):
    stat = lane.get(name)
    return stat["sum"] if stat else 0.0


def stat_max(lane, name):
    stat = lane.get(name)
    return stat["max"] if stat else 0.0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def render_host(host):
    return table(
        ["cores", "cpu model", "page size", "platform/build"],
        [[host.get("cores", "?"), host.get("cpu_model", "?"),
          host.get("page_size", "?"),
          host.get("platform", host.get("build_type", "?"))]])


def render_scaling(derived):
    scaling = derived.get("sweep_scaling", {})
    if not scaling:
        return None
    rows = [[f"x{width}", f"{speedup:.2f}x"]
            for width, speedup in sorted(scaling.items(),
                                         key=lambda kv: int(kv[0]))]
    lines = ["## Sweep scaling (wall-clock speedup vs IMC_THREADS=1)", "",
             table(["width", "speedup"], rows)]
    if "sweep_speedup" in derived:
        lines.append("")
        lines.append(f"Headline `sweep_speedup` (width "
                     f"{derived.get('sweep_threads', '?')}): "
                     f"**{derived['sweep_speedup']:.2f}x**")
    return "\n".join(lines)


def render_derived(derived):
    keys = [k for k in sorted(derived)
            if k not in ("sweep_scaling", "sweep_speedup", "sweep_threads")]
    if not keys:
        return None
    rows = [[k, derived[k]] for k in keys]
    return "\n".join(["## Derived metrics (speedups & disabled-hook "
                      "overheads)", "", table(["metric", "value"], rows)])


def render_prof(label, report):
    """Per-worker occupancy, flush-cost breakdown, resource accounting."""
    lanes = report.get("lanes", {})
    lines = [f"### Prof run `{label}`", ""]

    # Worker occupancy: busy = job.run, idle = recorded idle gaps, span =
    # the lane's whole wall-clock window.
    occ_rows = []
    for name in sorted(lanes):
        lane = lanes[name]
        span = stat_sum(lane, "worker.span")
        if span <= 0.0:
            continue
        busy = stat_sum(lane, "job.run")
        idle = stat_sum(lane, "idle")
        flush = stat_sum(lane, "job.flush")
        jobs = int(stat_sum(lane, "jobs"))
        occ_rows.append([
            name, jobs, fmt_seconds(span), fmt_seconds(busy),
            fmt_seconds(idle), fmt_seconds(flush),
            f"{100.0 * busy / span:.0f}%", f"{100.0 * idle / span:.0f}%"])
    if occ_rows:
        lines += ["Per-worker occupancy:", "",
                  table(["lane", "jobs", "span", "busy (job.run)", "idle",
                         "flush", "occupancy %", "idle %"], occ_rows), ""]

    caller = lanes.get("caller")
    if caller:
        join = stat_sum(caller, "pool.join")
        flush = stat_sum(caller, "pool.flush")
        dispatch = stat_sum(caller, "pool.dispatch")
        rows = [["pool.dispatch (thread spawn)", fmt_seconds(dispatch)],
                ["pool.join (whole sweep from the caller)",
                 fmt_seconds(join)],
                ["pool.flush (ordered result flush)", fmt_seconds(flush)]]
        job_flush = stat_sum(caller, "job.flush")
        if job_flush:
            rows.append(["  of which per-job flush", fmt_seconds(job_flush)])
        if join > 0:
            rows.append(["flush / join ratio", f"{flush / join:.1%}"])
        lines += ["Caller-side cost breakdown:", "",
                  table(["phase", "wall time"], rows), ""]

    # Resource accounting across all lanes.
    arena_hwm = max((stat_max(lane, "arena.reserved_bytes")
                     for lane in lanes.values()), default=0.0)
    res_rows = []
    if arena_hwm:
        res_rows.append(["arena high-water mark (largest lane)",
                         fmt_bytes(arena_hwm)])
    for key, title, render in (
            ("arena.allocations", "arena allocations", "{:.0f}".format),
            ("arena.heap_fallbacks", "arena heap fallbacks",
             "{:.0f}".format),
            ("log.captured_bytes", "log bytes captured", fmt_bytes),
            ("trace.events_recorded", "trace events recorded",
             "{:.0f}".format),
            ("trace.events_dropped", "trace events dropped",
             "{:.0f}".format),
            ("fault.retries", "fault retries", "{:.0f}".format)):
        total = sum(stat_sum(lane, key) for lane in lanes.values())
        if total or key in ("trace.events_dropped",):
            res_rows.append([title, render(total)])
    if res_rows:
        lines += ["Resource accounting (all lanes):", "",
                  table(["resource", "total"], res_rows), ""]

    rusage = report.get("rusage", {})
    process = report.get("process", {})
    if rusage.get("ok"):
        lines += [f"Process: max RSS {rusage['max_rss_kb']} KiB, "
                  f"{rusage['minor_faults']} minor faults, "
                  f"{rusage['voluntary_ctx_switches']} voluntary / "
                  f"{rusage['involuntary_ctx_switches']} involuntary "
                  f"context switches, wall "
                  f"{fmt_seconds(process.get('wall_seconds', 0.0))}.", ""]
    return "\n".join(lines).rstrip()


def detect_regressions(derived, history, host):
    """Compare this run against the same host class's history."""
    entries = same_host_entries(history, host)
    if not entries:
        return ["no history for this host class — nothing to compare "
                "against (first run here records the baseline)"], []
    notes, regressions = [], []
    speedup = derived.get("sweep_speedup")
    best = max((e.get("sweep_speedup", 0.0) for e in entries), default=0.0)
    if speedup is not None and best > 0:
        notes.append(f"sweep_speedup {speedup:.2f}x vs host best "
                     f"{best:.2f}x over {len(entries)} run(s)")
        if speedup < best * SPEEDUP_DROP:
            regressions.append(
                f"sweep_speedup {speedup:.2f}x fell below "
                f"{SPEEDUP_DROP:.0%} of this host's best {best:.2f}x")
    for key in ("box_query_speedup", "slab_copy_speedup"):
        current = derived.get(key)
        hist_best = max((e.get("derived", {}).get(key, 0.0)
                         for e in entries), default=0.0)
        if current and hist_best and current * RATIO_RISE < hist_best:
            regressions.append(
                f"{key} {current:.2f}x is more than "
                f"{RATIO_RISE:.1f}x below this host's best "
                f"{hist_best:.2f}x")
    return notes, regressions


def cmd_report(args):
    sections = ["# imc-report — harness performance dashboard", ""]
    perf = load_json(args.perf, "perf report") if args.perf else None
    history = load_history(args.history)

    host = (perf or {}).get("host") or host_info()
    sections += ["## Host", "", render_host(host), ""]

    if perf:
        derived = perf.get("derived", {})
        scaling = render_scaling(derived)
        if scaling:
            sections += [scaling, ""]
        derived_md = render_derived(derived)
        if derived_md:
            sections += [derived_md, ""]
        notes, regressions = detect_regressions(derived, history, host)
        sections += ["## Regression check", ""]
        for note in notes:
            sections.append(f"- {note}")
        if regressions:
            sections += [""] + [f"- **REGRESSION**: {r}"
                                for r in regressions]
        else:
            sections.append("- no regressions against this host's history")
        sections.append("")

    if args.prof:
        sections += ["## Wall-clock profile (imc::prof)", ""]
        for spec in args.prof:
            label, _, path = spec.partition("=")
            if not path:
                label, path = os.path.basename(spec), spec
            report = load_json(path, "prof report")
            if report.get("schema") != PROF_SCHEMA:
                sys.exit(f"imc-report: {path} is not a {PROF_SCHEMA} "
                         "report")
            sections += [render_prof(label, report), ""]

    text = "\n".join(sections).rstrip() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"imc-report: wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# update-history
# ---------------------------------------------------------------------------

def cmd_update_history(args):
    perf = load_json(args.perf, "perf report")
    history = load_history(args.history)
    host = perf.get("host") or host_info()
    derived = perf.get("derived", {})
    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"cpu_model": host.get("cpu_model", "unknown"),
                 "cores": host.get("cores", 0)},
        "mode": perf.get("mode", "full"),
        "sweep_threads": derived.get("sweep_threads"),
        "sweep_speedup": derived.get("sweep_speedup"),
        "sweep_scaling": derived.get("sweep_scaling", {}),
        "derived": {k: v for k, v in derived.items()
                    if isinstance(v, (int, float))},
    }
    history["entries"].append(entry)
    # Bound per-host growth, keeping the newest entries.
    key = host_key(entry["host"])
    same = [e for e in history["entries"]
            if host_key(e.get("host", {})) == key]
    if len(same) > args.max_per_host:
        drop = set(id(e) for e in same[:len(same) - args.max_per_host])
        history["entries"] = [e for e in history["entries"]
                              if id(e) not in drop]
    with open(args.history, "w", encoding="utf-8") as f:
        json.dump(history, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"imc-report: recorded {entry['host']['cores']}-core entry "
          f"(sweep_speedup {entry['sweep_speedup']}) into {args.history}")
    return 0


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def speedup_at(entry, threads):
    """The sweep speedup a history entry recorded at width `threads`.

    Full mode records every width in sweep_scaling and headlines only the
    one nearest the core count, so the table answers for any width; the
    headline figure is the fallback for entries without the table.
    """
    scaling = entry.get("sweep_scaling") or {}
    if str(threads) in scaling:
        return scaling[str(threads)]
    if entry.get("sweep_threads") == threads:
        return entry.get("sweep_speedup")
    return None


def cmd_gate(args):
    history = load_history(args.history)
    host = host_info()
    speedup = args.speedup
    floor = args.floor

    def soften(reason):
        print(f"WARN: sweep_speedup {speedup:.2f}x below {floor}x — "
              f"soft gate ({reason})")
        return 0

    if speedup >= floor:
        print(f"sweep_speedup {speedup:.2f}x meets the {floor}x floor")
        return 0
    if os.environ.get("IMC_PERF_GATE_SOFT", "0") == "1":
        return soften("IMC_PERF_GATE_SOFT=1")
    if host["cores"] < 2:
        return soften(f"{host['cores']} core(s): no parallel speedup is "
                      "physically possible")
    entries = same_host_entries(history, host)
    if not entries:
        return soften(f"no history for this host class "
                      f"({host['cpu_model']!r}, {host['cores']} cores)")
    recorded = [speedup_at(e, args.threads) for e in entries]
    proven = [x for x in recorded if x is not None and x >= floor]
    if not proven:
        return soften("this host class has never met the floor at width "
                      f"{args.threads}; recording runs via update-history "
                      "arms the hard gate")
    best = max(proven)
    print(f"FAIL: sweep_speedup {speedup:.2f}x below the {floor}x floor, "
          f"but this host class reached {best:.2f}x at width "
          f"{args.threads} before — hard regression", file=sys.stderr)
    return 1


def main():
    parser = argparse.ArgumentParser(prog="imc-report",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="write the markdown dashboard")
    p_report.add_argument("--perf")
    p_report.add_argument("--prof", action="append", default=[],
                          metavar="LABEL=FILE")
    p_report.add_argument("--history")
    p_report.add_argument("--out")
    p_report.set_defaults(fn=cmd_report)

    p_hist = sub.add_parser("update-history",
                            help="fold a perf report into the history")
    p_hist.add_argument("--perf", required=True)
    p_hist.add_argument("--history", required=True)
    p_hist.add_argument("--max-per-host", type=int, default=50)
    p_hist.set_defaults(fn=cmd_update_history)

    p_gate = sub.add_parser("gate", help="history-aware speedup gate")
    p_gate.add_argument("--speedup", type=float, required=True)
    p_gate.add_argument("--threads", type=int, default=2)
    p_gate.add_argument("--history")
    p_gate.add_argument("--floor", type=float, default=DEFAULT_FLOOR)
    p_gate.set_defaults(fn=cmd_gate)

    args = parser.parse_args()
    if args.command == "report" and not (args.perf or args.prof):
        parser.error("report needs --perf and/or --prof")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
