#!/usr/bin/env python3
"""Tests for `imc-report gate`, the history-aware sweep-speedup gate of CI.

Each case writes a fixture history keyed to this host (the gate only trusts
entries of the same cpu_model and core count), runs the gate as CI does,
and checks the verdict: pass, soft warning (exit 0) or hard failure
(exit 1).

    python3 tests/report/run_gate_tests.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
REPORT = os.path.join(REPO, "scripts", "imc-report.py")

_spec = importlib.util.spec_from_file_location("imc_report", REPORT)
imc_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(imc_report)
HOST = imc_report.host_info()


def entry(host=None, headline=None, headline_threads=None, scaling=None):
    out = {"host": dict(host or HOST), "mode": "full",
           "sweep_speedup": headline, "sweep_threads": headline_threads,
           "timestamp": "2026-01-01T00:00:00Z"}
    if scaling is not None:
        out["sweep_scaling"] = scaling
    return out


class GateTests(unittest.TestCase):

    def gate(self, entries, speedup, threads=2, env_extra=None):
        with tempfile.TemporaryDirectory() as tmp:
            history = os.path.join(tmp, "history.json")
            with open(history, "w", encoding="utf-8") as f:
                json.dump({"schema": imc_report.HISTORY_SCHEMA,
                           "entries": entries}, f)
            env = {k: v for k, v in os.environ.items()
                   if k != "IMC_PERF_GATE_SOFT"}
            env.update(env_extra or {})
            proc = subprocess.run(
                [sys.executable, REPORT, "gate", "--speedup", str(speedup),
                 "--threads", str(threads), "--history", history],
                capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout + proc.stderr

    # A 4-core full-mode record: headline at width 4, table for every width.
    def four_core_record(self):
        return entry(headline=2.6, headline_threads=4,
                     scaling={"2": 1.78, "4": 2.6, "8": 2.28})

    def test_meeting_the_floor_passes(self):
        code, out = self.gate([self.four_core_record()], 1.5)
        self.assertEqual(code, 0, out)
        self.assertIn("meets", out)

    @unittest.skipIf(HOST["cores"] < 2, "the gate is soft on one core")
    def test_width_two_figure_from_the_scaling_table_arms_the_hard_gate(self):
        code, out = self.gate([self.four_core_record()], 1.0, threads=2)
        self.assertEqual(code, 1, out)
        self.assertIn("1.78", out)

    @unittest.skipIf(HOST["cores"] < 2, "the gate is soft on one core")
    def test_headline_figure_still_counts_without_a_table(self):
        code, out = self.gate(
            [entry(headline=1.6, headline_threads=2)], 1.0, threads=2)
        self.assertEqual(code, 1, out)

    def test_width_never_proven_on_this_host_is_soft(self):
        record = entry(headline=2.6, headline_threads=4,
                       scaling={"2": 1.1, "4": 2.6})
        code, out = self.gate([record], 1.0, threads=2)
        self.assertEqual(code, 0, out)
        self.assertIn("WARN", out)
        # A width missing from the table proves nothing either.
        code, out = self.gate([self.four_core_record()], 1.0, threads=16)
        self.assertEqual(code, 0, out)
        self.assertIn("WARN", out)

    def test_other_host_class_is_soft(self):
        other = {"cpu_model": HOST["cpu_model"] + " (other)",
                 "cores": HOST["cores"]}
        bigger = {"cpu_model": HOST["cpu_model"],
                  "cores": HOST["cores"] + 1}
        for host in (other, bigger):
            record = entry(host=host, headline=2.6, headline_threads=4,
                           scaling={"2": 1.78})
            code, out = self.gate([record], 1.0)
            self.assertEqual(code, 0, out)
            self.assertIn("WARN", out)

    def test_soft_override_downgrades_a_proven_regression(self):
        code, out = self.gate([self.four_core_record()], 1.0,
                              env_extra={"IMC_PERF_GATE_SOFT": "1"})
        self.assertEqual(code, 0, out)
        self.assertIn("IMC_PERF_GATE_SOFT", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
