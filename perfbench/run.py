#!/usr/bin/env python3
"""Builds the repository benchmark in Release mode and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/imc-perfbench
(compiler output on stderr); the benchmark's last stdout line is its JSON
result. With --trace 1 the Chrome trace of the run is written next to the
build. See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "imc-perfbench"


def build() -> bool:
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "imc_perfbench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--refs", str(HERE / "references.tsv")]
    if args.trace == "1":
        trace = BUILD / f"trace-{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
