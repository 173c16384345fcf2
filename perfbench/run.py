#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/DESIGN.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload skewed|served --seed N \
        --seconds S --trace 0|1

The first call configures and compiles the oij library and the benchmark
driver under .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr. The driver's last line of stdout is one JSON
object with the run's correctness counts and metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "oij_perfbench"), *sys.argv[1:],
           "--trace-dir", BUILD]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
