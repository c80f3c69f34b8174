#!/usr/bin/env python3
"""Builds and runs the ARES benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload abd-256b --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the ARES library from src/
plus ares_perfbench, Release, assert-free) into .bench_build/; later runs only
rebuild what changed. Every run first executes the arithmetic self-tests.
Build and self-test output goes to stderr, so the last line of stdout is
the JSON result of ares_perfbench. With --trace 1 the spans are written to
.bench_build/trace/<workload>.jsonl.
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "net", "cluster.hpp")):
        sys.exit("perfbench: ARES sources (src/) not found next to perfbench/")
    build = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(cmd):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: failed: " + " ".join(cmd))

    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", jobs])
    step([os.path.join(build, "perfbench_selftest")])

    cmd = [os.path.join(build, "ares_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(os.path.join(build, "trace"), exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(build, "trace", args.workload + ".jsonl")]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()
