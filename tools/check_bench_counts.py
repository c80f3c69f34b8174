#!/usr/bin/env python3
"""Exact-count drift gate for the simulated benches.

Compares every field whose name contains "rounds", "messages" or "bytes" in
freshly generated BENCH_<name>.json files against the checked-in copies
under bench/results/. The simulator is deterministic, so these counts are
exact: any difference is a behaviour change. A change that moves counts on
purpose regenerates the checked-in file and says why.

Usage:
  check_bench_counts.py FRESH_DIR BASELINE_DIR NAME [NAME ...]
  e.g. check_bench_counts.py build bench/results fastpath batch leases writes

Exits 1 on any drift, a missing field or a missing file.
"""
import json
import sys

COUNT_WORDS = ("rounds", "messages", "bytes")


def counts(node, path, out):
    """Collect {path: value} for every count field under `node`."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}"
            if isinstance(value, (dict, list)):
                counts(value, child, out)
            elif any(word in key for word in COUNT_WORDS):
                out[child] = value
    elif isinstance(node, list):
        for i, value in enumerate(node):
            counts(value, f"{path}[{i}]", out)
    return out


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_dir, base_dir, names = argv[1], argv[2], argv[3:]
    drift = 0
    for name in names:
        file = f"BENCH_{name}.json"
        with open(f"{fresh_dir}/{file}") as f:
            fresh = counts(json.load(f), "", {})
        with open(f"{base_dir}/{file}") as f:
            base = counts(json.load(f), "", {})
        for path in sorted(base.keys() | fresh.keys()):
            if base.get(path) != fresh.get(path):
                print(f"{file}{path}: baseline {base.get(path)} "
                      f"fresh {fresh.get(path)}")
                drift += 1
        print(f"{file}: {len(base)} count fields compared")
    if drift:
        print(f"FAIL: {drift} count field(s) drifted from {base_dir}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
