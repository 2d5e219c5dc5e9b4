"""Check that the machine-independent work counters repeat exactly.

Runs each named workload (default: all) traced twice with the same seed and
asserts that every count metric (calls, matrix orders, grid points,
refinements, bisection solves, walker steps, bytes written, ...) is identical
between the two runs.  Prints the counters of the first run.

  python3 perfbench/counters_check.py [WORKLOAD ...]
  python3 -m pytest perfbench/counters_check.py     # same, as a test
"""

from __future__ import annotations

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def traced_counters(name: str, rep_dir: str) -> dict:
    shutil.rmtree(rep_dir, ignore_errors=True)
    res = run.run_command(name, 1, "trace", rep_dir)
    layers = dict(res.get("layers") or {},
                  **{"cli.bytes_written": res.get("bytes_written", 0)})
    return {k: v for k, v in layers.items() if run._layer_unit(k) in ("count", "bytes")}


def check(names) -> list:
    """Names of the workloads whose counters differ between two runs."""
    differing = []
    for name in names:
        base = os.path.join(run.OUT, "counters", name)
        first = traced_counters(name, os.path.join(base, "a"))
        second = traced_counters(name, os.path.join(base, "b"))
        print(f"{name}:")
        for key, val in first.items():
            mark = "" if second.get(key) == val else f"   != {second.get(key)}"
            print(f"  {key:36s} {val}{mark}")
        if not first or first != second:
            differing.append(name)
    return differing


def test_counters_repeat():
    assert check(run.WORKLOADS) == []


if __name__ == "__main__":
    bad = check(sys.argv[1:] or run.WORKLOADS)
    print("counters differ:" if bad else "counters identical", *bad)
    sys.exit(1 if bad else 0)
