"""btspec benchmark: one CLI workload per run, checked, timed end to end.

Usage (from the repository root):
  python3 perfbench/run.py --workload sphere-sweep --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --workload all          # every workload once, table

A run first starts WARMUP_SETUPS set-up-only processes, which warm the file
cache.  It then executes the workload's btspec command in fresh
single-threaded processes, back to back (a closed loop with one client),
until --seconds have passed and at least MIN_COMMANDS have run; the last
command may end after --seconds.  Each command's outputs are checked
(checks.py).  Set-up-only processes bring the set-up samples to
SETUP_SAMPLES.  The last line of standard output is one JSON object:
  {"correct", "attempted", "failed", "metrics"}
with the end-to-end metrics (medians over the run) for --trace 0, and the
per-layer metrics of one extra traced command for --trace 1.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
sys.path.insert(0, HERE)

import checks  # noqa: E402

SETUP_SAMPLES = 4
WARMUP_SETUPS = 2
# A run stops at the first command that ends after --seconds.  With one
# command allowed, a slow first command would end the run and stand alone
# while a fast one would be averaged with the next; at least two commands
# make every run's wall_s a median of the same kind.
MIN_COMMANDS = 2
RUN_DEADLINE_S = 170  # a run ends within 180 s even if a command hangs
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# name -> (btspec subcommand, extra arguments, config, check)
WORKLOADS = {
    "sphere-sweep": ("sweep", [], {
        "geometry": "sphere", "N": 100, "g_max": 25, "g_step": 0.05,
    }, checks.check_sphere_sweep),
    "cylinder-sweep": ("sweep", [], {
        "geometry": "cylinder", "aspect": 1, "N": 200,
        "eta_deg": 78.23931266613657, "g_max": 19.2, "g_step": 0.1,
        "n_branches": 13,
    }, checks.check_cylinder_sweep),
    "signal-mc": ("signal", [], {
        "geometry": "sphere", "N": 333, "R_um": 10, "gamma": 2.675e8,
        "D0": 2.3e-9, "G_mT_per_m": 17, "deltas_ms": "2, 5, 10, 20",
        "walkers": 30000,
    }, checks.check_signal),
    "fieldmap": ("fieldmap", ["--j", "1", "--g", "5.63"], {
        "geometry": "sphere", "N": 333,
    }, checks.check_fieldmap),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": THREAD_ENV,
            "blas": blas.get("openblas configuration", blas.get("name"))}


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def run_command(name: str, seed: int, mode: str, rep_dir: str,
                timeout: float = RUN_DEADLINE_S) -> dict:
    """One fresh process; returns its result dict, wall time and check items.

    A command still running after `timeout` seconds is killed and fails."""
    sub, extra, config, check = WORKLOADS[name]
    os.makedirs(rep_dir)
    with open(os.path.join(rep_dir, "run.cfg"), "w") as f:
        for key, val in {**config, "seed": seed}.items():
            f.write(f"{key} = {val}\n")
    out_dir = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "result.json")
    # relative paths, so the outputs do not depend on where the checkout is
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, mode,
           "--", sub, "--config", "run.cfg", "--out", "out", *extra]
    t0 = time.perf_counter()
    with open(os.path.join(rep_dir, "log.txt"), "w") as log:
        try:
            subprocess.run(cmd, cwd=rep_dir, env=_child_env(), stdout=log,
                           stderr=log, timeout=max(timeout, 1.0), check=False)
        except subprocess.TimeoutExpired:
            pass
    try:
        with open(result_path) as f:
            res = json.load(f)
    except (OSError, ValueError):
        res = {"rc": None}
    if mode != "setup":
        ref, items = checks.REFERENCE[name], None
        if res["rc"] == 0:
            try:
                items = check(out_dir, ref)
            except (KeyError, ValueError, TypeError):  # malformed outputs
                pass
        if items is None:  # nothing usable delivered: every item fails
            items = check(os.path.join(rep_dir, "missing"), ref)
        res["items"] = items
    res["wall_s"] = time.perf_counter() - t0
    if os.path.isdir(out_dir):
        res["bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f))
                                   for f in os.listdir(out_dir))
    return res


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = os.path.join(OUT, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()

    def left():
        return RUN_DEADLINE_S - (time.perf_counter() - start)

    # Set-up-only processes come first: they are set-up samples, and they
    # warm the file cache, so the timed commands do not pay a cold start.
    setups, setup_dirs = [], (os.path.join(run_dir, f"setup{k}")
                              for k in itertools.count())
    for _ in range(WARMUP_SETUPS):
        r = run_command(name, seed, "setup", next(setup_dirs), left())
        if r.get("setup_s") is not None:
            setups.append(r["setup_s"])
    loop_start = time.perf_counter()
    reps = []
    while (len(reps) < MIN_COMMANDS
           or time.perf_counter() - loop_start < seconds):
        reps.append(run_command(name, seed, "run",
                                os.path.join(run_dir, f"rep{len(reps)}"), left()))
    setups += [r["setup_s"] for r in reps if r.get("setup_s") is not None]
    while len(setups) < SETUP_SAMPLES and left() > 10:
        r = run_command(name, seed, "setup", next(setup_dirs), left())
        if r.get("setup_s") is None:
            break
        setups.append(r["setup_s"])
    items = [it for r in reps for it in r["items"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": statistics.median(r.get("peak_rss_mb", float("nan"))
                                         for r in reps),
    }
    units = dict(END_TO_END)
    if trace:
        traced = run_command(name, seed, "trace",
                             os.path.join(run_dir, "traced"), left())
        items += traced["items"]
        layers = traced.get("layers") or {}
        layers["cli.bytes_written"] = traced.get("bytes_written", 0)
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        metrics = layers
        units = {k: _layer_unit(k) for k in layers}
    return {
        "correct": all(status != "wrong" for _, status in items),
        "attempted": len(items),
        "failed": sum(status == "failed" for _, status in items),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "items": items,
        "command_walls": [r["wall_s"] for r in reps],
    }


def _layer_unit(name: str) -> str:
    if name.endswith("ns_per_walker_step"):
        return "ns"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _print_report(name: str, rep: dict) -> None:
    for label, status in rep["items"]:
        if status != "ok":
            print(f"  {name}: {status}: {label}")
    share = rep["failed"] / rep["attempted"]
    walls = ", ".join(f"{w:.2f}" for w in rep["command_walls"])
    print(f"{name}: {len(rep['command_walls'])} command(s) [{walls} s], "
          f"correct={rep['correct']}, "
          f"failed {rep['failed']}/{rep['attempted']} ({share:.1%})")
    for key, m in rep["metrics"].items():
        print(f"  {key:36s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "btspec", "cli.py")):
        print(f"btspec sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    print("environment:", json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        reports[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_report(name, reports[name])
    if args.workload == "all":
        summary = {n: {"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": r["metrics"]}
                   for n, r in reports.items()}
        print(json.dumps(summary))
    else:
        rep = reports[names[0]]
        print(json.dumps({k: rep[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
