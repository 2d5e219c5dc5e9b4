"""Per-layer tracing of one btspec process, installed from outside the package.

The package's modules import each other's functions by name, so wrapping a
function in its defining module alone would miss most calls.  install()
therefore builds one wrapper per target and assigns it to every btspec
module attribute that still holds the original function (the defining name
and all imported copies, e.g. sweep.diagonalize, branchpoints.diagonalize and
cli.diagonalize).

Each call records a span (name, start, end, parent) in memory; metrics()
turns the spans into call counts and self times (span duration minus the
time covered by its direct children) plus work counters that do not depend
on the machine.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time

# (module, function, span name).  A span name of None means the name is
# chosen per call (diagonalize: eigenvalues only or with vectors).
TARGETS = [
    ("specfun", "zeros_dJ", "specfun.zero_tables"),
    ("specfun", "zeros_dj_spherical", "specfun.zero_tables"),
    ("basis", "build_basis", "basis.build"),
    ("matrices", "assemble_operator", "matrices.assemble"),
    ("matrices", "gradient_matrix", "matrices.gradient"),
    ("spectrum", "diagonalize", None),
    ("spectrum", "normalize", "spectrum.normalize"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "match_step", "sweep.match_step"),
    ("branchpoints", "find_branch_points", "branchpoints.find"),
    ("branchpoints", "refine", "branchpoints.refine"),
    ("signal", "signal_matrix", "signal.matrix"),
    ("signal", "signal_spectral", "signal.spectral"),
    ("signal", "compute_coefficients", "signal.coefficients"),
    ("montecarlo", "mc_signal", "montecarlo"),
    ("fieldmap", "export_projection", "fieldmap.export"),
    ("cli", "cmd_sweep", "cli.self"),
    ("cli", "cmd_signal", "cli.self"),
    ("cli", "cmd_fieldmap", "cli.self"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS if name}
                    | {"spectrum.eigvals", "spectrum.eigvecs"})
COUNTERS = ["basis.n", "spectrum.eigvals.n", "spectrum.eigvecs.n",
            "sweep.grid_points", "sweep.refinements", "sweep.ambiguities",
            "branchpoints.bisection_solves", "branchpoints.points",
            "branchpoints.order_lt2", "montecarlo.walker_steps",
            "fieldmap.points"]


class Tracer:
    """Spans and counters of one process; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)

    def install(self, package: str = "btspec") -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == package or n.startswith(package + ".")]
        for mod_name, fn_name, span in TARGETS:
            # a function the package no longer has reports 0 calls
            orig = getattr(sys.modules.get(f"{package}.{mod_name}"), fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, span)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)

    def _wrap(self, fn, span):
        sig = inspect.signature(fn)
        count = getattr(self, "_count_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            name = span
            if name is None:  # diagonalize
                only = bound.arguments.get("eigvals_only", False)
                name = "spectrum.eigvals" if only else "spectrum.eigvecs"
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(bound.arguments, result, name)
            return result

        return wrapper

    # work counters, keyed by the wrapped function's name
    def _count_build_basis(self, args, basis, name):
        self.counters["basis.n"] = max(self.counters["basis.n"], len(basis))

    def _count_diagonalize(self, args, spec, name):
        key = name + ".n"
        self.counters[key] = max(self.counters[key], args["mat"].N)

    def _count_run_sweep(self, args, sweep, name):
        self.counters["sweep.grid_points"] += len(sweep.g_grid)
        self.counters["sweep.refinements"] += len(sweep.refinements)
        self.counters["sweep.ambiguities"] += len(sweep.ambiguities)

    def _count_find_branch_points(self, args, points, name):
        self.counters["branchpoints.points"] += len(points)
        self.counters["branchpoints.order_lt2"] += sum(p.order < 2 for p in points)

    def _count_mc_signal(self, args, result, name):
        cfg = args["cfg"]
        steps_per_pulse = max(1, math.ceil(cfg.tbar / cfg.dt))
        self.counters["montecarlo.walker_steps"] += cfg.walkers * 2 * steps_per_pulse

    def _count_export_projection(self, args, grid, name):
        self.counters["fieldmap.points"] += grid.values.size

    def metrics(self) -> dict:
        """Per span name: calls and self time; plus the work counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = 0
            out[name + ".s"] = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".s"] += (end - start) - child_time[i]
        out.update(self.counters)
        out["branchpoints.bisection_solves"] = sum(
            1 for name, _, _, parent in self.spans
            if name.startswith("spectrum.eig") and parent >= 0
            and self.spans[parent][0] == "branchpoints.refine")
        steps = out["montecarlo.walker_steps"]
        out["montecarlo.ns_per_walker_step"] = (
            out["montecarlo.s"] * 1e9 / steps if steps else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, f)
