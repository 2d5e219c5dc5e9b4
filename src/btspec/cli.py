"""Command-line front end: sweep, signal, and fieldmap runs with CSV/JSON export.

Configuration is a flat key = value file (# comments allowed); command-line
--set KEY=VALUE pairs override file values.  Exactly one of the SI signal
inputs (R_um, gamma, D0, G_mT_per_m, deltas_ms) or the dimensionless pair
(gbar, tbars) may be given per run; all core computations are dimensionless
and the conversion happens once, here.

Output directory precedence: --out flag, then the BTSPEC_OUTDIR environment
variable, then the config key outdir, then the current directory.

signal and fieldmap solve eigenvectors only on the exact blocks they read
(spectrum.own_blocks): the spectral and one-/two-mode signal routes on the
constant mode's block, the only one with mu_j = X[j, 0] != 0; a fieldmap on
row j's block and the constant mode's block, whose column 0 the sign rule
reads.  A one-block operator (tilted sphere, reduced sphere) is solved whole.
Each command partitions the full operator into its blocks once.

Exit codes: 0 success, 2 configuration error, 3 domain error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .branchpoints import cylinder_branch_points, find_branch_points
from .errors import ConfigError, ConvergenceError, DomainError, NumericalError
from .fieldmap import export_projection
from .matrices import gradient_direction, gradient_matrix, operator_for
from .montecarlo import WalkConfig, mc_signals
from .signal import (PulsePlan, compute_coefficients, signal_matrix,
                     signal_one_mode, signal_spectral, signal_two_mode)
from .spectrum import (_own_blocks, canonical_order, diagonalize, normalize, own_blocks,
                       partition, slowest_pair, spectrum_at_negative_g)
from .sweep import run_sweep

ENV_OUTDIR = "BTSPEC_OUTDIR"
# the most grid points a sweep may start from (the README sweeps use 193 to 1,201)
MAX_GRID_POINTS = 10**6

_SI_KEYS = ("gamma", "D0", "G_mT_per_m", "deltas_ms")
_DIMLESS_KEYS = ("gbar", "tbars")

@dataclass
class RunConfig:
    """Validated run configuration; unset optional entries are None."""

    geometry: str
    N: int
    R_um: float | None = None
    H_um: float | None = None
    aspect: float = 1.0
    gamma: float | None = None
    D0: float | None = None
    G_mT_per_m: float | None = None
    deltas_ms: list = field(default_factory=list)
    gbar: float | None = None
    tbars: list = field(default_factory=list)
    eta_deg: float | None = None
    theta_deg: float | None = None
    phi_deg: float | None = None
    g_max: float | None = None
    g_step: float = 0.05
    n_branches: int | None = None
    walkers: int = 0
    seed: int = 12345
    resolution: int = 201
    outdir: str = "."

    def __post_init__(self):
        if self.walkers < 0:
            raise ConfigError("walkers must be >= 0 (0 turns Monte Carlo off)")
        if self.resolution < 1:
            raise ConfigError("resolution must be >= 1")
        if self.n_branches is not None and self.n_branches < 1:
            raise ConfigError("n_branches must be >= 1")

    def signal_mode(self) -> str:
        """'si' or 'dimensionless'; raises unless exactly one group is set."""
        si = all(getattr(self, k) not in (None, []) for k in _SI_KEYS) \
            and self.R_um is not None
        dimless = all(getattr(self, k) not in (None, []) for k in _DIMLESS_KEYS)
        if si == dimless:
            raise ConfigError(
                "provide exactly one of the SI signal inputs "
                f"(R_um, {', '.join(_SI_KEYS)}) or the dimensionless pair "
                f"({', '.join(_DIMLESS_KEYS)})")
        return "si" if si else "dimensionless"

    def pulse_plans(self) -> list[PulsePlan]:
        if self.signal_mode() == "si":
            return [PulsePlan(delta=d * 1e-3, D0=self.D0, gamma=self.gamma,
                              G=self.G_mT_per_m * 1e-3, R=self.R_um * 1e-6)
                    for d in self.deltas_ms]
        if self.gbar < 0 or min(self.tbars) < 0:
            raise ConfigError("the dimensionless signal requires non-negative gbar and tbars")
        return [PulsePlan.dimensionless(self.gbar, t) for t in self.tbars]

    def geometry_aspect(self) -> float:
        """H_um/R_um if H_um is set, else aspect; ConfigError for a domain key
        the geometry does not read, or an aspect != 1 other than H_um/R_um."""
        h = self.aspect
        if self.H_um is not None:
            if self.geometry != "cylinder" or not self.R_um:
                raise ConfigError("only the cylinder reads H_um, with a nonzero R_um")
            h = self.H_um / self.R_um
            if self.aspect not in (1.0, h):
                raise ConfigError(f"aspect {self.aspect} is not H_um/R_um = {h}")
        if h != 1.0 and self.geometry not in ("cylinder", "interval"):
            raise ConfigError(f"a {self.geometry} has no aspect; got {h}")
        return h

    def angles(self) -> dict:
        """The angles that are set, in radians, as gradient_direction keywords."""
        deg = {"theta_g": self.theta_deg, "phi_g": self.phi_deg, "eta": self.eta_deg}
        return {k: np.deg2rad(a) for k, a in deg.items() if a is not None}


# key -> declared type of its RunConfig field ('str', 'int', 'float' or 'list',
# a list being comma-separated floats); annotations are strings here
_KEY_TYPES = {f.name: f.type.split(" |")[0] for f in fields(RunConfig)}


def parse_config(path: str) -> dict:
    """Flat key = value file into a typed dict; unknown keys are errors."""
    out = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key] = _convert(key, val, f"{path}:{ln}")
    return out


def _convert(key: str, val: str, where: str):
    if key not in _KEY_TYPES:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typ = _KEY_TYPES[key]
    try:
        if typ == "list":
            return [_finite(float(x), key) for x in val.split(",") if x.strip()]
        if typ == "float":
            return _finite(float(val), key)
        return int(val) if typ == "int" else val
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {val!r}") from exc


def _finite(x: float, name: str) -> float:
    """x, or ConfigError when x is NaN or infinite."""
    if not np.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {x}")
    return x


def build_config(args) -> RunConfig:
    data = parse_config(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        data[key] = _convert(key, val, "--set")
    for key in ("geometry", "N"):
        if key not in data:
            raise ConfigError(f"config key {key!r} is required")
    cfg = RunConfig(**data)
    if args.out:
        cfg.outdir = args.out
    elif os.environ.get(ENV_OUTDIR):
        cfg.outdir = os.environ[ENV_OUTDIR]
    return cfg


def _fmt(x) -> str:
    return "%.17g" % x


def _write_csv(path: str, header: str, line: str, chunks) -> None:
    """Write header, then every row tuple of every chunk with one %-format
    per line and one write per chunk, so only a chunk is held as text."""
    with open(path, "w", newline="") as f:
        f.write(header)
        for rows in chunks:
            f.write("".join([line % row for row in rows]))


def _write_branches(path: str, sweep, n_out: int) -> None:
    """branches.csv: branches 1..n_out, one chunk per grid point."""
    ambiguous = {(a["g"], b) for a in sweep.ambiguities for b in a.get("branches", ())}
    chunks = ([(g, j + 1, lam.real, lam.imag, "ambiguous" if (g, j) in ambiguous else "")
               for j, lam in enumerate(row[:n_out].tolist())]
              for g, row in zip(sweep.g_grid.tolist(), sweep.eigenvalues))
    _write_csv(path, "g,branch_j,re_lambda,im_lambda,flags\n",
               "%.17g,%d,%.17g,%.17g,%s\n", chunks)


def _write_field(path: str, grid) -> None:
    """Fieldmap CSV of a FieldGrid, one chunk per grid row; 0 outside.  The
    header names the plane's axes; the axis values are formatted once, not
    once per cell."""
    second = [_fmt(a) for a in grid.axis2.tolist()]

    def rows(x, v, inside):
        v = np.where(inside, v, 0)
        return zip(itertools.repeat(_fmt(x)), second, v.real.tolist(), v.imag.tolist(),
                   inside.tolist())
    chunks = itertools.starmap(rows, zip(grid.axis1.tolist(), grid.values, grid.inside))
    _write_csv(path, f"{grid.plane[0]},{grid.plane[1]},re_v,im_v,inside_flag\n",
               "%s,%s,%.17g,%.17g,%d\n", chunks)


def _build_operator(cfg: RunConfig):
    mat = operator_for(cfg.geometry, cfg.N, R=1.0, H=cfg.geometry_aspect())
    return mat, gradient_matrix(mat, **cfg.angles())


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.g_max is None or cfg.g_max <= 0 or cfg.g_step <= 0:
        raise ConfigError("sweep requires positive g_max and g_step")
    if cfg.g_max / cfg.g_step > MAX_GRID_POINTS - 1:
        raise ConfigError(f"g_max / g_step = {cfg.g_max / cfg.g_step:.3g} gives more than "
                          f"{MAX_GRID_POINTS} grid points")
    mat, B = _build_operator(cfg)
    n_out = cfg.n_branches or min(mat.N, 17)
    if n_out > mat.N:
        raise ConfigError(f"n_branches={n_out} exceeds the basis size {mat.N}")
    if cfg.geometry == "cylinder":
        # the factor route (cylinder_branch_points) never reads B: it is
        # built all the same, as the end of set-up that perfbench times, and
        # released at once
        del B
        sweep, points = cylinder_branch_points(
            mat, cfg.angles().get("eta"), cfg.g_max, step=cfg.g_step, n_branches=n_out)
    else:
        sweep = run_sweep(mat, B, cfg.g_max, step=cfg.g_step, n_branches=n_out)
        points = find_branch_points(mat, B, sweep, max_branch=n_out)

    os.makedirs(cfg.outdir, exist_ok=True)
    branches_path = os.path.join(cfg.outdir, "branches.csv")
    _write_branches(branches_path, sweep, n_out)

    bp_path = os.path.join(cfg.outdir, "branchpoints.json")
    doc = {
        "version": __version__,
        "config": asdict(cfg),
        "metadata": sweep.metadata,
        "branch_points": [
            {
                "g_star": p.g_star,
                "order": p.order,
                "branches": [b + 1 for b in p.branches],
                "bracket": list(p.bracket),
                "value_re": p.meta.get("value", 0j).real,
                "value_im": p.meta.get("value", 0j).imag,
                "vv_min": p.meta.get("vv_min"),
                "min_principal_angle": p.meta.get("min_principal_angle"),
                "bracket_width": p.meta.get("width"),
            }
            for p in points
        ],
        "ambiguities": sweep.ambiguities,
        "n_refinements": len(sweep.refinements),
    }
    with open(bp_path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print(f"wrote {branches_path} and {bp_path}")
    return 0


def cmd_signal(cfg: RunConfig, direction: tuple) -> int:
    plans = cfg.pulse_plans()
    if not plans:
        raise ConfigError("no pulse durations given (deltas_ms or tbars empty)")
    gbar = plans[0].gbar
    # the walks are checked before any work; sphere_reduced is the m = 0
    # sector of the same ball, so it walks in the sphere along z
    walk_geometry = "sphere" if cfg.geometry == "sphere_reduced" else cfg.geometry
    walks = [WalkConfig(geometry=walk_geometry, gbar=gbar, tbar=plan.tbar,
                        walkers=cfg.walkers, aspect=cfg.geometry_aspect(),
                        direction=direction, seed=cfg.seed)
             for plan in plans] if cfg.walkers > 0 else []
    mat, B = _build_operator(cfg)
    # only the constant mode's block has mu_j = X[j, 0] != 0
    sub, B_sub, _ = own_blocks(mat, B, [0])
    if gbar > 0 and not B_sub.any():
        raise DomainError(f"the gradient does not act on the constant mode's block of "
                          f"{sub.N} mode(s) at N={cfg.N}: B is zero there, so the "
                          f"signal would be 1 at every time; use a larger N")
    spec = normalize(diagonalize(sub, B_sub, gbar))
    spec_m = spectrum_at_negative_g(spec)
    coeffs = compute_coefficients(spec)

    i1, i2 = slowest_pair(spec)  # i2 is None unless the slowest is complex
    lam1 = spec.eigenvalues[i1]
    rows = []
    for plan in plans:
        tb = plan.tbar
        Sm = signal_matrix(sub, B_sub, gbar, tb)  # sub is its own restriction
        Ss = signal_spectral(spec, spec_m, coeffs, tb)
        if i2 is None:
            one = signal_one_mode(lam1.real, coeffs.C[i1, i1].real, tb).real
            modes = [_fmt(one), "", ""]
        else:
            tw = signal_two_mode(lam1, coeffs.C[i1, i1].real, coeffs.C[i1, i2], tb)
            modes = ["", _fmt(tw.real), _fmt(tw.imag)]
        delta = plan.delta if cfg.signal_mode() == "si" else tb
        rows.append([_fmt(delta), _fmt(Sm.real), _fmt(Sm.imag),
                     _fmt(Ss.real), _fmt(Ss.imag)] + modes)
    # the walks are all alive at once (one shared stream); drop the operator
    # and spectra first
    del mat, B, sub, B_sub, spec, spec_m, coeffs
    mc = [(_fmt(S.real), _fmt(S.imag), _fmt(err)) for S, err in mc_signals(walks)]
    for row, cols in zip(rows, mc or [("", "", "")] * len(rows)):
        row.extend(cols)

    os.makedirs(cfg.outdir, exist_ok=True)
    path = os.path.join(cfg.outdir, "signal.csv")
    with open(path, "w", newline="") as f:
        f.write("delta,S_matrix_re,S_matrix_im,S_spectral_re,S_spectral_im,"
                "S_onemode,S_twomode_re,S_twomode_im,S_mc_re,S_mc_im,mc_stderr\n")
        f.writelines(",".join(row) + "\n" for row in rows)
    print(f"wrote {path}")
    return 0


def cmd_fieldmap(cfg: RunConfig, j: int, g: float) -> int:
    if j < 1:
        raise DomainError("eigenfunction index j must be >= 1")
    if cfg.N < 5 * j:
        raise DomainError(
            f"truncation N={cfg.N} too small for branch index {j}; "
            f"need N >= {5 * j}")
    mat, B = _build_operator(cfg)
    part = partition(mat.lam, B)
    # rank all blocks' values; restricting keeps the full spectrum's row
    # order, so canonical row r is row k of the included blocks
    w = part.solve(g, eigvals_only=True)
    r = canonical_order(w.eigenvalues)[j - 1]
    sub, B_sub, ix = _own_blocks(mat, B, part, [0, np.argmax(part.label == w.block[r])])
    k = np.count_nonzero(np.isin(w.block[:r], part.label[ix]))
    # the rest reads only the restriction: the full operator goes before the grid
    del mat, B, part, w
    raw = diagonalize(sub, B_sub, g)
    spec = normalize(raw)
    # the disk has no z: its section is its own plane
    grid = export_projection(spec, sub.basis, k + 1, resolution=cfg.resolution,
                             plane="xy" if cfg.geometry == "disk" else "xz")
    c = spec.degenerate_class[k]

    os.makedirs(cfg.outdir, exist_ok=True)
    stem = f"field_j{j}_g{_num_tag(g)}"
    csv_path = os.path.join(cfg.outdir, stem + ".csv")
    _write_field(csv_path, grid)
    side_path = os.path.join(cfg.outdir, stem + ".json")
    with open(side_path, "w") as f:
        json.dump({
            "version": __version__,
            "config": asdict(cfg),
            "j": j,
            "g": g,
            "lambda_re": grid.eigenvalue.real,
            "lambda_im": grid.eigenvalue.imag,
            "near_branch_point": grid.flagged,
            "vv": float(spec.vv[k]),
            "vv_pair": _pair_conditioning(raw, spec, k),
            "class_size": int(np.count_nonzero(spec.degenerate_class == c)) if c >= 0 else 1,
            "plane": grid.plane,
        }, f, indent=1, sort_keys=True)
    print(f"wrote {csv_path} and {side_path}")
    return 0


def _pair_conditioning(raw, spec, k: int) -> float | None:
    """sqrt|det C| of the raw bilinear Gram C of row k and the other row of
    its two-row degenerate class (normalize maps them to C^(-1/2) X_c); None
    for a simple eigenvalue or a class of three or more rows."""
    c = spec.degenerate_class[k]
    pair = np.flatnonzero(spec.degenerate_class == c)
    if c < 0 or len(pair) != 2:
        return None
    rows = raw.X[pair]
    return float(np.sqrt(abs(np.linalg.det(rows @ rows.T))))


def _num_tag(x: float) -> str:
    return ("%g" % x).replace("-", "m").replace(".", "p")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="btspec",
        description="Bloch-Torrey operator spectra, branch points and "
                    "diffusion-MRI signals in spheres and capped cylinders.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (("sweep", "track eigenvalue branches and locate branch points"),
                      ("signal", "compute PGSE signal curves by all routes"),
                      ("fieldmap", "export an eigenfunction plane section")):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", help="output directory")
        if name == "fieldmap":
            p.add_argument("--j", type=int, required=True,
                           help="eigenfunction index (1-based)")
            p.add_argument("--g", type=float, required=True,
                           help="dimensionless gradient strength")

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        # decided once, before any work; both reject a key the geometry does not read
        direction = gradient_direction(cfg.geometry, **cfg.angles())
        cfg.geometry_aspect()
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "signal":
            return cmd_signal(cfg, direction)
        return cmd_fieldmap(cfg, args.j, _finite(args.g, "--g"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
