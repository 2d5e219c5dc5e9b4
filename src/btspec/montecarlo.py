"""Monte Carlo random-walk reference for the PGSE signal.

Walkers diffuse inside the domain (lengths in units of R, time in units of
R^2/D0) with specular reflection at the boundary, and accumulate the phase
phi = gbar * integral of the gradient-projected position, with the sign
flipped between the two pulses.  The signal is the sample mean of e^{-i phi}.
This route shares nothing with the matrix formalism and serves as its
physical cross-check at statistical accuracy.

Each step reuses preallocated buffers: the normal draws fill one buffer,
which becomes the new positions in place, and the two position buffers swap
roles after the step.  Reflection works in place on the few walkers that
left the domain (about 5% per step at the default dt).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

_MAX_STEP_FRACTION = 0.05


@dataclass(frozen=True)
class WalkConfig:
    """Random-walk run description (dimensionless).

    geometry: 'sphere' (radius 1), 'cylinder' (radius 1, height `aspect`),
    or 'free' (unbounded; test geometry).  tbar is the duration of EACH of
    the two opposite pulses; dt the nominal time step (shrunk to divide tbar
    evenly).  direction is the gradient unit vector.
    """

    geometry: str
    gbar: float
    tbar: float
    walkers: int = 100_000
    dt: float = 1e-3
    aspect: float = 1.0
    direction: tuple = (0.0, 0.0, 1.0)
    seed: int = 12345

    def __post_init__(self):
        if self.geometry not in ("sphere", "cylinder", "free"):
            raise ConfigError(f"unsupported geometry {self.geometry!r}")
        if self.walkers < 1 or self.tbar <= 0 or self.dt <= 0:
            raise ConfigError("walkers >= 1 and positive tbar, dt required")
        if self.geometry != "free" and np.sqrt(2 * self.dt) >= _MAX_STEP_FRACTION:
            raise ConfigError(
                f"time step too coarse: sqrt(2 dt) = {np.sqrt(2*self.dt):.4f} "
                f">= {_MAX_STEP_FRACTION} R")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not np.isfinite(d).all() or np.linalg.norm(d) == 0:
            raise ConfigError("direction must be a nonzero 3-vector")
        object.__setattr__(self, "direction", tuple(d / np.linalg.norm(d)))


def mc_signal(cfg: WalkConfig):
    """(S, stderr): sample mean of e^{-i phi} and its standard error.

    Deterministic for a fixed seed (counter-based Philox generator, single
    pass over walkers).  The phase integral uses the trapezoidal rule on the
    projected positions.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n_steps = max(1, int(np.ceil(cfg.tbar / cfg.dt)))
    dt = cfg.tbar / n_steps
    sigma = np.sqrt(2.0 * dt)
    e = np.asarray(cfg.direction)

    pos = _initial_positions(cfg, rng)
    new = np.empty_like(pos)
    phase = np.zeros(cfg.walkers)
    proj = pos @ e
    new_proj = np.empty_like(proj)
    incr = np.empty_like(proj)
    for pulse_sign in (1.0, -1.0):
        c = pulse_sign * cfg.gbar * 0.5
        for _ in range(n_steps):
            rng.standard_normal(out=new)
            new *= sigma
            new += pos
            _reflect(cfg, pos, new)
            np.matmul(new, e, out=new_proj)
            # (proj + new_proj) * c * dt in this order: fixed-seed results
            # are pinned bit for bit (tests/test_montecarlo.py)
            np.add(proj, new_proj, out=incr)
            incr *= c
            incr *= dt
            phase += incr
            pos, new = new, pos
            proj, new_proj = new_proj, proj

    del pos, new, proj, new_proj, incr
    vals = -1j * phase
    np.exp(vals, out=vals)
    S = vals.mean()
    stderr = float(np.sqrt(np.sum(np.abs(vals - S) ** 2)
                           / (cfg.walkers * max(1, cfg.walkers - 1))))
    return complex(S), stderr


def mc_signals(cfgs: list) -> list:
    """[mc_signal(c) for c in cfgs], run concurrently with the same bits.

    Each walk owns its generator and buffers, and numpy releases the GIL in
    its draws and ufuncs.  A pool of one thread per usable core runs the
    walks longest (largest tbar) first.  A failed walk re-raises and cancels
    the walks not yet started.
    """
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    order = sorted(range(len(cfgs)), key=lambda i: -cfgs[i].tbar)
    results = [None] * len(cfgs)
    pool = ThreadPoolExecutor(max_workers=cores)
    try:
        # the module global mc_signal, so a wrapper installed on it sees every walk
        futures = [(i, pool.submit(mc_signal, cfgs[i])) for i in order]
        for i, fut in futures:
            results[i] = fut.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _initial_positions(cfg: WalkConfig, rng) -> np.ndarray:
    n = cfg.walkers
    if cfg.geometry == "free":
        return np.zeros((n, 3))
    if cfg.geometry == "sphere":
        r = rng.random(n) ** (1.0 / 3.0)
        v = rng.standard_normal((n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v * r[:, None]
    # cylinder: uniform in the disk cross-section and along the axis
    r = np.sqrt(rng.random(n))
    th = 2 * np.pi * rng.random(n)
    z = (rng.random(n) - 0.5) * cfg.aspect
    return np.column_stack([r * np.cos(th), r * np.sin(th), z])


def _reflect(cfg: WalkConfig, old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Reflect the steps old -> new off the boundary, in place on `new`."""
    if cfg.geometry == "free":
        return new
    if cfg.geometry == "sphere":
        return _reflect_sphere(old, new)
    return _reflect_cylinder(old, new, cfg.aspect)


def _reflect_sphere(old: np.ndarray, new: np.ndarray, max_iter: int = 10) -> np.ndarray:
    """Specular reflection across the tangent plane at the exit point,
    iterated for the rare multi-bounce steps.

    Works in place on `new` and only on the rows that left the unit sphere:
    each bounce handles the rows still outside and writes them back into
    `new`.  Rows still outside after max_iter bounces (numerically stuck at
    the boundary) are clamped inside.  Returns `new`."""
    # Column-wise squares find the candidates cheaply; the exact test on
    # them keeps einsum's summation order, on which fixed seeds depend.
    r2 = np.square(new[:, 0])
    r2 += np.square(new[:, 1])
    r2 += np.square(new[:, 2])
    rows = np.flatnonzero(r2 > 1.0 - 1e-12)
    rows = rows[np.einsum("ij,ij->i", new[rows], new[rows]) > 1.0]
    o, nw = old[rows], new[rows]
    for _ in range(max_iter):
        if rows.size == 0:
            return new
        d = nw - o
        # smallest s in (0, 1] with |o + s d| = 1
        a = np.einsum("ij,ij->i", d, d)
        b = 2.0 * np.einsum("ij,ij->i", o, d)
        c = np.einsum("ij,ij->i", o, o) - 1.0
        disc = np.sqrt(np.maximum(b * b - 4 * a * c, 0.0))
        s = (-b + disc) / (2.0 * a)
        s = np.clip(s, 0.0, 1.0)
        p = o + s[:, None] * d
        nvec = p  # outward normal of the unit sphere
        rest = nw - p
        rest -= 2.0 * np.einsum("ij,ij->i", rest, nvec)[:, None] * nvec
        nw = p + rest
        new[rows] = nw
        out = np.einsum("ij,ij->i", nw, nw) > 1.0
        rows, o, nw = rows[out], p[out], nw[out]
    r = np.sqrt(np.einsum("ij,ij->i", nw, nw))
    bad = r > 1.0
    new[rows[bad]] = nw[bad] / (r[bad, None] * (1 + 1e-12))
    return new


def _reflect_cylinder(old: np.ndarray, new: np.ndarray, h: float,
                      max_iter: int = 16) -> np.ndarray:
    """Specular reflection off the side wall r = 1 and the caps z = +-h/2,
    taking the earliest boundary crossing each iteration (corners resolve
    over successive iterations).

    Works in place on `new` and only on the rows that left the cylinder, as
    _reflect_sphere does; rows still outside after max_iter bounces are
    clamped inside.  Returns `new`."""
    half = h / 2.0
    rows = np.flatnonzero(_outside_cylinder(new, half))
    o, nw = old[rows], new[rows]
    for _ in range(max_iter):
        if rows.size == 0:
            return new
        d = nw - o
        s_side = _side_crossing(o, d)
        s_top = _cap_crossing(o[:, 2], d[:, 2], half)
        s_bot = _cap_crossing(o[:, 2], d[:, 2], -half)
        s = np.minimum(np.minimum(s_side, s_top), s_bot)
        s = np.clip(s, 0.0, 1.0)
        p = o + s[:, None] * d
        rest = nw - p
        hit_side = (s_side <= s_top) & (s_side <= s_bot)
        nvec = np.zeros_like(p)
        nvec[hit_side, 0] = p[hit_side, 0]
        nvec[hit_side, 1] = p[hit_side, 1]
        nrm = np.linalg.norm(nvec[hit_side], axis=1)
        nvec[hit_side] /= np.maximum(nrm, 1e-300)[:, None]
        nvec[~hit_side, 2] = np.sign(p[~hit_side, 2])
        rest -= 2.0 * np.einsum("ij,ij->i", rest, nvec)[:, None] * nvec
        nw = p + rest
        new[rows] = nw
        out = _outside_cylinder(nw, half)
        rows, o, nw = rows[out], p[out], nw[out]
    x, y, z = nw[:, 0], nw[:, 1], nw[:, 2]
    r = np.sqrt(x * x + y * y)
    bad = r > 1.0
    nw[bad, 0] /= r[bad] * (1 + 1e-12)
    nw[bad, 1] /= r[bad] * (1 + 1e-12)
    nw[:, 2] = np.clip(z, -half * (1 - 1e-12), half * (1 - 1e-12))
    new[rows] = nw
    return new


def _outside_cylinder(pos: np.ndarray, half: float) -> np.ndarray:
    """Rows outside the side wall r = 1 or beyond a cap |z| = half."""
    r2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
    return (r2 > 1.0) | (np.abs(pos[:, 2]) > half)


def _side_crossing(o: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Earliest s in (0, 1] where the xy-projection crosses r = 1 (inf if none)."""
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - 1.0
    out = np.full(len(o), np.inf)
    ok = a > 0
    disc = b[ok] ** 2 - 4 * a[ok] * c[ok]
    pos = disc > 0
    s = np.full(ok.sum(), np.inf)
    s[pos] = (-b[ok][pos] + np.sqrt(disc[pos])) / (2 * a[ok][pos])
    s[(s <= 0) | (s > 1)] = np.inf
    out[ok] = s
    return out


def _cap_crossing(oz: np.ndarray, dz: np.ndarray, zcap: float) -> np.ndarray:
    """Earliest s in (0, 1] where z crosses zcap (inf if none)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (zcap - oz) / dz
    s = np.where((dz != 0) & (s > 0) & (s <= 1), s, np.inf)
    return s
