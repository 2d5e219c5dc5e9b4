"""Monte Carlo random-walk reference for the PGSE signal.

Walkers diffuse inside the domain (lengths in units of R, time in units of
R^2/D0) with specular reflection at the boundary, and accumulate the phase
phi = gbar * integral of the gradient-projected position, with the sign
flipped between the two pulses.  The signal is the sample mean of e^{-i phi}.
This route shares nothing with the matrix formalism and serves as its
physical cross-check at statistical accuracy.

Walks that share every input of `_initial_positions` (geometry, walker
count, seed, and the cylinder's aspect) draw the same Philox stream: the
same initial positions, then the same standard normals step after step,
which each walk scales by its own sqrt(2 dt).  Such a group is run on one
stream.  One producer thread fills step-sized normal buffers, at most two in
flight, and the calling thread advances every still-active walk with each
buffer in lockstep.  A walk owns only its positions, projections and phases;
the step's new positions and projections go into a spare buffer pair shared
by the group, which trades places with the walk's own pair after the step.
Reflection works in place on the few walkers that left the domain (about 5%
per step at the default dt).
"""

from __future__ import annotations

import queue
import threading
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
    projected positions.  A group of one walk: its draws are made by the
    producer thread while it steps.
    """
    return _walk_group([cfg])[0]


def mc_signals(cfgs: list) -> list:
    """[mc_signal(c) for c in cfgs], with the same bits and fewer draws.

    The walks are grouped by `_stream_key`; each group runs on one shared
    stream (`_walk_group`), one group after another.  `btspec signal` gives
    all its walks one seed, so they form one group and the normals of each
    step are drawn once, not once per walk.  A failure in a walk's step or
    in the producer re-raises here, after the producer thread has ended.
    """
    groups = {}
    for i, cfg in enumerate(cfgs):
        groups.setdefault(_stream_key(cfg), []).append(i)
    results = [None] * len(cfgs)
    for members in groups.values():
        group = _walk_group([cfgs[i] for i in members])
        for i, res in zip(members, group):
            results[i] = res
    return results


def _stream_key(cfg: WalkConfig) -> tuple:
    """Every input of `_initial_positions`: walks equal in it draw one stream."""
    return (cfg.geometry, cfg.walkers, cfg.seed,
            cfg.aspect if cfg.geometry == "cylinder" else None)


def _fill(rng, out: np.ndarray) -> None:
    """One step's standard normals for every walker, in place."""
    rng.standard_normal(out=out)


class _Draws:
    """The step-sized normal fills of one generator, made ahead by a producer
    thread into two buffers.

    `take()` returns the next filled buffer; `give_back(buf)` returns it for
    refilling once every walk has read it.  `close()` stops the producer
    early if needed and joins it.
    """

    def __init__(self, rng, shape: tuple, count: int):
        self._free = queue.SimpleQueue()
        self._full = queue.SimpleQueue()
        for _ in range(2):
            self._free.put(np.empty(shape))
        self._thread = threading.Thread(target=self._produce, args=(rng, count),
                                        name="btspec-mc-draws", daemon=True)
        self._thread.start()

    def _produce(self, rng, count: int) -> None:
        try:
            for _ in range(count):
                buf = self._free.get()
                if buf is None:  # the consumer stopped early
                    return
                _fill(rng, buf)
                self._full.put(buf)
        except BaseException as exc:  # handed to the consumer, which re-raises it
            self._full.put(exc)

    def take(self) -> np.ndarray:
        item = self._full.get()
        if isinstance(item, BaseException):
            raise item
        return item

    def give_back(self, buf: np.ndarray) -> None:
        self._free.put(buf)

    def close(self) -> None:
        # FIFO: the producer reaches the None after at most the two buffers
        self._free.put(None)
        self._thread.join()


class _Walk:
    """One walk's constants and its own positions, projections and phases."""

    def __init__(self, cfg: WalkConfig, pos: np.ndarray):
        self.cfg = cfg
        self.n_steps = max(1, int(np.ceil(cfg.tbar / cfg.dt)))
        self.dt = cfg.tbar / self.n_steps
        self.sigma = np.sqrt(2.0 * self.dt)
        self.e = np.asarray(cfg.direction)
        self.pos = pos
        self.proj = pos @ self.e
        self.phase = np.zeros(cfg.walkers)

    def result(self):
        """(S, stderr) from the phases; drops the walk's buffers first."""
        phase, n = self.phase, self.cfg.walkers
        self.pos = self.proj = self.phase = None
        vals = -1j * phase
        del phase
        np.exp(vals, out=vals)
        S = vals.mean()
        stderr = float(np.sqrt(np.sum(np.abs(vals - S) ** 2)
                               / (n * max(1, n - 1))))
        return complex(S), stderr


def _walk_group(cfgs: list) -> list:
    """[mc_signal(c) for c in cfgs] for walks with one `_stream_key`.

    One generator draws the initial positions, then one normal buffer per
    step of the longest walk; every walk still running takes its step from
    the same buffer, in input order.  A walk of n steps per pulse reads the
    first 2n buffers, exactly the draws its own generator would make.
    """
    rng = np.random.Generator(np.random.Philox(cfgs[0].seed))
    pos0 = _initial_positions(cfgs[0], rng)
    walks = [_Walk(cfg, pos0.copy() if i + 1 < len(cfgs) else pos0)
             for i, cfg in enumerate(cfgs)]
    del pos0
    # the spare pair: each step writes here, then trades it for the walk's own
    new = np.empty_like(walks[0].pos)
    new_proj = np.empty(cfgs[0].walkers)
    results = [None] * len(walks)
    n_fills = 2 * max(w.n_steps for w in walks)
    draws = _Draws(rng, new.shape, n_fills)
    try:
        for k in range(n_fills):
            z = draws.take()
            for i, w in enumerate(walks):
                if k >= 2 * w.n_steps:
                    continue
                cfg = w.cfg
                pulse_sign = 1.0 if k < w.n_steps else -1.0
                c = pulse_sign * cfg.gbar * 0.5
                np.multiply(z, w.sigma, out=new)
                new += w.pos
                _reflect(cfg, w.pos, new)
                np.matmul(new, w.e, out=new_proj)
                # (proj + new_proj) * c * dt in this order, in the old
                # projections' buffer: fixed-seed results are pinned bit for
                # bit (tests/test_montecarlo.py)
                w.proj += new_proj
                w.proj *= c
                w.proj *= w.dt
                w.phase += w.proj
                w.pos, new = new, w.pos
                w.proj, new_proj = new_proj, w.proj
                if k + 1 == 2 * w.n_steps:
                    results[i] = w.result()
            draws.give_back(z)
    finally:
        draws.close()
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
