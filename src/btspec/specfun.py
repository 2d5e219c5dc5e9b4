"""Certified zero tables of Bessel functions that seed the Laplacian bases.

Everything downstream (basis enumeration, matrix elements, the analytic
interval branch-point formula) reduces to three families of positive zeros:
zeros of J_n'(z), zeros of the spherical j_n'(z), and zeros of J_{-2/3}(z).
Each table comes from one array routine: a sign-change scan of the whole
grid in one ufunc call, then bisection + Newton on all brackets at once, so
every returned zero carries a verified bracket and is certified on return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConvergenceError, DomainError

# First zero of the derivative of the Airy function Ai(z), to 15 digits.
# Enters the high-gradient asymptotics of the slowest eigenvalue branch.
AIRY_DERIV_FIRST_ZERO = -1.018792971647471

_SCAN_STEP = 0.25
_BISECT_TOL = 1e-13


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive zeros of one target function.

    kind identifies the target ('dJ', 'dj_spherical' or 'J'), order is the
    (possibly rational) order of the underlying Bessel function.  The trivial
    zero z = 0 of J_0' and j_0' is never listed here; the basis module injects
    the constant mode with alpha_00 = 0 itself.
    """

    kind: str
    order: float
    zeros: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.size and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be positive and strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _scan_zeros(f, count, start, step=_SCAN_STEP, df=None, max_scan=1e5):
    """First `count` positive zeros of the ufunc f from `start` on.

    Sign changes are sought on the grid start, start + step, ... built as a
    running sum (np.cumsum), so its points do not depend on how it is split
    into chunks; a grid point on an exact zero moves on by step / 7 and the
    grid continues from there.  All brackets are then bisected together until
    b - a <= 1e-13 * max(1, |b|) each, and polished by up to three Newton
    steps (with df) that must stay inside the bracket.  The table is
    certified (_certify) before it is returned.
    """
    a = start
    fa = f(a)
    while fa == 0.0:  # do not start exactly on a zero (or in underflow)
        a += step / 7.0
        fa = f(a)
    chunk = int(count * np.pi / step) + 64  # zeros lie about pi apart
    found, parts = 0, []
    while found < count:
        x = np.cumsum(np.r_[a, np.full(chunk, step)])
        x = x[: 1 + np.count_nonzero(x[1:] <= max_scan)]
        if len(x) == 1:
            raise ConvergenceError("zero scan exceeded search range")
        fx = np.r_[fa, f(x[1:])]
        hit = np.flatnonzero(fx[1:] == 0.0)
        if hit.size:
            x, fx = x[: hit[0] + 2], fx[: hit[0] + 2]
            x[-1] += step / 7.0
            fx[-1] = f(x[-1])
        s = np.flatnonzero(fx[:-1] * fx[1:] < 0)
        parts.append((x[s], x[s + 1], fx[s]))
        found += s.size
        a, fa = x[-1], fx[-1]
    lo, hi, flo = (np.concatenate(v)[:count] for v in zip(*parts))

    act = np.arange(count)
    while (act := act[hi[act] - lo[act]
                      > _BISECT_TOL * np.maximum(1.0, np.abs(hi[act]))]).size:
        mid = 0.5 * (lo[act] + hi[act])
        fm = f(mid)
        left = flo[act] * fm < 0
        on = left | (fm == 0.0)  # an exact zero closes its bracket
        hi[act[on]] = mid[on]
        lo[act[~left]], flo[act[~left]] = mid[~left], fm[~left]
    x = 0.5 * (lo + hi)
    if df is not None:
        act = np.arange(count)
        for _ in range(3):
            d = df(x[act])
            act, d = act[d != 0.0], d[d != 0.0]
            y = x[act] - f(x[act]) / d
            ok = (lo[act] - 1e-9 <= y) & (y <= hi[act] + 1e-9)
            act = act[ok]
            x[act] = y[ok]
    _certify(f, x, 1e-10)
    return x


def zeros_dJ(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of d/dz J_n(z).

    For n = 0 the trivial zero at z = 0 is excluded; alpha_00 = 0 is a basis
    convention, not a member of this table.
    """
    if n < 0 or count < 1:
        raise DomainError("require n >= 0 and count >= 1")
    f = lambda z: special.jvp(n, z, 1)
    df = lambda z: special.jvp(n, z, 2)
    # All zeros of J_n' exceed n; starting at 0.9n skips the region where
    # J_n underflows to an exact 0.0 for large orders.
    table = _scan_zeros(f, count, start=max(1e-6, 0.9 * n), df=df)
    return ZeroTable(kind="dJ", order=float(n), zeros=table)


def zeros_dj_spherical(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of the derivative j_n'(z)."""
    if n < 0 or count < 1:
        raise DomainError("require n >= 0 and count >= 1")
    f = lambda z: special.spherical_jn(n, z, derivative=True)
    table = _scan_zeros(f, count, start=max(1e-6, 0.9 * n))
    return ZeroTable(kind="dj_spherical", order=float(n), zeros=table)


def zeros_J_minus_two_thirds(count: int) -> ZeroTable:
    """First `count` positive zeros of J_{-2/3}(z)."""
    if count < 1:
        raise DomainError("require count >= 1")
    f = lambda z: special.jv(-2.0 / 3.0, z)
    df = lambda z: special.jvp(-2.0 / 3.0, z, 1)
    # J_{-2/3} diverges like z^{-2/3} at 0+; start past the singularity.
    table = _scan_zeros(f, count, start=0.05, df=df)
    return ZeroTable(kind="J", order=-2.0 / 3.0, zeros=table)


def interval_branch_constants(count: int) -> np.ndarray:
    """Zeros j_k of J_{-2/3}; sqrt(3)*(27/4)*j_k^2 are the interval branch points."""
    return zeros_J_minus_two_thirds(count).zeros.copy()


def _certify(f, zeros, tol, h=1e-6):
    """Each zero must satisfy |f(z)| < tol and show a sign change across it."""
    bad = (np.abs(f(zeros)) >= tol) | (f(zeros - h) * f(zeros + h) > 0)
    if bad.any():
        raise ConvergenceError(f"zeros {zeros[bad]} fail |f| < {tol} or "
                               "show no sign change across them")


# Zero tables are cheap but requested repeatedly by the basis builders.
_cache: dict = {}


def cached_zeros(kind: str, n: int, count: int) -> np.ndarray:
    """First `count` zeros of kind 'dJ' (zeros_dJ) or 'dj_spherical'
    (zeros_dj_spherical) of order n, from a table kept per (kind, n)."""
    key = (kind, n)
    have = _cache.get(key)
    if have is None or len(have) < count:
        make = zeros_dJ if kind == "dJ" else zeros_dj_spherical
        _cache[key] = make(n, max(count, 16)).zeros
    return _cache[key][:count]
