"""Certified zero tables of Bessel functions that seed the Laplacian bases.

Everything downstream (basis enumeration, matrix elements, the analytic
interval branch-point formula) reduces to three families of positive zeros:
zeros of J_n'(z), zeros of the spherical j_n'(z), and zeros of J_{-2/3}(z).
Zeros are located by scanning for certified sign changes and polishing with
bisection + Newton, so every returned zero carries a verified bracket.
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
    tolerance: float = 1e-12

    def __post_init__(self):
        z = np.asarray(self.zeros, dtype=float)
        object.__setattr__(self, "zeros", z)
        if z.size and (np.any(z <= 0) or np.any(np.diff(z) <= 0)):
            raise ValueError("zeros must be positive and strictly increasing")

    def __len__(self) -> int:
        return len(self.zeros)


def _refine_zero(f, a, b, fa, fb, df=None):
    """Bisection to ~1e-13 followed by a few clipped Newton steps.

    (a, b) must be a certified sign-change bracket: fa * fb < 0.
    """
    if fa * fb >= 0:
        raise ConvergenceError(f"bracket [{a}, {b}] has no sign change")
    while b - a > _BISECT_TOL * max(1.0, abs(b)):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            a = b = m
            break
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    if df is not None:
        for _ in range(3):
            d = df(x)
            if d == 0.0:
                break
            step = f(x) / d
            y = x - step
            if not (a - 1e-9 <= y <= b + 1e-9):
                break
            x = y
    return x


def _scan_zeros(f, count, start, step=_SCAN_STEP, df=None, max_scan=1e5):
    """First `count` positive zeros of f by sign-change scanning from `start`."""
    zeros = []
    a = start
    fa = f(a)
    while fa == 0.0:  # do not start exactly on a zero (or in underflow)
        a += step / 7.0
        fa = f(a)
    while len(zeros) < count:
        b = a + step
        if b > max_scan:
            raise ConvergenceError("zero scan exceeded search range")
        fb = f(b)
        if fb == 0.0:
            b += step / 7.0
            fb = f(b)
        if fa * fb < 0:
            zeros.append(_refine_zero(f, a, b, fa, fb, df=df))
        a, fa = b, fb
    return np.array(zeros[:count])


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
    _certify(f, table, 1e-10)
    return ZeroTable(kind="dJ", order=float(n), zeros=table)


def zeros_dj_spherical(n: int, count: int) -> ZeroTable:
    """First `count` positive zeros of the derivative j_n'(z)."""
    if n < 0 or count < 1:
        raise DomainError("require n >= 0 and count >= 1")
    f = lambda z: special.spherical_jn(n, z, derivative=True)
    table = _scan_zeros(f, count, start=max(1e-6, 0.9 * n))
    _certify(f, table, 1e-10)
    return ZeroTable(kind="dj_spherical", order=float(n), zeros=table)


def zeros_J_minus_two_thirds(count: int) -> ZeroTable:
    """First `count` positive zeros of J_{-2/3}(z)."""
    if count < 1:
        raise DomainError("require count >= 1")
    f = lambda z: special.jv(-2.0 / 3.0, z)
    df = lambda z: special.jvp(-2.0 / 3.0, z, 1)
    # J_{-2/3} diverges like z^{-2/3} at 0+; start past the singularity.
    table = _scan_zeros(f, count, start=0.05, df=df)
    _certify(f, table, 1e-10)
    return ZeroTable(kind="J", order=-2.0 / 3.0, zeros=table)


def interval_branch_constants(count: int) -> np.ndarray:
    """Zeros j_k of J_{-2/3}; sqrt(3)*(27/4)*j_k^2 are the interval branch points."""
    return zeros_J_minus_two_thirds(count).zeros.copy()


def _certify(f, zeros, tol, h=1e-6):
    """Each zero must satisfy |f(z)| < tol and show a sign change across it."""
    for z in zeros:
        if abs(f(z)) >= tol:
            raise ConvergenceError(f"|f({z})| = {abs(f(z)):.3e} >= {tol}")
        if f(z - h) * f(z + h) > 0:
            raise ConvergenceError(f"no sign change across zero {z}")


# Zero tables are cheap but requested repeatedly by the basis builders.
_cache: dict = {}


def cached_zeros_dJ(n: int, count: int) -> np.ndarray:
    key = ("dJ", n)
    have = _cache.get(key)
    if have is None or len(have) < count:
        _cache[key] = zeros_dJ(n, max(count, 16)).zeros
    return _cache[key][:count]


def cached_zeros_dj_spherical(n: int, count: int) -> np.ndarray:
    key = ("dj", n)
    have = _cache.get(key)
    if have is None or len(have) < count:
        _cache[key] = zeros_dj_spherical(n, max(count, 16)).zeros
    return _cache[key][:count]
