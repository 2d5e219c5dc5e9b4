"""Certified zero tables of Bessel functions that seed the Laplacian bases.

Everything downstream (basis enumeration, matrix elements, the analytic
interval branch-point formula) reduces to three families of positive zeros:
zeros of J_n'(z), zeros of the spherical j_n'(z), and zeros of J_{-2/3}(z).
All tables come from one array routine over any number of orders: a
sign-change scan of every order's grid in one ufunc call, then bisection +
Newton on all brackets at once, so every returned zero carries a verified
bracket and is certified on return.  A basis takes the zeros of all orders
below its cutoff from one pass (zeros_upto).
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


def _scan_zeros(f, orders, starts, count=None, upto=np.inf, df=None,
                step=_SCAN_STEP, max_scan=1e5):
    """Positive zeros of the ufunc f(n, z) for each order n of `orders`: the
    first `count` from that order's start on, or all up to `upto`.

    Each order's sign changes are sought on its grid start, start + step, ...
    built as a running sum (np.cumsum along its row), so its points do not
    depend on how the grid is split into passes; a grid point on an exact
    zero moves on by step / 7 and the grid continues from there.  One f call
    per pass evaluates all orders' grids; all brackets are then bisected
    together until b - a <= 1e-13 * max(1, |b|) each, and polished by up to
    three Newton steps (with df) that must stay inside the bracket.  So each
    zero is that of a scan of its order alone, bit for bit.  The zeros are
    certified (_certify) and returned as one ascending array per order.
    """
    n = np.asarray(orders)
    a = np.array(starts, dtype=float)
    fa = f(n, a)
    while (z := fa == 0.0).any():  # do not start on a zero (or in underflow)
        a[z] += step / 7.0
        fa[z] = f(n[z], a[z])
    found = np.zeros(len(n), dtype=int)
    want = np.inf if count is None else count
    parts = [(np.zeros(0, dtype=int), *np.zeros((3, 0)))]
    act = np.arange(len(n))
    while (act := act[(found[act] < want) & (a[act] <= upto)]).size:
        chunk = (int(count * np.pi / step) + 64 if count is not None  # zeros lie
                 else int((upto - a[act].min()) / step) + 2)          # about pi apart
        x = np.cumsum(np.c_[a[act], np.full((act.size, chunk), step)], axis=1)
        # a row's points: up to max_scan and up to the first one past upto
        keep = (x[:, 1:] <= max_scan) & (x[:, :-1] <= upto)
        size = 1 + keep.sum(axis=1)
        if (size == 1).any():
            raise ConvergenceError("zero scan exceeded search range")
        fx = np.zeros_like(x)
        fx[:, 0] = fa[act]
        r, c = np.nonzero(keep)
        fx[r, c + 1] = f(n[act][r], x[r, c + 1])
        hit = keep & (fx[:, 1:] == 0.0)
        r = np.flatnonzero(hit.any(axis=1))
        if r.size:  # a row ends on its first exact zero, moved on by step / 7
            size[r] = np.argmax(hit[r], axis=1) + 2
            x[r, size[r] - 1] += step / 7.0
            fx[r, size[r] - 1] = f(n[act][r], x[r, size[r] - 1])
        r, c = np.nonzero((np.arange(chunk) < size[:, None] - 1)
                          & (fx[:, :-1] * fx[:, 1:] < 0))
        parts.append((act[r], x[r, c], x[r, c + 1], fx[r, c]))
        found += np.bincount(act[r], minlength=len(n))
        last = (np.arange(act.size), size - 1)
        a[act], fa[act] = x[last], fx[last]
    row, lo, hi, flo = (np.concatenate(v) for v in zip(*parts))
    o = np.argsort(row, kind="stable")  # by order, then along its grid
    o = o[np.arange(len(o)) - np.searchsorted(row[o], row[o]) < want]  # first `count`
    row, lo, hi, flo = row[o], lo[o], hi[o], flo[o]
    nb = n[row]

    act = np.arange(len(row))
    while (act := act[hi[act] - lo[act]
                      > _BISECT_TOL * np.maximum(1.0, np.abs(hi[act]))]).size:
        mid = 0.5 * (lo[act] + hi[act])
        fm = f(nb[act], mid)
        left = flo[act] * fm < 0
        on = left | (fm == 0.0)  # an exact zero closes its bracket
        hi[act[on]] = mid[on]
        lo[act[~left]], flo[act[~left]] = mid[~left], fm[~left]
    x = 0.5 * (lo + hi)
    if df is not None:
        act = np.arange(len(row))
        for _ in range(3):
            d = df(nb[act], x[act])
            act, d = act[d != 0.0], d[d != 0.0]
            y = x[act] - f(nb[act], x[act]) / d
            ok = (lo[act] - 1e-9 <= y) & (y <= hi[act] + 1e-9)
            act = act[ok]
            x[act] = y[ok]
    _certify(lambda z: f(nb, z), x, 1e-10)
    below = x <= upto
    return np.split(x[below], np.cumsum(np.bincount(row[below], minlength=len(n)))[:-1])


# The two families that seed the Laplacian bases, as ufuncs f(n, z) with the
# derivative df used for the Newton polish (None: bisection only).
_KINDS = {
    "dJ": (lambda n, z: special.jvp(n, z, 1), lambda n, z: special.jvp(n, z, 2)),
    "dj_spherical": (lambda n, z: special.spherical_jn(n, z, derivative=True), None),
}


def _scan_kind(kind: str, orders, **stop) -> list:
    f, df = _KINDS[kind]
    # All zeros of J_n' and j_n' exceed n; starting at 0.9n skips the region
    # where they underflow to an exact 0.0 for large orders.
    return _scan_zeros(f, orders, np.maximum(1e-6, 0.9 * np.asarray(orders)),
                       df=df, **stop)


def zeros_upto(kind: str, zmax: float) -> list:
    """Zeros <= zmax of kind 'dJ' (J_n') or 'dj_spherical' (j_n') of all
    orders n = 0, 1, ... in one pass: element n is order n's ascending array,
    and the list ends before the first order n > 0 with none (every zero of
    order n exceeds n, so all higher orders have none either)."""
    tables = _scan_kind(kind, np.arange(int(zmax) + 2), upto=zmax)
    return tables[:next(i for i, t in enumerate(tables) if i and not t.size)]


def zeros_J_minus_two_thirds(count: int) -> ZeroTable:
    """First `count` positive zeros of J_{-2/3}(z)."""
    if count < 1:
        raise DomainError("require count >= 1")
    # J_{-2/3} diverges like z^{-2/3} at 0+; start past the singularity.
    table = _scan_zeros(special.jv, [-2.0 / 3.0], [0.05], count=count,
                        df=lambda n, z: special.jvp(n, z, 1))[0]
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

