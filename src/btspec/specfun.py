"""Certified zero tables of Bessel functions that seed the Laplacian bases.

Everything downstream (basis enumeration, matrix elements, the analytic
interval branch-point formula) reduces to three families of positive zeros:
zeros of J_n'(z), zeros of the spherical j_n'(z), and zeros of J_{-2/3}(z).
All tables come from one array routine over any number of orders: a
sign-change scan of every order's grid in one evaluator call, then bisection
+ Newton on all brackets at once, so every returned zero carries a verified
bracket and is certified on return.  A basis takes the zeros of all orders
below its cutoff from one pass (zeros_upto).

The integer-order families are evaluated by three-term recurrences in
numpy (DLMF 10.74(iv)), elementwise over arrays of (n, z).  J_n is computed
by Miller's backward recurrence (DLMF 3.6(v)) from an order past the
transition region, normalized by J_0 + 2 sum J_2k = 1; j_n by forward
recurrence from its closed forms j_0 and j_1 where n < z, where that is
stable, and by Miller's recurrence below, normalized by j_0 or j_1.  Each
element's arithmetic depends on its own (n, z) alone, so a multi-order pass
equals one-order scans bit for bit.  Only the fractional order -2/3 takes
scipy.special, imported by the function that needs it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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


def _miller(n, z, half: int):
    """(y, top): y(k) gives unnormalized values, at the order k (an int, or
    one per column, k >= 0), of the solution of
    y_{k-1} = (2k + half) / z_i * y_k - y_{k+1} that is recessive as k grows
    (J_k for half = 0, DLMF 10.6.1; the spherical j_k for half = 1, DLMF
    10.51.1), by Miller's backward recurrence (DLMF 3.6(v); Gautschi, SIAM
    Rev. 9, 24 (1967)).  Column i starts from y = 1 at its own order
    floor(max(n_i, z_i) + 10 + 8 z_i^(1/3)), past the transition region
    k ~ z where the recessive solution starts to fall off, and is 0 above
    it; top is the highest start.  Every 8 orders, a column above 2^500 is
    scaled by 2^-500 as a whole, which is exact, so small z cannot overflow.
    The start and the scalings depend on (n_i, z_i) alone and the columns
    never mix, so every column is bit for bit that of a call for it alone.
    n and z are 1-d, z > 0."""
    start = np.floor(np.maximum(n, z) + 10.0 + 8.0 * np.cbrt(z)).astype(np.intp)
    top = int(start.max(initial=10))  # 10: the least start, for no z
    # row r of y holds the order start + 1 - r of each column, so that every
    # column starts at row 1; below order 0 (c = 0) nothing is read
    order = start + 1 - np.arange(top + 2)[:, None]
    c = list(np.where(order >= 0, (2.0 * (order + 1) + half) * (1.0 / z), 0.0))
    y = np.zeros((top + 2, len(z)))
    y[1] = 1.0
    rows = list(y)  # row views: the loop is call-bound
    for r in range(2, top + 2):  # y_k = c_{k+1} y_{k+1} - y_{k+2}
        np.multiply(c[r], rows[r - 1], out=rows[r])
        np.subtract(rows[r], rows[r - 2], out=rows[r])
        if r % 8 == 0 and (big := np.abs(rows[r]) > 2.0**500).any():
            y[:r + 1, big] *= 2.0**-500
    cols = np.arange(len(z))
    return lambda k: y[np.maximum(start + 1 - np.asarray(k), 0), cols], top


def _elementwise(f):
    """f(n, z) on 1-d arrays lifted to broadcast arrays and scalars."""
    @functools.wraps(f)
    def lifted(n, z):
        n, z = np.broadcast_arrays(np.asarray(n), np.asarray(z, dtype=float))
        return f(n.ravel(), z.ravel()).reshape(z.shape)[()]
    return lifted


def _bessel_J(n, z, offsets) -> list:
    """J_{n+o}(z) for each offset o, from one recurrence normalized by
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4), and J_{-m} = (-1)^m J_m."""
    y, top = _miller(n, z, 0)
    # cumsum adds in order, where sum may add pairwise depending on the shape
    norm = y(0) + 2.0 * np.cumsum(y(np.arange(2, top + 2, 2)[:, None]), axis=0)[-1]
    return [np.where((k < 0) & (k % 2 == 1), -1.0, 1.0) * y(np.abs(k)) / norm
            for k in (n + o for o in offsets)]


@_elementwise
def bessel_jvp(n, z):
    """J_n'(z) = (J_{n-1}(z) - J_{n+1}(z)) / 2 (DLMF 10.6.1), elementwise."""
    lo, hi = _bessel_J(n, z, (-1, 1))
    return (lo - hi) / 2.0


@_elementwise
def bessel_jvpp(n, z):
    """J_n''(z) = (J_{n-2}(z) - 2 J_n(z) + J_{n+2}(z)) / 4, elementwise."""
    lo, mid, hi = _bessel_J(n, z, (-2, 0, 2))
    return (lo - 2.0 * mid + hi) / 4.0


def _spherical_j(k, z) -> np.ndarray:
    """j_k(z), elementwise on 1-d arrays.  Where k = 0 or k < z, forward
    recurrence from j_0 = sin z / z and j_1 = (j_0 - cos z) / z (DLMF
    10.49.3), which is stable there (j_k is the dominant solution), with
    scipy's arithmetic; elsewhere the normalized backward recurrence
    (_miller), scaled by j_0 or j_1, whichever is larger in magnitude: near a
    zero of one the other is not small, and j_1's formula cancels only at
    small z, where j_0 is the larger."""
    out = np.empty(len(z))
    up = (k == 0) | (k < z)
    if up.any():
        ku, zu = k[up], z[up]
        j = np.empty((max(int(ku.max()), 1) + 1, len(zu)))
        j[0] = np.sin(zu) / zu
        j[1] = (j[0] - np.cos(zu)) / zu
        # a column runs on past its own order, where it may overflow unread
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(2, len(j)):  # j_m = (2m - 1) / z j_{m-1} - j_{m-2}
                np.multiply(j[m - 1], 2 * m - 1, out=j[m])
                np.divide(j[m], zu, out=j[m])
                np.subtract(j[m], j[m - 2], out=j[m])
        out[up] = j[ku, np.arange(len(zu))]
    if not up.all():
        kd, zd = k[~up], z[~up]
        y, _ = _miller(kd, zd, 1)
        j0 = np.sin(zd) / zd
        j1 = (j0 - np.cos(zd)) / zd
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / y(0), j1 / y(1))
        out[~up] = scale * y(kd)
    return out


@_elementwise
def spherical_jnp(n, z):
    """j_n'(z) = j_{n-1}(z) - (n+1) j_n(z) / z, and j_0' = -j_1 (DLMF
    10.51.2), elementwise."""
    orders = np.concatenate([np.where(n == 0, 1, n - 1), n])  # j_{n-1} (j_1 at n = 0), j_n
    j = _spherical_j(orders, np.concatenate([z, z]))
    lo, hi = j[:len(z)], j[len(z):]
    return np.where(n == 0, -lo, lo - (n + 1) * hi / z)


# The two families that seed the Laplacian bases, as elementwise f(n, z)
# with the derivative df used for the Newton polish (None: bisection only).
_KINDS = {"dJ": (bessel_jvp, bessel_jvpp), "dj_spherical": (spherical_jnp, None)}


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
    from scipy import special  # fractional order: the one scipy table

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

