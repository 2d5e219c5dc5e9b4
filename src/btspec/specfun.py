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
equals one-order scans bit for bit.  Below |z| = 1e-8 the first term of the
power series is the function to rounding, and exact at z = 0; negative z
follows by parity.  The same recurrences give J_n and j_n themselves
(bessel_j, spherical_j), which the eigenfunction maps evaluate.  The
fractional order -2/3 takes the same backward recurrence over the orders
-2/3 + k, normalized by Neumann's sum for (z/2)^(-2/3) (bessel_jv_frac).

Both recurrences run in chunks of at most _CHUNK_ENTRIES rows x columns and
keep only the rows their callers read: the orders they return and, for a
normalization sum, the even orders.  Their working memory is those rows plus
one chunk, not a table of every order by every argument, and each value is
bit for bit that of the full table (tests/besseloracle.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# First zero of the derivative of the Airy function Ai(z), to 15 digits.
# Enters the high-gradient asymptotics of the slowest eigenvalue branch.
AIRY_DERIV_FIRST_ZERO = -1.018792971647471

_SCAN_STEP = 0.25
_BISECT_TOL = 1e-13
# Below it the first term of the power series (_leading) is J_n and j_n to
# rounding; Miller's recurrence would overflow on its coefficients 2k / z.
_TINY = 1e-8
# Most entries (rows x columns) of one chunk of a recurrence's rows, and of
# _miller's coefficients: a call whose whole table is smaller builds it in
# one go.
_CHUNK_ENTRIES = 2**14


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


def _ring(rows: int, cols: int) -> np.ndarray:
    """Zeroed rows in which a three-term recurrence of rows x cols runs in
    chunks: all its rows, or else an even number, at least 4, of at most
    _CHUNK_ENTRIES / cols.  With s rows, chunk t holds the rows
    g = t s .. g + s - 1, row g + b in row b, and rows b - 1 and b - 2 (by
    Python's wrap-around of negative indices, for b < 2) hold the two rows
    before it, so nothing is copied between chunks."""
    return np.zeros((min(rows, max(4, _CHUNK_ENTRIES // max(cols, 1) // 2 * 2)), cols))


def _windows(at, size: int, rows: int) -> list:
    """For each chunk of `size` of the `rows` rows, the columns i whose
    row at[i] is in it."""
    o = np.argsort(at, kind="stable")
    cut = [0, *np.searchsorted(at[o], np.arange(size, rows, size)).tolist(), len(o)]
    return [o[a:b] for a, b in zip(cut, cut[1:])]


def _miller(n, z, half: float, ks, evens: bool = False) -> tuple:
    """(vals, even_sum, top): vals[i] gives unnormalized values, at the
    order ks[i] (an int, or one per column, >= 0), of the solution of
    y_{k-1} = (2k + half) / z_i * y_k - y_{k+1} that is recessive as k grows
    (J_{k + half/2}, DLMF 10.6.1: J_k for half = 0, J_{k-2/3} for
    half = -4/3; the spherical j_k for half = 1, DLMF 10.51.1), by Miller's
    backward recurrence (DLMF 3.6(v); Gautschi, SIAM Rev. 9, 24 (1967)).
    Column i starts from y = 1 at its own order
    floor(max(n_i, z_i) + 10 + 8 z_i^(1/3)), past the transition region
    k ~ z where the recessive solution starts to fall off, and is 0 above
    it; top is the highest start.  Every 8 orders, a column above 2^500 is
    scaled by 2^-500 as a whole, which is exact, so small z cannot overflow.
    The start and the scalings depend on (n_i, z_i) alone and the columns
    never mix, so every column is bit for bit that of a call for it alone.
    With evens, even_sum(k, w=None) is the last row of
    np.cumsum(w[:, None] * y(k[:, None]), axis=0) (w = 1 when None) for a
    1-d array k of even orders >= 0; else it is None.  n and z are 1-d,
    z > 0.

    Working memory: the recurrence and its coefficients run in chunks of at
    most _CHUNK_ENTRIES rows x columns (_ring), and only the rows read are
    kept: one value per column for each order of ks and, with evens, the
    even orders, half a table (cumsum adds them from low order to high, the
    reverse of the recurrence, so they are stored).  A call whose table
    fits one chunk builds it whole, as a full-table recurrence does.  Every
    value is bit for bit that of the full (top + 2) x len(z) table: the
    same rows are computed by the same operations, and a scaling applies
    to the kept values as to the rows of the table it scales."""
    cols = len(z)
    start = np.floor(np.maximum(n, z) + 10.0 + 8.0 * np.cbrt(z)).astype(np.intp)
    top = int(start.max(initial=10))  # 10: the least start, for no z
    rows = top + 2
    # row r holds the order start + 1 - r of each column, so that every
    # column starts at row 1; below order 0 (c = 0) nothing is read
    s1 = start + 1
    at = [np.maximum(s1 - k, 0) for k in ks]
    y = _ring(rows, cols)
    y[1] = 1.0
    size, colix = len(y), np.arange(cols)
    whole = size == rows
    wins = None if whole else [_windows(a, size, rows) for a in at]
    vals = [np.zeros(cols) for _ in ks]
    # an even order k is in row start + 1 - k of the whole table, or else in
    # row (start + 1 - k) // 2 of kept, whose row j holds row 2j + odd of
    # each column and whose last row stays 0, for the orders above start + 1
    odd = None if whole or not evens else s1 % 2 == 1
    kept = np.zeros(((rows - 1) // 2 + 2 if odd is not None else 0, cols))
    inv, row = 1.0 / z, list(y)  # row views: the loop is call-bound
    for t, g in enumerate(range(0, rows, size)):
        b0, nb = 2 if g == 0 else 0, min(size, rows - g)
        k1 = s1 + 1 - np.arange(g + b0, g + nb)[:, None]  # the order of row b, + 1
        c = 2.0 * k1  # c_{k+1} = (2(k + 1) + half) / z, in place; 0 below order 0
        c += half
        c *= inv
        c[k1 < 1] = 0.0
        c = list(c)
        for b in range(b0, nb):  # y_k = c_{k+1} y_{k+1} - y_{k+2}
            np.multiply(c[b - b0], row[b - 1], row[b])  # out by position:
            np.subtract(row[b], row[b - 2], row[b])     # faster to parse
            if (g + b) % 8 == 0 and (big := np.abs(row[b]) > 2.0**500).any():
                y[:, big] *= 2.0**-500  # rows up to g + b, or not yet computed
                for v in (*vals, kept):
                    v[..., big] *= 2.0**-500
        if whole:
            continue
        for v, a, w in zip(vals, at, wins):
            i = w[t]
            v[i] = y[a[i] - g, i]
        if odd is not None:  # g is even: rows g, g + 2, ... to the ~odd columns
            for p, new in ((~odd, y[:nb:2]), (odd, y[1:nb:2])):
                np.copyto(kept[g // 2:][:len(new)], new, where=p)
    if whole:
        vals = [y[a, colix] for a in at]
    step = max(1, _CHUNK_ENTRIES // max(cols, 1))

    def even_sum(k, w=None):
        # cumsum adds in order, where sum may add pairwise depending on the
        # shape; a block's first row adds the sum of the blocks before it
        s = None
        for b in range(0, len(k), step):
            r = s1 - k[b:b + step, None]
            t = y[np.maximum(r, 0), colix] if odd is None else \
                kept[np.maximum(r // 2, -1), colix]
            if w is not None:
                t = w[b:b + step, None] * t
            if s is not None:
                t[0] += s
            s = np.cumsum(t, axis=0)[-1]
        return s
    return vals, even_sum if evens else None, top


def _elementwise(d: int):
    """Lift f(n, z), the d-th derivative of J_n or of j_n on 1-d arrays with
    z >= 0, to broadcast arrays and scalars of any real z by the parity
    f(n, -z) = (-1)^(n + d) f(n, z) (DLMF 10.4.1, 10.47.14)."""
    def lift(f):
        @functools.wraps(f)
        def lifted(n, z):
            n, z = np.broadcast_arrays(np.asarray(n), np.asarray(z, dtype=float))
            shape, n, z = z.shape, n.ravel(), z.ravel()
            v = f(n, np.abs(z))
            if (neg := z < 0).any():
                v = np.where(neg & ((n + d) % 2 == 1), -v, v)
            return v.reshape(shape)[()]
        return lifted
    return lift


def _leading(k, z, half: float) -> np.ndarray:
    """prod_{i=1..k} z / (2i + half): the first term z^k / (2^k k!) of the
    power series of J_k (half = 0, DLMF 10.2.2) or z^k / (2k + 1)!! of j_k
    (half = 1, DLMF 10.53.1), elementwise on 1-d arrays, k >= 0.  The next
    term is smaller by z^2 / (4k + 4 + 2 half), so below _TINY this is the
    function to rounding; at z = 0 it is exact: 1 at k = 0, else 0."""
    t = np.ones(len(z))
    for i in range(1, int(k.max(initial=0)) + 1):
        on = k >= i
        t[on] *= z[on] / (2 * i + half)
    return t


def _bessel_J(n, z, offsets) -> list:
    """J_{n+o}(z) for each offset o, from one recurrence normalized by
    J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4), or below _TINY from _leading, and
    J_{-m} = (-1)^m J_m."""
    tiny = z < _TINY  # tiny z: _leading below
    ks = [n + o for o in offsets]
    (y0, *ys), even_sum, top = _miller(n, np.where(tiny, 1.0, z), 0,
                                       [0, *map(np.abs, ks)], evens=True)
    norm = y0 + 2.0 * even_sum(np.arange(2, top + 2, 2))
    out = []
    for k, y in zip(ks, ys):
        v = y / norm
        if tiny.any():
            v[tiny] = _leading(np.abs(k[tiny]), z[tiny], 0)
        out.append(np.where((k < 0) & (k % 2 == 1), -v, v))
    return out


@_elementwise(0)
def bessel_j(n, z):
    """J_n(z), elementwise."""
    return _bessel_J(n, z, (0,))[0]


@_elementwise(1)
def bessel_jvp(n, z):
    """J_n'(z) = (J_{n-1}(z) - J_{n+1}(z)) / 2 (DLMF 10.6.1), elementwise."""
    lo, hi = _bessel_J(n, z, (-1, 1))
    return (lo - hi) / 2.0


@_elementwise(2)
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
    small z, where j_0 is the larger.  Below _TINY, _leading."""
    out = np.empty(len(z))
    tiny = z < _TINY
    z, given = np.where(tiny, 1.0, z), z  # tiny z: _leading below
    up = (k == 0) | (k < z)
    if up.any():
        ku, zu = k[up], z[up]
        rows = max(int(ku.max()), 1) + 1
        j = _ring(rows, len(zu))  # row m of the recurrence is j_m
        j[0] = np.sin(zu) / zu
        j[1] = (j[0] - np.cos(zu)) / zu
        size, row = len(j), list(j)  # row views, out by position: call-bound
        win = _windows(ku, size, rows) if size < rows else None
        ju = np.empty(len(zu))
        # a column runs on past its own order, where it may overflow unread
        with np.errstate(over="ignore", invalid="ignore"):
            for t, g in enumerate(range(0, rows, size)):
                for b in range(2 if g == 0 else 0, min(size, rows - g)):
                    np.multiply(row[b - 1], 2 * (g + b) - 1, row[b])  # j_m = (2m - 1)
                    np.divide(row[b], zu, row[b])              # / z j_{m-1} - j_{m-2}
                    np.subtract(row[b], row[b - 2], row[b])
                if win is not None:
                    i = win[t]
                    ju[i] = j[ku[i] - g, i]
        out[up] = ju if win is not None else j[ku, np.arange(len(zu))]
    if not up.all():
        kd, zd = k[~up], z[~up]
        (y0, y1, yk), _, _ = _miller(kd, zd, 1, (0, 1, kd))
        j0 = np.sin(zd) / zd
        j1 = (j0 - np.cos(zd)) / zd
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / y0, j1 / y1)
        out[~up] = scale * yk
    if tiny.any():
        out[tiny] = _leading(k[tiny], given[tiny], 1)
    return out


@_elementwise(0)
def spherical_j(n, z):
    """j_n(z), elementwise."""
    return _spherical_j(n, z)


@_elementwise(1)
def spherical_jnp(n, z):
    """j_n'(z) = j_{n-1}(z) - (n+1) j_n(z) / z, and j_0' = -j_1 (DLMF
    10.51.2), elementwise; below _TINY, where j_n / z is j_{n-1} / (2n + 1)
    to rounding (_leading), n j_{n-1}(z) / (2n + 1), exact at z = 0."""
    orders = np.concatenate([np.where(n == 0, 1, n - 1), n])  # j_{n-1} (j_1 at n = 0), j_n
    j = _spherical_j(orders, np.concatenate([z, z]))
    lo, hi = j[:len(z)], j[len(z):]
    tiny = z < _TINY
    return np.where(n == 0, -lo, np.where(tiny, n * lo / (2 * n + 1),
                                          lo - (n + 1) * hi / np.where(tiny, 1.0, z)))


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


def bessel_jv_frac(nu: float, z) -> tuple:
    """(J_nu(z), J_{nu+1}(z)) for one non-integer order nu > -1, elementwise
    on a 1-d z > 0: Miller's recurrence over the orders nu + k (_miller with
    half = 2 nu), normalized by Neumann's sum, all of whose terms are
    positive: (z/2)^nu = sum_k (nu + 2k) Gamma(nu + k) / k! J_{nu+2k}(z)
    (DLMF §10.23).  As in _bessel_J, each element depends on its z alone."""
    (y0, y1), even_sum, top = _miller(np.zeros(len(z)), z, 2.0 * nu, (0, 1), evens=True)
    k = np.arange(top // 2 + 1)  # Gamma(nu + k) / k! by its ratios (nu + k - 1) / k
    a = (nu + 2 * k) * np.cumprod(np.r_[math.gamma(nu), (nu + k[:-1]) / k[1:]])
    scale = (0.5 * z) ** nu / even_sum(2 * k, a)
    return scale * y0, scale * y1


def zeros_J_minus_two_thirds(count: int) -> ZeroTable:
    """First `count` positive zeros of J_{-2/3}(z) (bessel_jv_frac), polished
    by Newton on J_nu' = (nu / z) J_nu - J_{nu+1} (DLMF 10.6.2)."""
    if count < 1:
        raise DomainError("require count >= 1")
    nu = -2.0 / 3.0

    def dJ(n, z):
        j, j1 = bessel_jv_frac(nu, z)
        return nu / z * j - j1
    # J_{-2/3} diverges like z^{-2/3} at 0+; start past the singularity.
    table = _scan_zeros(lambda n, z: bessel_jv_frac(nu, z)[0], [nu], [0.05], count=count, df=dJ)[0]
    return ZeroTable(kind="J", order=nu, zeros=table)


def interval_branch_constants(count: int) -> np.ndarray:
    """Zeros j_k of J_{-2/3}; sqrt(3)*(27/4)*j_k^2 are the interval branch points."""
    return zeros_J_minus_two_thirds(count).zeros.copy()


def _certify(f, zeros, tol, h=1e-6):
    """Each zero must satisfy |f(z)| < tol and show a sign change across it."""
    bad = (np.abs(f(zeros)) >= tol) | (f(zeros - h) * f(zeros + h) > 0)
    if bad.any():
        raise ConvergenceError(f"zeros {zeros[bad]} fail |f| < {tol} or "
                               "show no sign change across them")

