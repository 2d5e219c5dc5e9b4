"""Full-table reference for the Bessel recurrences of btspec.specfun.

Miller's backward recurrence and the forward recurrence of j_n as they were
written before specfun kept only the rows it returns: each builds its whole
table, (highest start + 2) x len(z) rows for Miller's recurrence and
(highest order + 1) x len(z) for the forward one, and reads its values from
it.  It is the plain route that the chunked recurrences in specfun must match
bit for bit (tests/test_specfun.py).  The power series below _TINY and the
parity lift are specfun's own (_leading, _elementwise).
"""

import math

import numpy as np

from btspec.specfun import _TINY, _elementwise, _leading


def miller(n, z, half):
    """(y, top): y(k) is the unnormalized recessive solution at order k (an
    int, one per column, or a column of orders against every column), from
    the full table of Miller's recurrence; top is the highest start."""
    start = np.floor(np.maximum(n, z) + 10.0 + 8.0 * np.cbrt(z)).astype(np.intp)
    top = int(start.max(initial=10))
    order = start + 1 - np.arange(top + 2)[:, None]
    c = list(np.where(order >= 0, (2.0 * (order + 1) + half) * (1.0 / z), 0.0))
    y = np.zeros((top + 2, len(z)))
    y[1] = 1.0
    rows = list(y)
    for r in range(2, top + 2):
        np.multiply(c[r], rows[r - 1], out=rows[r])
        np.subtract(rows[r], rows[r - 2], out=rows[r])
        if r % 8 == 0 and (big := np.abs(rows[r]) > 2.0**500).any():
            y[:r + 1, big] *= 2.0**-500
    cols = np.arange(len(z))
    return lambda k: y[np.maximum(start + 1 - np.asarray(k), 0), cols], top


def bessel_J(n, z, offsets):
    """J_{n+o}(z) for each offset o, normalized by J_0 + 2 sum_k J_2k = 1."""
    tiny = z < _TINY
    y, top = miller(n, np.where(tiny, 1.0, z), 0)
    norm = y(0) + 2.0 * np.cumsum(y(np.arange(2, top + 2, 2)[:, None]), axis=0)[-1]
    out = []
    for k in (n + o for o in offsets):
        v = y(np.abs(k)) / norm
        if tiny.any():
            v[tiny] = _leading(np.abs(k[tiny]), z[tiny], 0)
        out.append(np.where((k < 0) & (k % 2 == 1), -v, v))
    return out


def spherical_j_1d(k, z):
    """j_k(z): the forward table where k = 0 or k < z, else Miller's."""
    out = np.empty(len(z))
    tiny = z < _TINY
    z, given = np.where(tiny, 1.0, z), z
    up = (k == 0) | (k < z)
    if up.any():
        ku, zu = k[up], z[up]
        j = np.empty((max(int(ku.max()), 1) + 1, len(zu)))
        j[0] = np.sin(zu) / zu
        j[1] = (j[0] - np.cos(zu)) / zu
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(2, len(j)):
                np.multiply(j[m - 1], 2 * m - 1, out=j[m])
                np.divide(j[m], zu, out=j[m])
                np.subtract(j[m], j[m - 2], out=j[m])
        out[up] = j[ku, np.arange(len(zu))]
    if not up.all():
        kd, zd = k[~up], z[~up]
        y, _ = miller(kd, zd, 1)
        j0 = np.sin(zd) / zd
        j1 = (j0 - np.cos(zd)) / zd
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / y(0), j1 / y(1))
        out[~up] = scale * y(kd)
    if tiny.any():
        out[tiny] = _leading(k[tiny], given[tiny], 1)
    return out


@_elementwise(0)
def bessel_j(n, z):
    return bessel_J(n, z, (0,))[0]


@_elementwise(1)
def bessel_jvp(n, z):
    lo, hi = bessel_J(n, z, (-1, 1))
    return (lo - hi) / 2.0


@_elementwise(2)
def bessel_jvpp(n, z):
    lo, mid, hi = bessel_J(n, z, (-2, 0, 2))
    return (lo - 2.0 * mid + hi) / 4.0


@_elementwise(0)
def spherical_j(n, z):
    return spherical_j_1d(n, z)


@_elementwise(1)
def spherical_jnp(n, z):
    orders = np.concatenate([np.where(n == 0, 1, n - 1), n])
    j = spherical_j_1d(orders, np.concatenate([z, z]))
    lo, hi = j[:len(z)], j[len(z):]
    tiny = z < _TINY
    return np.where(n == 0, -lo, np.where(tiny, n * lo / (2 * n + 1),
                                          lo - (n + 1) * hi / np.where(tiny, 1.0, z)))


def bessel_jv_frac(nu, z):
    """(J_nu(z), J_{nu+1}(z)) normalized by Neumann's sum for (z/2)^nu."""
    y, top = miller(np.zeros(len(z)), z, 2.0 * nu)
    k = np.arange(top // 2 + 1)
    a = (nu + 2 * k) * np.cumprod(np.r_[math.gamma(nu), (nu + k[:-1]) / k[1:]])
    scale = (0.5 * z) ** nu / np.cumsum(a[:, None] * y(2 * k[:, None]), axis=0)[-1]
    return scale * y(0), scale * y(1)
