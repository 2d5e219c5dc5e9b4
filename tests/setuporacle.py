"""Per-order reference for the cold set-up of btspec.basis and btspec.matrices.

The bases are enumerated order by order under a cutoff that starts at 10 and
doubles, each order's zeros requested from a table kept per (kind, order)
and rescanned at every doubling; the sphere, disk and interval matrices are
filled by a plain double loop over all (a, b) pairs, one scalar element call
per pair (b_element_sphere for |n - n'| = 1, disk_xy, b_element_interval;
the closed-form elements live here only).  It is the slow, obviously
sequential route that the multi-order zero scan and the index-array assembly
must equal bit for bit (tests/test_matrices.py).  cylinder_every_order keeps
the cylinder generator that lists every axial order under the cut
(tests/test_basis.py).
"""

import numpy as np

from btspec import specfun
from btspec.basis import BasisIndex, _collect as collect_cut, _cut_at_class_boundary, _radial
from btspec.matrices import _check_denom, beta_disk, beta_sphere

_cache: dict = {}


def cached_zeros(kind, n, count):
    """First `count` zeros of kind 'dJ' or 'dj_spherical' and order n."""
    key = (kind, n)
    have = _cache.get(key)
    if have is None or len(have) < count:
        _cache[key] = specfun._scan_kind(kind, [n], count=max(count, 16))[0]
    return _cache[key][:count]


def zeros_upto(kind, n, zmax):
    """Zeros <= zmax of kind 'dJ' or 'dj_spherical' and order n."""
    count = max(4, int(zmax / np.pi) + 2)
    while True:
        z = cached_zeros(kind, n, count)
        if z[-1] > zmax:
            return z[z <= zmax]
        count *= 2


def alpha(kind, n, k):
    """alpha_nk; for n = 0, k = 0 is the constant mode with alpha_00 = 0."""
    if n == 0:
        return 0.0 if k == 0 else cached_zeros(kind, 0, k)[k - 1]
    return cached_zeros(kind, n, k + 1)[k]


def _collect(generate, N):
    cut = 10.0
    while True:
        entries = sorted(generate(cut), key=lambda e: (e[0], e[1]))
        if len(entries) > N and entries[-1][0] > entries[N - 1][0] * (1 + 1e-9) + 1.0:
            picked = _cut_at_class_boundary(entries, N)
            return tuple(e[2] for e in picked), np.array([e[0] for e in picked])
        cut *= 2.0


def _sphere(N, geometry):
    def generate(cut):
        zmax = np.sqrt(cut)
        out = [(0.0, (0, 0, 0, 1), BasisIndex(n=0, k=0, l=1, m=0))]
        n = 0
        while True:
            zeros = zeros_upto("dj_spherical", n, zmax)
            if n > 0 and zeros.size == 0:
                break
            for j, a in enumerate(zeros):
                k = j + 1 if n == 0 else j
                for m in range(n + 1) if geometry == "sphere" else (0,):
                    for l in (1, 2) if m else (1,):
                        out.append((a * a, (n, k, m, l), BasisIndex(n=n, k=k, l=l, m=m)))
            n += 1
        return out
    return _collect(generate, N)


def _disk(N):
    def generate(cut):
        zmax = np.sqrt(cut)
        out = [(0.0, (0, 0, 1), BasisIndex(n=0, k=0, l=1))]
        n = 0
        while True:
            zeros = zeros_upto("dJ", n, zmax)
            if n > 0 and zeros.size == 0:
                break
            for j, a in enumerate(zeros):
                k = j + 1 if n == 0 else j
                for l in (1, 2) if n > 0 else (1,):
                    out.append((a * a, (n, k, l), BasisIndex(n=n, k=k, l=l)))
            n += 1
        return out
    return _collect(generate, N)


def _cylinder(N, h):
    def generate(cut):
        out = []
        zmax = np.sqrt(cut)
        n = 0
        while True:
            zeros = zeros_upto("dJ", n, zmax)
            alphas = [(0, 0.0)] if n == 0 else []
            alphas += [((j + 1 if n == 0 else j), a) for j, a in enumerate(zeros)]
            if not alphas:
                break
            emitted = False
            for k, a in alphas:
                base = a * a
                if base > cut:
                    continue
                m = 0
                while base + (np.pi * m / h) ** 2 <= cut:
                    lam = base + (np.pi * m / h) ** 2
                    for l in (1, 2) if n > 0 else (1,):
                        out.append((lam, (n, k, l, m), BasisIndex(n=n, k=k, l=l, m=m)))
                    emitted = True
                    m += 1
            if not emitted:
                break
            n += 1
        return out
    return _collect(generate, N)


def cylinder_every_order(N, h):
    """(indices, eigenvalues, alphas) of the cylinder basis from candidates
    holding every axial order m under the cut, for each radial family: the
    generator that build_cylinder_basis bounds to the orders it can use."""
    def generate(cut):
        out = []
        for n, k, a in _radial("dJ", cut):
            base, m = a * a, 0
            while base + (np.pi * m / h) ** 2 <= cut:
                lam = base + (np.pi * m / h) ** 2
                for l in (1, 2) if n > 0 else (1,):
                    out.append((lam, (n, k, l, m), BasisIndex(n=n, k=k, l=l, m=m), a))
                m += 1
        return out

    cut = min(10.0 + (6.0 * np.pi * N / h) ** (2 / 3), 10.0 + 4.0 * N)
    return collect_cut(generate, N, cut)


def build(geometry, N, h=1.0):
    """(indices, eigenvalues, alphas) of the basis, enumerated order by order."""
    if geometry in ("sphere", "sphere_reduced"):
        idx, lams = _sphere(N, geometry)
    else:
        idx, lams = _disk(N) if geometry == "disk" else _cylinder(N, h)
    kind = "dj_spherical" if geometry.startswith("sphere") else "dJ"
    return idx, lams, np.array([alpha(kind, ix.n, ix.k) for ix in idx])


def b_element_sphere(n: int, a: float, n2: int, a2: float) -> float:
    """z element B_{nk0,n'k'0} between m = 0 sphere modes; assemble_sphere
    scales it for the other m.

    Nonzero only for n' = n +- 1.  a, a2 are alpha_nk, alpha_n'k'.
    """
    if abs(n - n2) != 1:
        return 0.0
    d = _check_denom(a, a2)
    num = a * a + a2 * a2 - n * (n2 + 1) - n2 * (n + 1) + 1
    pref = (n + n2 + 1) / ((2 * n + 1) * (2 * n2 + 1))
    return pref * beta_sphere(n, a) * beta_sphere(n2, a2) * num / d


def b_element_disk(n: int, a: float, n2: int, a2: float) -> float:
    """Disk element B^d_{nk,n'k'}; nonzero only for n' = n +- 1."""
    if abs(n - n2) != 1:
        return 0.0
    d = _check_denom(a, a2)
    num = a * a + a2 * a2 - 2 * n * n2
    pref = np.sqrt(1.0 + (n == 0) + (n2 == 0))
    return pref * beta_disk(n, a) * beta_disk(n2, a2) * num / d


def b_element_interval(m: int, m2: int) -> float:
    """Interval element B^i_{m,m'} for the unit interval (-1/2, 1/2)."""
    if m == m2:
        return 0.0
    sign = (-1.0) ** (m + m2) - 1.0
    if sign == 0.0:
        return 0.0
    c = np.sqrt(2.0 - (m == 0)) * np.sqrt(2.0 - (m2 == 0))
    return sign * c * (m * m + m2 * m2) / (np.pi**2 * (m * m - m2 * m2) ** 2)


def sphere_matrices(idx):
    """(Bx, By, Bz) of the real-harmonic sphere by the loop over all (a, b)
    pairs: the complex-harmonic elements between m, m' >= 0, with a sqrt(2)
    for m = 0 and, for B^y (cos to sin), the sign of the lower-m mode."""
    N = len(idx)
    alphas = [alpha("dj_spherical", ix.n, ix.k) for ix in idx]
    Bx, By, Bz = (np.zeros((N, N)) for _ in range(3))
    for a in range(N):
        na, la, ma = idx[a].n, idx[a].l, idx[a].m
        for b in range(N):
            nb, lb, mb = idx[b].n, idx[b].l, idx[b].m
            if abs(na - nb) != 1 or abs(ma - mb) > 1:
                continue
            base = b_element_sphere(na, alphas[a], nb, alphas[b])
            if ma == mb:
                if la == lb:
                    Bz[a, b] = base * np.sqrt(1.0 - (ma / max(na, nb)) ** 2)
                continue
            if nb == na + 1 and mb == ma - 1:
                v = 0.5 * base * (np.sqrt((na - ma + 1) * (na - ma + 2)) / (na + 1))
            elif nb == na + 1:
                v = -(0.5 * base * (np.sqrt((na + ma + 1) * (na + ma + 2)) / (na + 1)))
            elif mb == ma - 1:
                v = -(0.5 * base * (np.sqrt((na + ma - 1) * (na + ma)) / na))
            else:
                v = 0.5 * base * (np.sqrt((na - ma - 1) * (na - ma)) / na)
            if ma == 0 or mb == 0:
                v *= np.sqrt(2.0)
            if la == lb:
                Bx[a, b] = v
            else:
                By[a, b] = v if (la if ma < mb else lb) == 1 else -v
    return Bx, By, Bz


def disk_xy(ia, aa, ib, ab):
    """(B_d^x, B_d^y) entry between two disk modes (n, k, l)."""
    na, la, nb, lb = ia.n, ia.l, ib.n, ib.l
    if abs(na - nb) != 1:
        return 0.0, 0.0
    base = b_element_disk(na, aa, nb, ab)
    guard = 0.0 if na + nb == 1 else 1.0
    x = y = 0.0
    if la == lb:
        x = base if la == 1 else base * guard
    elif la == 1 and lb == 2:
        y = base if nb == na + 1 else -base * guard
    elif la == 2 and lb == 1:
        y = base if nb == na - 1 else -base * guard
    return x, y


def interval_matrix(ms, h):
    """B^z of the interval of length h on the cosine orders ms, by the loop
    over all (a, b) pairs."""
    return np.array([[h * b_element_interval(ma, mb) for mb in ms] for ma in ms])


def disk_matrices(idx):
    """(Bx, By) of the disk by the loop over all (a, b) pairs."""
    N = len(idx)
    alphas = [alpha("dJ", ix.n, ix.k) for ix in idx]
    Bx, By = np.zeros((N, N)), np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            Bx[a, b], By[a, b] = disk_xy(idx[a], alphas[a], idx[b], alphas[b])
    return Bx, By


def cylinder_matrices(idx, h):
    """(Bx, By, Bz) of the capped cylinder by the loop over all (a, b) pairs."""
    N = len(idx)
    alphas = [alpha("dJ", ix.n, ix.k) for ix in idx]
    Bx, By, Bz = (np.zeros((N, N)) for _ in range(3))
    for i, ia in enumerate(idx):
        for j, ib in enumerate(idx):
            if ia.m == ib.m:
                Bx[i, j], By[i, j] = disk_xy(ia, alphas[i], ib, alphas[j])
            if (ia.n, ia.k, ia.l) == (ib.n, ib.k, ib.l):
                Bz[i, j] = h * b_element_interval(ia.m, ib.m)
    return Bx, By, Bz
