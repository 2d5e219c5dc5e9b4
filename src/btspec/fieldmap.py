"""Eigenfunction evaluation on spatial grids.

v_j(x) = sum_k X[j, k] u_k(x) with the explicit Laplacian eigenfunctions of
each geometry, normalized to unit L2 norm over the domain (lengths in units
of R).  Every basis is real.  Points outside the domain evaluate to NaN and
are reported in the grid mask.

Each mode is a product of 1-D factors (_mode_factors): j_n(alpha r) P_n^m(xi)
times cos or sin(m phi) (none for m = 0) on the sphere, J_n(alpha rho) cos or
sin(n phi) on the disk, times cos(pi m (z + h/2) / h) on the cylinder; the
interval has only the last.  The sphere and the disk share the azimuthal
factor, of phi = arctan2(y, x).
Each factor is evaluated once, on the distinct values of its coordinate among
the inside points, and radial factors are summed per angular group.  A
coordinate is kept only as its distinct values and the map of each point
into them, and one angular group at a time is expanded to the points, so a
section's working memory is a few point-sized arrays.
The radial factors come from specfun's recurrences (bessel_j, spherical_j)
and P_n^m from its upward recurrence in n (_legendre): a map loads numpy
alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .errors import DomainError
from .matrices import beta_disk, beta_sphere
from .specfun import bessel_j, spherical_j
from .spectrum import Spectrum


@dataclass(frozen=True)
class FieldGrid:
    """Sampled eigenfunction on a plane section.

    values[i, j] is v at (axis1[i], axis2[j]) with NaN outside the domain;
    inside is the validity mask.  plane is 'xz' (y = 0) or 'xy' (z = 0).
    """

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    inside: np.ndarray
    plane: str
    j: int
    gbar: float
    eigenvalue: complex
    flagged: bool = False
    meta: dict = field(default_factory=dict)


def inside_mask(basis: BasisSet, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the domain (pts shape (..., 3), units of R)."""
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    g = basis.geometry
    if g in ("sphere", "sphere_reduced"):
        return x * x + y * y + z * z < 1.0
    if g not in ("cylinder", "disk", "interval"):
        raise DomainError(f"unknown geometry {g!r}")
    in_disk = x * x + y * y < 1.0 if g != "interval" else True
    return in_disk & (np.abs(z) < basis.aspect / 2.0 if g != "disk" else True)


def _mode_factors(basis: BasisSet, i: int) -> tuple:
    """1-D factors (coordinate, key) whose product is mode i, radial first;
    a radial key is (n, alpha_nk), an azimuthal one (order, l)."""
    g, ix, alpha = basis.geometry, basis.indices[i], basis.alpha[i]
    if g in ("sphere", "sphere_reduced"):
        return (("r", (ix.n, alpha)), ("xi", (ix.n, ix.m))) \
            + ((("phi", (ix.m, ix.l)),) if ix.m else ())
    z = (("z", (ix.m, basis.aspect)),) if g != "disk" else ()
    return z if g == "interval" else (("rho", (ix.n, alpha)), ("phi", (ix.n, ix.l))) + z


def _legendre(n: int, m: int, x: np.ndarray) -> np.ndarray:
    """Ferrers' P_n^m(x), 0 <= m <= n, with the Condon-Shortley phase
    (-1)^m as in scipy.special.lpmv: the upward recurrence in the degree
    (k - m) P_k^m = (2k - 1) x P_{k-1}^m - (k + m - 1) P_{k-2}^m (DLMF
    14.10.3) from P_m^m = (-1)^m (2m - 1)!! (1 - x^2)^(m/2)."""
    p_prev = np.zeros_like(x)
    p = (-1.0) ** m * math.prod(range(1, 2 * m, 2)) * np.sqrt((1.0 - x) * (1.0 + x)) ** m
    for k in range(m + 1, n + 1):
        p, p_prev = ((2 * k - 1) * x * p - (k + m - 1) * p_prev) / (k - m), p
    return p


def _factor(coord: str, key, u: np.ndarray) -> np.ndarray:
    """Values of one 1-D factor at the coordinate values u."""
    if coord == "r":
        n, alpha = key
        return beta_sphere(n, alpha) / spherical_j(n, alpha) * spherical_j(n, alpha * u)
    if coord == "xi":  # with the sqrt(2) of a cos/sin pair member
        n, m = key
        ratio = math.exp(math.lgamma(n + m + 1) - math.lgamma(n - m + 1))  # (n+m)!/(n-m)!
        return _legendre(n, m, u) / np.sqrt(2 * np.pi * ratio / (2.0 - (m == 0)))
    if coord == "rho":
        n, alpha = key
        return np.sqrt((2.0 - (n == 0)) / np.pi) * beta_disk(n, alpha) \
            / bessel_j(n, alpha) * bessel_j(n, alpha * u)
    if coord == "phi":
        return np.cos(key[0] * u) if key[1] == 1 else np.sin(key[0] * u)
    m, h = key
    return np.sqrt((2.0 - (m == 0)) / h) * np.cos(np.pi * m * (u + h / 2) / h)


def eval_eigenfunction(x_row: np.ndarray, basis: BasisSet,
                       points: np.ndarray) -> np.ndarray:
    """v(x) = sum_k X_row[k] u_k(x) at points (P, 3); NaN outside the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise DomainError("points must have shape (P, 3)")
    mask = inside_mask(basis, pts)
    return _fill(mask, _eval_inside(x_row, basis, lambda k: pts[mask, k]))


def _fill(mask: np.ndarray, inner) -> np.ndarray:
    """Complex array shaped like mask: inner where mask holds, NaN elsewhere."""
    out = np.full(mask.shape, np.nan + 1j * np.nan)
    out[mask] = inner
    return out


def _coordinate(c: str, point) -> np.ndarray:
    """Coordinate c ('r', 'rho', 'phi', 'z' or 'xi') of the inside points,
    from point(k), their cartesian coordinate k (x, y, z) as a new array."""
    if c == "z":
        return point(2)
    if c == "phi":
        return np.arctan2(point(1), point(0))
    if c == "xi":
        r = _coordinate("r", point)
        return np.where(r > 0, point(2) / np.maximum(r, 1e-300), 1.0)
    s = np.square(point(0))  # x*x + y*y (+ z*z), added left to right
    for k in (1, 2) if c == "r" else (1,):
        s += np.square(point(k))
    return np.sqrt(s, out=s)


def _eval_inside(x_row: np.ndarray, basis: BasisSet, point) -> np.ndarray | complex:
    """v at the inside points, whose cartesian coordinate k is point(k)
    (the scalar 0j for a zero row).

    Each coordinate a factor reads is computed from fresh columns and kept
    only as its distinct values and the map of each point into them; the
    angular groups are expanded to the points one at a time.
    """
    groups: dict[tuple, dict] = {}  # angular factors -> {radial factor: coefficient}
    for i in np.flatnonzero(np.abs(x_row) > 0):
        radial, *angular = _mode_factors(basis, i)
        groups.setdefault(tuple(angular), {})[radial] = x_row[i]
    uses = Counter(f for angular, terms in groups.items() for f in (*angular, *terms))
    # coordinate -> (distinct values, index of each inside point into them)
    coords = {c: np.unique(_coordinate(c, point), return_inverse=True)
              for c in {c for c, _ in uses}}
    kept: dict[tuple, np.ndarray] = {}

    def factor(f):  # at the distinct values; kept until its last use
        vals = kept.pop(f) if f in kept else _factor(*f, coords[f[0]][0])
        uses[f] -= 1
        if uses[f]:
            kept[f] = vals
        return vals
    inner = 0j  # 0j + the first term is zeros + term, bit for bit
    for angular, terms in groups.items():
        tables = [factor(f) for f in angular]  # before the group's term exists
        (coord, _), *_ = terms
        term = sum((c * factor(f) for f, c in terms.items()), 0j)[coords[coord][1]]
        for f, table in zip(angular, tables):
            term *= table[coords[f[0]][1]]
        inner += term
        del term  # before the next group's tables
    return inner


def export_projection(spec: Spectrum, basis: BasisSet, j: int,
                      resolution: int = 201, plane: str = "xz") -> FieldGrid:
    """Plane section of eigenfunction j (1-based branch/table index).

    The grid covers the bounding box of the section; values are NaN outside
    the domain.  The eigenvalue and the near-branch-point flag travel with
    the grid.  The (n1, n2, 3) point array lives only until the mask is
    made: the inside points' coordinates are taken from the axes.
    """
    if spec.X is None:
        raise DomainError("spectrum carries no eigenvectors")
    if not 1 <= j <= spec.N:
        raise DomainError(f"eigenfunction index {j} outside 1..{spec.N}")
    if plane not in ("xz", "xy"):
        raise DomainError("plane must be 'xz' or 'xy'")
    ax1, ax2 = _section_axes(basis, resolution, plane)
    zero = np.zeros((1, 1))
    xyz = (ax1[:, None], zero, ax2) if plane == "xz" else (ax1[:, None], ax2, zero)
    inside = inside_mask(basis, np.stack(np.broadcast_arrays(*xyz), axis=-1))
    vals = _fill(inside, _eval_inside(
        spec.X[j - 1], basis, lambda k: np.broadcast_to(xyz[k], inside.shape)[inside]))
    return FieldGrid(axis1=ax1, axis2=ax2, values=vals, inside=inside, plane=plane,
                     j=j, gbar=spec.gbar, eigenvalue=complex(spec.eigenvalues[j - 1]),
                     flagged=spec.near_branch is not None and bool(spec.near_branch[j - 1]),
                     meta={"geometry": basis.geometry, "N": spec.N})


def _axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    # a 1-point axis samples the box center
    return np.linspace(lo, hi, resolution) if resolution > 1 else np.array([0.5 * (lo + hi)])


def _section_axes(basis: BasisSet, resolution: int, plane: str):
    g, half = basis.geometry, basis.aspect / 2.0
    along_z = g == "interval" or (g == "cylinder" and plane == "xz")
    return (np.zeros(1) if g == "interval" else _axis(-1.0, 1.0, resolution),
            _axis(-half, half, resolution) if along_z else _axis(-1.0, 1.0, resolution))
