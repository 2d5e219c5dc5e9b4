"""Eigenfunction evaluation on spatial grids.

v_j(x) = sum_k X[j, k] u_k(x) with the explicit Laplacian eigenfunctions of
each geometry, normalized to unit L2 norm over the domain (lengths in units
of R).  The sphere uses the complex e^{i m phi} basis whose bilinear overlap
matrix W is non-trivial; the cylinder/disk/interval use real bases.  Points
outside the domain evaluate to NaN and are reported in the grid mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, jv, lpmv, spherical_jn

from .basis import BasisSet
from .errors import DomainError
from .matrices import _alpha, beta_disk, beta_sphere
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
    """Boolean mask of points inside the domain (pts shape (P, 3), units of R)."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    g = basis.geometry
    if g in ("sphere", "sphere_reduced"):
        return x * x + y * y + z * z < 1.0
    if g == "cylinder":
        return (x * x + y * y < 1.0) & (np.abs(z) < basis.aspect / 2.0)
    if g == "disk":
        return x * x + y * y < 1.0
    if g == "interval":
        return np.abs(z) < basis.aspect / 2.0
    raise DomainError(f"unknown geometry {g!r}")


def basis_function(basis: BasisSet, i: int, pts: np.ndarray) -> np.ndarray:
    """Values of the i-th Laplacian mode at pts (P, 3); no inside masking."""
    ix = basis.indices[i]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    g = basis.geometry
    if g in ("sphere", "sphere_reduced"):
        return _sphere_mode(ix.n, ix.k, ix.m, x, y, z)
    if g == "disk":
        return _disk_mode(ix.n, ix.k, ix.l, x, y)
    if g == "cylinder":
        h = basis.aspect
        zfac = np.sqrt((2.0 - (ix.m == 0)) / h) * np.cos(np.pi * ix.m * (z + h / 2) / h)
        return _disk_mode(ix.n, ix.k, ix.l, x, y) * zfac
    if g == "interval":
        H = basis.aspect
        return np.sqrt((2.0 - (ix.m == 0)) / H) * np.cos(np.pi * ix.m * (z + H / 2) / H)
    raise DomainError(f"unknown geometry {g!r}")


def _sphere_mode(n, k, m, x, y, z):
    alpha = _alpha("dj_spherical", n, k)
    r = np.sqrt(x * x + y * y + z * z)
    if alpha == 0.0:
        return np.full_like(r, np.sqrt(3.0 / (4.0 * np.pi)), dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        xi = np.where(r > 0, z / np.maximum(r, 1e-300), 1.0)
    phi = np.arctan2(y, x)
    ratio = np.exp(gammaln(n + m + 1) - gammaln(n - m + 1))
    norm = beta_sphere(n, alpha) / (spherical_jn(n, alpha) * np.sqrt(2 * np.pi * ratio))
    return norm * spherical_jn(n, alpha * r) * lpmv(m, n, xi) * np.exp(1j * m * phi)


def _disk_mode(n, k, l, x, y):
    alpha = _alpha("dJ", n, k)
    r = np.sqrt(x * x + y * y)
    if alpha == 0.0:
        return np.full_like(r, 1.0 / np.sqrt(np.pi), dtype=complex)
    th = np.arctan2(y, x)
    norm = np.sqrt(2.0 - (n == 0)) / np.sqrt(np.pi) * beta_disk(n, alpha) / jv(n, alpha)
    ang = np.cos(n * th) if l == 1 else np.sin(n * th)
    return norm * jv(n, alpha * r) * ang


def eval_eigenfunction(x_row: np.ndarray, basis: BasisSet,
                       points: np.ndarray) -> np.ndarray:
    """v(x) = sum_k X_row[k] u_k(x) at points (P, 3); NaN outside the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 3:
        raise DomainError("points must have shape (P, 3)")
    mask = inside_mask(basis, pts)
    out = np.zeros(len(pts), dtype=complex)
    for k in np.flatnonzero(np.abs(x_row) > 0):
        out += x_row[k] * basis_function(basis, k, pts)
    out[~mask] = np.nan + 1j * np.nan
    return out


def export_projection(spec: Spectrum, basis: BasisSet, j: int,
                      resolution: int = 201, plane: str = "xz") -> FieldGrid:
    """Plane section of eigenfunction j (1-based branch/table index).

    The grid covers the bounding box of the section; values are NaN outside
    the domain.  The eigenvalue and the near-branch-point flag travel with
    the grid.
    """
    if spec.X is None:
        raise DomainError("spectrum carries no eigenvectors")
    if not 1 <= j <= spec.N:
        raise DomainError(f"eigenfunction index {j} outside 1..{spec.N}")
    row = spec.X[j - 1]
    ax1, ax2 = _section_axes(basis, resolution, plane)
    A1, A2 = np.meshgrid(ax1, ax2, indexing="ij")
    pts = np.zeros((A1.size, 3))
    if plane == "xz":
        pts[:, 0], pts[:, 2] = A1.ravel(), A2.ravel()
    elif plane == "xy":
        pts[:, 0], pts[:, 1] = A1.ravel(), A2.ravel()
    else:
        raise DomainError("plane must be 'xz' or 'xy'")
    vals = eval_eigenfunction(row, basis, pts).reshape(A1.shape)
    inside = inside_mask(basis, pts).reshape(A1.shape)
    flagged = bool(spec.near_branch[j - 1]) if spec.near_branch is not None else False
    return FieldGrid(axis1=ax1, axis2=ax2, values=vals, inside=inside,
                     plane=plane, j=j, gbar=spec.gbar,
                     eigenvalue=complex(spec.eigenvalues[j - 1]),
                     flagged=flagged,
                     meta={"geometry": basis.geometry, "N": spec.N})


def _axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    # a 1-point axis samples the box center
    if resolution == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, resolution)


def _section_axes(basis: BasisSet, resolution: int, plane: str):
    g = basis.geometry
    if g in ("sphere", "sphere_reduced", "disk"):
        return _axis(-1.0, 1.0, resolution), _axis(-1.0, 1.0, resolution)
    if g == "cylinder":
        ax1 = _axis(-1.0, 1.0, resolution)
        half = basis.aspect / 2.0
        ax2 = (_axis(-half, half, resolution) if plane == "xz"
               else _axis(-1.0, 1.0, resolution))
        return ax1, ax2
    if g == "interval":
        half = basis.aspect / 2.0
        return np.zeros(1), _axis(-half, half, resolution)
    raise DomainError(f"unknown geometry {g!r}")
