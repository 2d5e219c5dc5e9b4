"""Independent quadrature oracle for matrix elements.

Evaluates the explicit (real) Laplacian eigenfunctions pointwise on
tensor-product Gauss-Legendre / trapezoid grids and integrates u_a * coord * u_b
directly.  Deliberately does not import btspec.fieldmap or reuse the
closed-form matrix elements: this is the independent route the closed forms
are checked against.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammaln, jv, lpmv, spherical_jn

from btspec.matrices import beta_disk, beta_sphere
from setuporacle import alpha as _alpha


def _sphere_u(ix, pts_r, pts_xi, pts_phi):
    """Real harmonic: j_n P_n^m times sqrt(2) cos(m phi) (l = 1) or
    sqrt(2) sin(m phi) (l = 2) for m > 0, no phi factor for m = 0."""
    n, m = ix.n, ix.m
    alpha = _alpha("dj_spherical", n, ix.k)
    if alpha == 0.0:
        return np.full(pts_r.shape, np.sqrt(3.0 / (4 * np.pi)))
    ratio = np.exp(gammaln(n + m + 1) - gammaln(n - m + 1))
    norm = beta_sphere(n, alpha) / (spherical_jn(n, alpha) * np.sqrt(2 * np.pi * ratio))
    ang = np.ones_like(pts_phi) if m == 0 else \
        np.sqrt(2.0) * (np.cos(m * pts_phi) if ix.l == 1 else np.sin(m * pts_phi))
    return norm * spherical_jn(n, alpha * pts_r) * lpmv(m, n, pts_xi) * ang


def sphere_matrices_by_quadrature(basis, nr=90, nxi=60, nphi=96):
    """(Bx, By, Bz, G) of the full sphere by direct numerical integration;
    G is the overlap integral(u_a u_b), the identity for an orthonormal basis."""
    xr, wr = leggauss(nr)
    r = 0.5 * (xr + 1)
    wr = 0.5 * wr
    xxi, wxi = leggauss(nxi)
    phi = np.arange(nphi) * 2 * np.pi / nphi
    R, XI, PHI = np.meshgrid(r, xxi, phi, indexing="ij")
    WT = (wr[:, None, None] * wxi[None, :, None] * (2 * np.pi / nphi) * R**2).ravel()
    U = np.array([_sphere_u(ix, R, XI, PHI).ravel() for ix in basis.indices])
    sin_t = np.sqrt(1 - XI**2)
    coords = {
        "x": (R * sin_t * np.cos(PHI)).ravel(),
        "y": (R * sin_t * np.sin(PHI)).ravel(),
        "z": (R * XI).ravel(),
    }
    out = {key: (U * (c * WT)) @ U.T for key, c in coords.items()}
    return out["x"], out["y"], out["z"], (U * WT) @ U.T


def reduced_sphere_matrix_by_quadrature(basis, nr=120, nxi=80):
    xr, wr = leggauss(nr)
    r = 0.5 * (xr + 1)
    wr = 0.5 * wr
    xxi, wxi = leggauss(nxi)
    R, XI = np.meshgrid(r, xxi, indexing="ij")
    WT = (wr[:, None] * wxi[None, :] * R**2 * 2 * np.pi).ravel()
    U = np.array([_sphere_u(ix, R, XI, np.zeros_like(R)).ravel()
                  for ix in basis.indices])
    z = (R * XI).ravel()
    return (U * (z * WT)) @ U.T


def _disk_u(ix, pts_r, pts_th):
    n, l = ix.n, ix.l
    alpha = _alpha("dJ", n, ix.k)
    if alpha == 0.0:
        return np.full(pts_r.shape, 1.0 / np.sqrt(np.pi))
    norm = np.sqrt(2.0 - (n == 0)) / np.sqrt(np.pi) * beta_disk(n, alpha) / jv(n, alpha)
    ang = np.cos(n * pts_th) if l == 1 else np.sin(n * pts_th)
    return norm * jv(n, alpha * pts_r) * ang


def disk_matrices_by_quadrature(basis, nr=120, nth=128):
    xr, wr = leggauss(nr)
    r = 0.5 * (xr + 1)
    wr = 0.5 * wr
    th = np.arange(nth) * 2 * np.pi / nth
    R, TH = np.meshgrid(r, th, indexing="ij")
    WT = (wr[:, None] * (2 * np.pi / nth) * R).ravel()
    U = np.array([_disk_u(ix, R, TH).ravel() for ix in basis.indices])
    x = (R * np.cos(TH)).ravel()
    y = (R * np.sin(TH)).ravel()
    Bx = (U * (x * WT)) @ U.T
    By = (U * (y * WT)) @ U.T
    return Bx, By


def interval_matrix_by_quadrature(basis, nz=240):
    H = basis.aspect
    xz, wz = leggauss(nz)
    z = 0.5 * H * xz
    wz = 0.5 * H * wz
    U = np.array([np.sqrt((2.0 - (ix.m == 0)) / H)
                  * np.cos(np.pi * ix.m * (z + H / 2) / H)
                  for ix in basis.indices])
    return (U * (z * wz)) @ U.T


def cylinder_matrices_by_quadrature(basis, nr=90, nth=96, nz=90):
    h = basis.aspect
    xr, wr = leggauss(nr)
    r = 0.5 * (xr + 1)
    wr = 0.5 * wr
    th = np.arange(nth) * 2 * np.pi / nth
    xz, wz = leggauss(nz)
    z = 0.5 * h * xz
    wz = 0.5 * h * wz
    R, TH, Z = np.meshgrid(r, th, z, indexing="ij")
    WT = (wr[:, None, None] * (2 * np.pi / nth) * wz[None, None, :] * R).ravel()
    U = []
    for ix in basis.indices:
        zfac = np.sqrt((2.0 - (ix.m == 0)) / h) * np.cos(np.pi * ix.m * (Z + h / 2) / h)
        U.append((_disk_u(ix, R, TH) * zfac).ravel())
    U = np.array(U)
    x = (R * np.cos(TH)).ravel()
    y = (R * np.sin(TH)).ravel()
    zc = Z.ravel()
    Bx = (U * (x * WT)) @ U.T
    By = (U * (y * WT)) @ U.T
    Bz = (U * (zc * WT)) @ U.T
    return Bx, By, Bz
