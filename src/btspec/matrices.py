"""Dense operator matrices in the truncated Laplacian basis.

For each geometry this assembles the diagonal Laplacian matrix Lambda and the
coordinate-multiplication matrices B^x, B^y, B^z (dimensionless: lengths in
units of R).  Every basis is real (the sphere's and the disk's angular
factors are cos and sin), so each B is a real symmetric float64 matrix,
B_ab = integral(u_a * (x/R) * u_b), and the modes are orthonormal under the
bilinear form integral(u_a * u_b).  The eigenproblem downstream is
row-vector sided: X (Lambda + i*gbar*B) = Lambda^(g) X.

Closed-form matrix elements follow the delta_{n,n'+-1} selection rules of the
separable bases, with the zeros alpha taken from the basis (BasisSet.alpha);
the sphere's are filled from index arrays over the allowed pairs only.
Off-diagonal denominators (alpha^2 - alpha'^2)^2 never vanish for distinct
orders, but a floor is asserted to catch zero-table corruption.

gradient_direction alone turns gradient angles into a unit vector; it weights
the B's (gradient_matrix), the cylinder's factors and the CLI's walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisIndex, BasisSet, build_basis
from .errors import ConfigError, DomainError, MatrixAssemblyError

_MIN_DENOM_SQ = 1e-12


@dataclass(frozen=True)
class OperatorMatrices:
    """Assembled matrices for one geometry; axes absent from a reduced
    geometry are None (e.g. the interval only multiplies by z)."""

    basis: BasisSet
    lam: np.ndarray  # diagonal of Lambda, real, dimensionless R^2*lambda
    Bx: np.ndarray | None
    By: np.ndarray | None
    Bz: np.ndarray | None

    @property
    def N(self) -> int:
        return len(self.lam)

    def bloch_torrey(self, B: np.ndarray, gbar: float) -> np.ndarray:
        """Dense matrix Lambda + i*gbar*B."""
        M = np.diag(self.lam).astype(complex)
        M += 1j * gbar * B
        return M


def beta_sphere(n: int, alpha: float) -> float:
    """Radial normalization factor for the sphere; beta_00 = sqrt(3/2)."""
    if alpha == 0.0:
        return np.sqrt(1.5)
    return np.sqrt((2 * n + 1) * alpha**2 / (alpha**2 - n * (n + 1)))


def beta_disk(n: int, alpha: float) -> float:
    """Radial normalization factor for the disk; beta_00 = 1."""
    if alpha == 0.0:
        return 1.0
    return alpha / np.sqrt(alpha**2 - n * n)


def _check_denom(a: float, a2: float) -> float:
    d = (a * a - a2 * a2) ** 2
    if d < _MIN_DENOM_SQ:
        raise MatrixAssemblyError(
            f"vanishing denominator between alpha={a} and alpha'={a2}; "
            "zero tables are inconsistent"
        )
    return d


def assemble_sphere(basis: BasisSet) -> OperatorMatrices:
    """Full sphere operator with B^x, B^y and B^z in the real cos/sin basis.

    Filled from index arrays over the pairs the selection rules allow
    (|n - n'| = 1, |m - m'| <= 1), by the floating-point operations of
    the scalar b_element_sphere and its m scaling (tests/setuporacle.py),
    in the same order, so bit for bit.
    B^z couples modes of equal (m, l); B^x couples cos to cos and sin to sin,
    and B^y cos to sin, across m' = m +- 1, each with the m-ladder
    coefficient of the complex harmonics and a factor sqrt(2) when one mode
    has m = 0.  On a 'sphere_reduced' basis (the m = 0 sector) B^x and B^y
    are None: the sector is closed under z only.
    """
    _expect(basis, "sphere", "sphere_reduced")
    N = len(basis)
    n, l, m = (np.array([getattr(ix, q) for ix in basis.indices]) for q in "nlm")
    al = basis.alpha
    beta = np.array([beta_sphere(*p) for p in zip(n.tolist(), al.tolist())])
    Bx, By, Bz = (np.zeros((N, N)) for _ in range(3))
    a, b = np.nonzero((np.abs(n[:, None] - n) == 1) & (np.abs(m[:, None] - m) <= 1))
    na, nb, ma, mb, sq = n[a], n[b], m[a], m[b], al * al
    d = _pow2(sq[a] - sq[b])
    if (bad := np.flatnonzero(d < _MIN_DENOM_SQ)).size:
        _check_denom(al[a[bad[0]]], al[b[bad[0]]])  # raises, naming the pair
    num = sq[a] + sq[b] - na * (nb + 1) - nb * (na + 1) + 1
    pref = (na + nb + 1) / ((2 * na + 1) * (2 * nb + 1))
    base = pref * beta[a] * beta[b] * num / d
    same_l = l[a] == l[b]
    z = (ma == mb) & same_l
    r = ma[z] / np.maximum(na, nb)[z]
    Bz[a[z], b[z]] = base[z] * np.sqrt(1.0 - _pow2(r))
    s = mb - ma  # +-1: the x and y elements, with the m-ladder coefficient c
    xy = s != 0
    a, b, na, ma, mb, s, base = a[xy], b[xy], na[xy], ma[xy], mb[xy], s[xy], base[xy]
    up = nb[xy] > na
    t = np.where(up, na + s * ma, na - s * ma)
    c = np.sqrt(np.where(up, (t + 1) * (t + 2), (t - 1) * t)) / np.where(up, na + 1, na)
    v = np.where(up, -s, s) * (0.5 * base * c) * np.where(ma * mb, 1.0, np.sqrt(2.0))
    x = same_l[xy]
    Bx[a[x], b[x]] = v[x]
    # cos_m sin_{m+1} carries +v, sin_m cos_{m+1} -v: the sign of the lower-m mode
    lower_l = np.where(s > 0, l[a], l[b])[~x]
    By[a[~x], b[~x]] = np.where(lower_l == 1, v[~x], -v[~x])
    if basis.geometry == "sphere_reduced":
        Bx = By = None
    return OperatorMatrices(basis, basis.eigenvalues.copy(), Bx, By, Bz)


def _pow2(v: np.ndarray) -> np.ndarray:
    """Python's x ** 2 (libm pow) of each element, as the scalar formulas
    square; numpy's square differs from it in the last bit for ~0.1% of values."""
    return np.array([x ** 2 for x in v.tolist()])


def assemble_disk(basis: BasisSet) -> OperatorMatrices:
    """Unit-disk operator; gradients live in the plane (B^x, B^y).

    Filled, like assemble_sphere, from index arrays over the |n - n'| = 1
    pairs by the operations of the scalar b_element_disk
    (tests/setuporacle.py) in the same order, so bit for bit.  B^x couples
    cos to cos and sin to sin, B^y cos to sin; a guard factor 0 zeroes the
    entries of an n + n' = 1 pair that would couple an n = 0 sin mode,
    which vanishes identically (the basis has none).
    """
    _expect(basis, "disk")
    N = len(basis)
    n, l = (np.array([getattr(ix, q) for ix in basis.indices]) for q in "nl")
    al = basis.alpha
    beta = np.array([beta_disk(*p) for p in zip(n.tolist(), al.tolist())])
    Bx, By = np.zeros((N, N)), np.zeros((N, N))
    a, b = np.nonzero(np.abs(n[:, None] - n) == 1)
    na, nb, sq = n[a], n[b], al * al
    d = _pow2(sq[a] - sq[b])
    if (bad := np.flatnonzero(d < _MIN_DENOM_SQ)).size:
        _check_denom(al[a[bad[0]]], al[b[bad[0]]])  # raises, naming the pair
    num = sq[a] + sq[b] - 2 * na * nb
    pref = np.sqrt(1.0 + (na == 0) + (nb == 0))
    base = pref * beta[a] * beta[b] * num / d
    guarded = base * np.where(na + nb == 1, 0.0, 1.0)
    la, lb = l[a], l[b]
    x = la == lb
    Bx[a[x], b[x]] = np.where(la == 1, base, guarded)[x]
    # cos_n sin_(n+1) and sin_n cos_(n-1) carry +base, the other two -base
    y = np.where(la == 1, nb == na + 1, nb == na - 1)
    By[a[~x], b[~x]] = np.where(y, base, -guarded)[~x]
    return OperatorMatrices(basis, basis.eigenvalues.copy(), Bx, By, None)


def assemble_interval(basis: BasisSet) -> OperatorMatrices:
    """Interval operator (Neumann cosine modes); the coordinate axis is z.

    Filled from index arrays over the pairs with m + m' odd, the only
    nonzero elements, by the operations of the scalar b_element_interval
    (tests/setuporacle.py) in the same order (its sign factor is -2 there),
    so bit for bit.
    """
    _expect(basis, "interval")
    N = len(basis)
    m = np.array([ix.m for ix in basis.indices])
    B = np.zeros((N, N))
    a, b = np.nonzero((m[:, None] + m) % 2 == 1)
    ma, mb = m[a], m[b]
    c = np.sqrt(2.0 - (ma == 0)) * np.sqrt(2.0 - (mb == 0))
    B[a, b] = basis.aspect * (-2.0 * c * (ma * ma + mb * mb)
                              / (np.pi**2 * (ma * ma - mb * mb) ** 2))
    return OperatorMatrices(basis, basis.eigenvalues.copy(), None, None, B)


def cylinder_factors(basis: BasisSet):
    """Disk and interval operators whose tensor product holds the cylinder basis.

    Returns (disk, interval, a, b): the disk operator on the distinct
    (n, k, l) of the basis, the interval operator of length h on its distinct
    m, and the index maps that make cylinder mode j the product of disk mode
    a[j] and interval mode b[j] (= m).  The Laplacian eigenvalue of mode j is
    disk.lam[a[j]] + interval.lam[b[j]], bit for bit.
    """
    _expect(basis, "cylinder")
    idx = basis.indices
    # every (n, k, l) of the basis also appears with m = 0, in disk order
    disk_rows = [j for j, ix in enumerate(idx) if ix.m == 0]
    pos = {(idx[j].n, idx[j].k, idx[j].l): i for i, j in enumerate(disk_rows)}
    disk = assemble_disk(BasisSet(
        geometry="disk",
        indices=tuple(BasisIndex(n=idx[j].n, k=idx[j].k, l=idx[j].l) for j in disk_rows),
        eigenvalues=basis.eigenvalues[disk_rows], alpha=basis.alpha[disk_rows]))
    a = np.array([pos[ix.n, ix.k, ix.l] for ix in idx])
    b = np.array([ix.m for ix in idx])
    interval = operator_for("interval", int(b.max()) + 1, H=basis.aspect)
    return disk, interval, a, b


def assemble_cylinder(basis: BasisSet) -> OperatorMatrices:
    """Capped cylinder: disk blocks repeated over m for B^{x,y}, and the
    interval matrix stretched by the aspect ratio h = H/R for B^z, each
    gathered from its factor (cylinder_factors)."""
    disk, interval, a, b = cylinder_factors(basis)
    same_m = b[:, None] == b[None, :]
    Bx = np.where(same_m, disk.Bx[np.ix_(a, a)], 0)
    By = np.where(same_m, disk.By[np.ix_(a, a)], 0)
    Bz = np.where(a[:, None] == a[None, :], interval.Bz[np.ix_(b, b)], 0)
    return OperatorMatrices(basis, basis.eigenvalues.copy(), Bx, By, Bz)


def assemble_operator(basis: BasisSet) -> OperatorMatrices:
    """Dispatch on the basis geometry."""
    table = {
        "sphere": assemble_sphere,
        "sphere_reduced": assemble_sphere,
        "cylinder": assemble_cylinder,
        "disk": assemble_disk,
        "interval": assemble_interval,
    }
    try:
        return table[basis.geometry](basis)
    except KeyError:
        raise DomainError(f"unknown geometry {basis.geometry!r}") from None


def _expect(basis: BasisSet, *geometries: str):
    if basis.geometry not in geometries:
        raise DomainError(f"expected a {' or '.join(geometries)} basis, got {basis.geometry}")


_ANGLES_READ = {"sphere": ("theta_g", "phi_g"), "cylinder": ("eta",),
                "disk": (), "interval": (), "sphere_reduced": ()}


def gradient_direction(geometry: str, theta_g: float | None = None,
                       phi_g: float | None = None, eta: float | None = None) -> tuple:
    """Unit gradient direction (x, y, z) of a geometry, from angles in radians.

    sphere: (sin(theta_g) cos(phi_g), sin(theta_g) sin(phi_g), cos(theta_g)),
    default z.  cylinder: (cos(eta), 0, sin(eta)), default x, with components
    below 1e-15 set to 0: they are rounding residues of an axis (cos(pi/2) is
    6.1e-17), and an axis gradient keeps the exact blocks of B^x or B^z.
    disk: x.  interval, reduced sphere: z.  An angle the geometry does not
    read is a ConfigError.
    """
    if geometry not in _ANGLES_READ:
        raise DomainError(f"unknown geometry {geometry!r}")
    unread = [k for k, a in (("theta_g", theta_g), ("phi_g", phi_g), ("eta", eta))
              if a is not None and k not in _ANGLES_READ[geometry]]
    if unread:
        raise ConfigError(f"a {geometry} gradient does not read {' or '.join(unread)}")
    t, p, h = theta_g or 0.0, phi_g or 0.0, eta or 0.0
    if geometry == "sphere":
        e = (np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t))
    elif geometry == "cylinder":
        e = [0.0 if abs(c) < 1e-15 else c for c in (np.cos(h), 0.0, np.sin(h))]
    else:
        e = (1.0, 0.0, 0.0) if geometry == "disk" else (0.0, 0.0, 1.0)
    return tuple(float(c) for c in e)


def gradient_matrix(mat: OperatorMatrices, theta_g: float | None = None,
                    phi_g: float | None = None, eta: float | None = None) -> np.ndarray:
    """e_x B^x + e_y B^y + e_z B^z for e = gradient_direction(geometry,
    theta_g, phi_g, eta), summed over the nonzero weights in x, y, z order."""
    e = gradient_direction(mat.basis.geometry, theta_g, phi_g, eta)
    first, *rest = (w * B for w, B in zip(e, (mat.Bx, mat.By, mat.Bz)) if w != 0.0)
    return sum(rest, first)


def operator_for(geometry: str, N: int, R: float = 1.0, H: float = 1.0) -> OperatorMatrices:
    """Build basis and matrices in one call."""
    return assemble_operator(build_basis(geometry, N, R=R, H=H))
