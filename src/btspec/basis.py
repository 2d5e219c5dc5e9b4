"""Ordered, truncated Laplacian eigenbases for the supported geometries.

All lengths are expressed in units of the radius R, so eigenvalues are the
dimensionless R^2*lambda.  A cylinder keeps its aspect ratio h = H/R; the
standalone interval uses its own length as the unit (h = 1 by default).

The enumeration order is what defines the branch index j used everywhere
downstream, so it is pinned precisely:

* eigenvalues ascending;
* ties inside a degenerate eigenvalue broken by (n, k, m, l) for the sphere
  and by (n, k, l, m) for the cylinder/disk, with l = 1 (cos) before l = 2
  (sin);
* a truncation that would split a degenerate family is extended to the end of
  the family, so requesting N entries may return slightly more.

Candidates lie under an eigenvalue cutoff that starts from a Weyl estimate
of the N-th eigenvalue and doubles only if short, each pass taking the zeros
of all orders from one scan (specfun.zeros_upto).  A cylinder lists at most
N axial orders m of each radial family, the most one family can give to the
first N, and more only while an order left out could join the last class,
so a tall cylinder's candidates do not grow with its aspect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import DomainError

DEGENERACY_RTOL = 1e-10

GEOMETRIES = ("sphere", "sphere_reduced", "cylinder", "disk", "interval")


@dataclass(frozen=True)
class BasisIndex:
    """Multi-index of one Laplacian mode; unused slots are None.

    sphere: (n, k, l, m) with m >= 0 and l = 1 (cos m phi) or 2 (sin m phi,
    m > 0 only); reduced sphere (its m = 0 sector): (n, k, 1, 0);
    cylinder: (n, k, l, m); disk: (n, k, l); interval: (m).
    """

    n: int | None = None
    k: int | None = None
    l: int | None = None
    m: int | None = None


@dataclass(frozen=True)
class BasisSet:
    """Ordered truncated basis with eigenvalues and degeneracy classes.

    class_id[i] groups entries whose eigenvalues coincide to DEGENERACY_RTOL;
    classes are contiguous in the ordering and never cut by the truncation.
    alpha[i] is the Bessel zero alpha_nk of mode i (0 for the constant mode;
    on the cylinder that of its disk factor), and pi*m/H on the interval.
    """

    geometry: str
    indices: tuple
    eigenvalues: np.ndarray
    aspect: float = 1.0  # H/R for cylinder; 1 elsewhere
    class_id: np.ndarray | None = None
    alpha: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", ev)
        if np.any(np.diff(ev) < -1e-12):
            raise ValueError("eigenvalues must be non-decreasing")
        if self.class_id is None:
            object.__setattr__(self, "class_id", _group_classes(ev))

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _group_classes(ev: np.ndarray) -> np.ndarray:
    cid = np.zeros(len(ev), dtype=int)
    for i in range(1, len(ev)):
        close = abs(ev[i] - ev[i - 1]) <= DEGENERACY_RTOL * max(1.0, abs(ev[i]))
        cid[i] = cid[i - 1] if close else cid[i - 1] + 1
    return cid


def _cut_at_class_boundary(entries, N):
    """entries: list of (eigenvalue, sort_key, BasisIndex), sorted.

    Returns the first M >= N entries such that the cut does not split a
    degeneracy class.
    """
    M = N
    while M < len(entries):
        lam_prev, lam_next = entries[M - 1][0], entries[M][0]
        if abs(lam_next - lam_prev) <= DEGENERACY_RTOL * max(1.0, abs(lam_next)):
            M += 1
        else:
            break
    if M > len(entries):
        raise RuntimeError("candidate pool too small; internal cutoff bug")
    return entries[:M]


def _collect(generate, N, cut):
    """Generate candidates (eigenvalue, sort key, BasisIndex, alpha) under the
    cutoff `cut`, doubled until the first N entries (plus any degeneracy-class
    completion) are guaranteed present; returns their indices, eigenvalues
    and alphas."""
    while True:
        entries = sorted(generate(cut), key=lambda e: (e[0], e[1]))
        # Safe only if we can see past the N-th entry's class: demand a strict
        # eigenvalue increase after position N and headroom below the cutoff.
        if len(entries) > N and entries[-1][0] > entries[N - 1][0] * (1 + 1e-9) + 1.0:
            lams, _, idxs, alphas = zip(*_cut_at_class_boundary(entries, N))
            return idxs, np.array(lams), np.array(alphas)
        cut *= 2.0


def _radial(kind: str, cut: float):
    """(n, k, alpha_nk) of the constant mode (0, 0, 0.0) and of every zero
    alpha_nk <= sqrt(cut) of kind 'dj_spherical' or 'dJ' (k from 1 for n = 0)."""
    yield 0, 0, 0.0
    for n, zeros in enumerate(specfun.zeros_upto(kind, np.sqrt(cut))):
        for j, a in enumerate(zeros.tolist()):
            yield n, (j + 1 if n == 0 else j), a


def build_sphere_basis(N: int) -> BasisSet:
    """First N entries of the ordered sphere basis (real modes u_{nklm}).

    Eigenvalues alpha_nk^2 with alpha_nk the positive zeros of j_n'; the
    constant mode (n=k=m=0) carries alpha_00 = 0.  Each (n, k) family is
    (2n+1)-fold degenerate: m = 0 and the cos/sin pair (l = 1, 2) of each
    m = 1..n.
    """
    return _sphere_basis(N, "sphere")


def _sphere_basis(N: int, geometry: str) -> BasisSet:
    """The sphere basis, or for 'sphere_reduced' its axisymmetric m = 0
    sector with a cutoff of its own N entries."""
    if N < 1:
        raise DomainError("N >= 1 required")

    def generate(cut):
        return [(a * a, (n, k, m, l), BasisIndex(n=n, k=k, l=l, m=m), a)
                for n, k, a in _radial("dj_spherical", cut)
                for m in (range(n + 1) if geometry == "sphere" else (0,))
                for l in ((1, 2) if m else (1,))]

    # Weyl: N(lam) ~ 2 lam^1.5 / (9 pi) for the ball, ~ lam / 8 for its m = 0 sector
    weyl = 8.0 * N if geometry == "sphere_reduced" else (4.5 * np.pi * N) ** (2 / 3)
    idxs, lams, alphas = _collect(generate, N, 10.0 + weyl)
    return BasisSet(geometry=geometry, indices=idxs, eigenvalues=lams, alpha=alphas)


def build_disk_basis(N: int) -> BasisSet:
    """Unit-disk basis u_{nkl}; l = 2 (sin sector) exists only for n > 0."""
    if N < 1:
        raise DomainError("N >= 1 required")

    def generate(cut):
        return [(a * a, (n, k, l), BasisIndex(n=n, k=k, l=l), a)
                for n, k, a in _radial("dJ", cut) for l in ((1, 2) if n else (1,))]

    idxs, lams, alphas = _collect(generate, N, 10.0 + 4.0 * N)  # Weyl: N(lam) ~ lam / 4
    return BasisSet(geometry="disk", indices=idxs, eigenvalues=lams, alpha=alphas)


def build_interval_basis(N: int, H: float = 1.0) -> BasisSet:
    """Neumann cosine modes on an interval of length H (eigenvalues in 1/H^2...
    expressed with H as given; use H = 1 for the standalone unit interval)."""
    if N < 1:
        raise DomainError("N >= 1 required")
    if H <= 0:
        raise DomainError("H > 0 required")
    ms = np.arange(N)
    alphas = np.pi * ms / H
    idxs = tuple(BasisIndex(m=int(m)) for m in ms)
    return BasisSet(geometry="interval", indices=idxs, eigenvalues=alphas ** 2,
                    aspect=H, alpha=alphas)


def build_cylinder_basis(N: int, R: float = 1.0, H: float = 1.0) -> BasisSet:
    """Capped-cylinder product basis u_{nklm}, lengths in units of R.

    Eigenvalues alpha_nk^2 + (pi*m/h)^2 with h = H/R; each (n, k, m) family is
    twice degenerate for n > 0 (l = 1, 2) and simple for n = 0.
    """
    if N < 1:
        raise DomainError("N >= 1 required")
    if R <= 0 or H <= 0:
        raise DomainError("R > 0 and H > 0 required")
    h = H / R
    # axial orders m listed per radial family (n, k); the first order left
    # out of each family that has more under the cut, in the last pass
    limit, beyond = N, []

    def generate(cut):
        out, beyond[:] = [], []
        for n, k, a in _radial("dJ", cut):
            base = a * a
            for m in range(limit + 1):
                lam = base + (np.pi * m / h) ** 2
                if lam > cut:
                    break
                if m == limit:  # the family's first order left out
                    beyond.append(lam)
                    break
                for l in (1, 2) if n > 0 else (1,):
                    out.append((lam, (n, k, l, m), BasisIndex(n=n, k=k, l=l, m=m), a))
        return out

    # Weyl: N(lam) ~ h lam^1.5 / (6 pi) for the cylinder of volume pi h, at
    # most the disk's cut, whose modes the m = 0 layer holds (a thin cylinder)
    cut = min(10.0 + (6.0 * np.pi * N / h) ** (2 / 3), 10.0 + 4.0 * N)
    while True:
        idxs, lams, alphas = _collect(generate, N, cut)
        # a family's first N entries hold all it gives to the first N; the
        # limit grows only if an order left out could join the last class
        if all(b - lams[-1] > DEGENERACY_RTOL * max(1.0, b) for b in beyond):
            break
        limit *= 2
    return BasisSet(geometry="cylinder", indices=idxs, eigenvalues=lams, aspect=h,
                    alpha=alphas)


def build_basis(geometry: str, N: int, R: float = 1.0, H: float = 1.0) -> BasisSet:
    """Dispatch on geometry name; see the individual builders."""
    if geometry in ("sphere", "sphere_reduced"):
        return _sphere_basis(N, geometry)
    if geometry == "cylinder":
        return build_cylinder_basis(N, R=R, H=H)
    if geometry == "disk":
        return build_disk_basis(N)
    if geometry == "interval":
        return build_interval_basis(N, H=H)
    raise DomainError(f"unknown geometry {geometry!r}")
