"""Branch (exceptional) point detection and refinement.

Below a branch point the participating eigenvalues are real (PT symmetry);
above it they carry opposite imaginary parts.  The detector scans tracked
branches for a real value (spectrum.is_real) followed by a non-real one.  The
refiner bisects on whether all the point's branches are real, solving only
the exact blocks of the point's branches, and counts how many eigenvalues of
those blocks share the merged value at the refined location.

The capped cylinder is swept as its disk and interval factors
(cylinder_branch_points): its branches are sums of factor branches and its
points are the factors' points.

The interval operator admits a closed form: g_k = sqrt(3) * (27/4) * j_k^2
with J_{-2/3}(j_k) = 0, exposed here as the analytic route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .matrices import OperatorMatrices, cylinder_factors, gradient_direction
from .specfun import interval_branch_constants
from .spectrum import (Spectrum, _degenerate_classes, block_labels, diagonalize,
                       is_real, own_blocks)
from .sweep import BranchSweep, _assign, match_step, run_sweep

CLUSTER_RADIUS = 1e-3
# Tighter than the 1e-5 reporting requirement, so that the square-root
# splitting of the merging pair stays inside CLUSTER_RADIUS at g_star.
BRACKET_WIDTH = 1e-8


@dataclass(frozen=True)
class BranchPoint:
    """One detected merge of eigenvalue branches.

    order counts the eigenvalues coalescing at g_star (2 for a simple pair,
    4 when two degenerate pairs merge together); branches are the 0-based
    tracked indices that change from real to complex across the point.
    """

    g_star: float
    order: int
    branches: tuple
    bracket: tuple
    meta: dict = field(default_factory=dict)


def detect(sweep: BranchSweep, max_branch: int | None = None) -> list[BranchPoint]:
    """Coarse branch points from real-to-complex transitions of tracked branches.

    A branch transitions in (g[i-1], g[i]] when it is real (spectrum.is_real)
    at g[i-1] and not at g[i].  Branches transitioning inside the same grid
    interval are clustered when their values at g[i] are conjugate partners
    (the merged pair of one block) or equal (the same pair in a bit-identical
    twin block), as decided by spectrum.same_value; each cluster yields one
    BranchPoint with bracket equal to the grid interval.

    max_branch restricts the scan to the first branches; the top of a
    truncated spectrum is not converged and can produce spurious transitions,
    so callers interested in physical branch points should pass the number of
    branches they trust (a few times smaller than the truncation size).
    """
    g = sweep.g_grid
    lam = sweep.eigenvalues[:, :max_branch]
    real = is_real(lam)
    steps, branches = np.nonzero(real[:-1] & ~real[1:])
    points = []
    for i in np.unique(steps) + 1:
        bs = branches[steps == i - 1]
        v = lam[i, bs]
        # conjugate partners coincide once folded onto Im >= 0
        cid = _degenerate_classes(v.real + 1j * np.abs(v.imag))
        cid[cid < 0] = -1 - np.flatnonzero(cid < 0)  # a singleton is its own class
        for c in dict.fromkeys(cid.tolist()):  # in the order of first members
            cluster = bs[cid == c]
            points.append(BranchPoint(
                g_star=0.5 * (g[i - 1] + g[i]),
                order=len(cluster),
                branches=tuple(int(b) for b in cluster),
                bracket=(float(g[i - 1]), float(g[i])),
                meta={"coarse": True,
                      "value": complex(np.mean(lam[i, cluster].real) + 0j)},
            ))
    return points


def refine(mat: OperatorMatrices, B: np.ndarray, point: BranchPoint,
           ref_eigs: np.ndarray) -> BranchPoint:
    """Bisect the coarse bracket on whether the participating branches are
    all real (spectrum.is_real) down to BRACKET_WIDTH, then classify the
    point.  A bracket that is not real at its lower end and complex at its
    upper end raises ConvergenceError.

    All solves run on the branches' own exact blocks (spectrum.own_blocks),
    whose rows are the full spectrum's rows.  ref_eigs are the branch-ordered
    eigenvalues of every basis mode at the bracket's lower end (branch j
    starts at basis mode j, as in run_sweep); they identify the participating
    eigenvalues at trial points, matched inside each exact block.  One solve with eigenvectors at g_star gives the merged
    value, the order (the eigenvalues of the branches' own blocks within
    CLUSTER_RADIUS of the value) and the conditioning of the merging rows
    (_class_conditioning; no angle for a single-branch point, whose partner
    lies beyond the tracked branches).
    """
    lo, hi = point.bracket
    sub, B_sub, ix = own_blocks(mat, B, point.branches)
    target = ref_eigs[ix]
    block = block_labels(sub, B_sub)
    pos = np.searchsorted(ix, point.branches)

    def rows_at(gval: float, eigvals_only: bool = True):
        spec = diagonalize(sub, B_sub, gval, eigvals_only=eigvals_only)
        return spec, _match_blocks(target, block, spec)[pos]

    def split(gval: float) -> bool:
        spec, rows = rows_at(gval)
        return not is_real(spec.eigenvalues[rows]).all()

    if split(lo) or not split(hi):
        raise ConvergenceError(f"no real-to-complex transition on [{lo}, {hi}]")
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if split(mid):
            hi = mid
        else:
            lo = mid
    g_star = 0.5 * (lo + hi)

    spec, rows = rows_at(g_star, eigvals_only=False)
    w, X = spec.eigenvalues, spec.X
    value = complex(np.mean(w[rows]))
    near = np.abs(w - value) <= CLUSTER_RADIUS
    order = int(np.sum(near & np.isin(spec.block, block[pos])))
    vv_min, angle = _class_conditioning(w[rows], X[rows])
    meta = dict(point.meta, coarse=False, value=value, width=hi - lo,
                vv_min=vv_min, min_principal_angle=angle,
                gap_min=float(np.min(np.abs(np.diff(np.sort(w[rows].real)))))
                if len(rows) > 1 else 0.0)
    return BranchPoint(g_star=g_star, order=order, branches=point.branches,
                       bracket=(lo, hi), meta=meta)


def _match_blocks(target: np.ndarray, block: np.ndarray, spec,
                  match=_assign) -> np.ndarray:
    """Row of spec assigned to each target value (target j in exact block
    block[j]) by match(targets, values) -> index into values, each block on
    its own; by default the minimal total squared displacement."""
    out = np.empty(len(target), dtype=int)
    for k in np.unique(block):
        r, c = np.flatnonzero(block == k), np.flatnonzero(spec.block == k)
        out[r] = c[match(target[r], spec.eigenvalues[c])]
    return out


def _class_conditioning(w: np.ndarray, X: np.ndarray) -> tuple[float, float | None]:
    """(vv_min, min_principal_angle) of the rows X, eigenvalues w, taken per
    degenerate class (a simple eigenvalue is a class of one), so that no
    mixture of a degenerate eigenspace changes them: the smallest singular
    value of a class's bilinear Gram on a Hermitian-orthonormal basis of it,
    and the smallest principal angle between two classes (None for one)."""
    cid = _degenerate_classes(w)
    classes = ([X[cid == c].T for c in np.unique(cid[cid >= 0])]
               + [x[:, None] for x in X[cid < 0]])
    qs = [_orth(a) for a in classes]
    vv = min(np.linalg.svd(q.T @ q, compute_uv=False).min() for q in qs)
    angles = [_min_angle(a, b) for i, a in enumerate(qs) for b in qs[i + 1:]]
    return float(vv), float(min(angles)) if angles else None


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a: the left singular vectors
    of the singular values above max(shape) * eps * the largest."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :np.count_nonzero(s > s.max() * np.finfo(float).eps * max(a.shape))]


def _min_angle(qa: np.ndarray, qb: np.ndarray) -> float:
    """Smallest principal angle between the spans of the orthonormal columns
    qa and qb (Bjorck and Golub, Math. Comp. 27, 579 (1973)): the arccos of
    the largest singular value of qa^H qb, or, when that angle is at most 45
    degrees, the arcsin of the smallest singular value of the part of one
    basis outside the other span, which keeps a small angle accurate where
    its cosine rounds to 1."""
    c = qa.conj().T @ qb
    cos = np.linalg.svd(c, compute_uv=False).max()
    if cos * cos < 0.5:
        return float(np.arccos(cos))
    rest = qb - qa @ c if qa.shape[1] >= qb.shape[1] else qa - qb @ c.conj().T
    return float(np.arcsin(min(1.0, np.linalg.svd(rest, compute_uv=False).min())))


def find_branch_points(mat: OperatorMatrices, B: np.ndarray, sweep: BranchSweep,
                       max_branch: int | None = None) -> list[BranchPoint]:
    """Detect and refine all branch points of a finished sweep.

    max_branch is forwarded to detect() to keep the scan off the truncation
    edge.
    """
    out = []
    for coarse in detect(sweep, max_branch=max_branch):
        i_lo = int(np.argmin(np.abs(sweep.g_grid - coarse.bracket[0])))
        out.append(refine(mat, B, coarse, ref_eigs=sweep.eigenvalues[i_lo]))
    return out


def cylinder_branch_points(mat: OperatorMatrices, eta: float | None, g_max: float,
                           step: float = 0.05, n_branches: int | None = None
                           ) -> tuple[BranchSweep, list[BranchPoint]]:
    """Branch sweep and branch points of the capped cylinder from its factors.

    For the direction e = matrices.gradient_direction at eta (None: x), on
    the cylinder's tensor-product basis Lambda + i*gbar*(e_x B^x + e_z B^z)
    is the Kronecker sum of the disk operator at gbar*e_x and the interval
    operator at gbar*e_z (Grebenkov, Rev. Mod. Phys. 79, 1077 (2007)).  Its
    eigenvalues are the sums mu_a + nu_b, exactly on this basis, and it
    branches exactly where one factor does.  Each factor is
    swept (run_sweep) and its points found (find_branch_points) over the same
    gbar grid; cylinder branch j is the pair (a[j], b[j]) of
    matrices.cylinder_factors, valued mu_a[j] + nu_b[j] on the grid points
    both factor sweeps share.

    Each factor point becomes one cylinder point per mode of the other
    factor, holding the first n_branches cylinder branches that pair the
    point's factor branches with that mode.  g_star, bracket, order and the
    principal angle are the factor point's (the angle is None for a single
    branch); the value adds the partner's eigenvalue at g_star, and vv_min
    multiplies the factor's vv_min by the partner row's bilinear norm.
    """
    disk, interval, a, b = cylinder_factors(mat.basis)
    n = mat.N if n_branches is None else n_branches
    a, b = a[:n], b[:n]
    cx, _, cz = gradient_direction("cylinder", eta=eta)
    factors = (("disk", disk, cx * disk.Bx, a), ("interval", interval, cz * interval.Bz, b))
    sweeps = [run_sweep(f, B, g_max, step=step) for _, f, B, _ in factors]

    points = []
    for k, (_, f, B, idx) in enumerate(factors):
        _, f_o, B_o, idx_o = factors[1 - k]
        for p in find_branch_points(f, B, sweeps[k], max_branch=int(idx.max()) + 1):
            w, vv = _branch_rows(f_o, B_o, sweeps[1 - k], p.g_star)
            mine = np.isin(idx, p.branches)
            for q in np.unique(idx_o[mine]):
                js = tuple(int(j) for j in np.flatnonzero(mine & (idx_o == q)))
                meta = dict(p.meta, value=p.meta["value"] + w[q],
                            vv_min=p.meta["vv_min"] * vv[q])
                if len(js) == 1:
                    meta["min_principal_angle"] = None
                points.append(BranchPoint(g_star=p.g_star, order=p.order,
                                          branches=js, bracket=p.bracket, meta=meta))
    points.sort(key=lambda p: (p.g_star, p.branches))

    grid = np.intersect1d(sweeps[0].g_grid, sweeps[1].g_grid)
    mu, nu = (s.eigenvalues[np.isin(s.g_grid, grid)] for s in sweeps)
    n_int_blocks = int(sweeps[1].block.max()) + 1
    refinements, ambiguities = [], []
    for (name, _, _, idx), s in zip(factors, sweeps):
        refinements += [{"factor": name, **r} for r in s.refinements]
        for amb in s.ambiguities:
            js = tuple(int(j) for j in np.flatnonzero(np.isin(idx, amb["branches"])))
            if js:
                ambiguities.append({**amb, "factor": name, "branches": js})
    sweep = BranchSweep(
        g_grid=grid, eigenvalues=mu[:, a] + nu[:, b],
        block=sweeps[0].block[a] * n_int_blocks + sweeps[1].block[b],
        metadata={**sweeps[0].metadata, "geometry": "cylinder", "N": mat.N,
                  "route": "disk x interval factors on their shared grid",
                  "factors": {"disk": disk.N, "interval": interval.N}},
        refinements=refinements, ambiguities=ambiguities)
    return sweep, points


def _branch_rows(mat: OperatorMatrices, B: np.ndarray, sweep: BranchSweep, g: float):
    """Eigenvalue and bilinear norm |<x, x>| of every tracked branch at g,
    matched from the sweep's values at its last grid point at or below g by
    the sweep's own step (match_step): a pair that splits in between meets
    its real values as exact conjugates, an exact cost tie, and its Im > 0
    member goes to the lower branch index, as in the sweep."""
    i = int(np.searchsorted(sweep.g_grid, g, side="right")) - 1
    spec = diagonalize(mat, B, g)

    def match(target, values):
        return match_step(Spectrum(g, target), Spectrum(g, values))[0]
    rows = _match_blocks(sweep.eigenvalues[i], sweep.block, spec, match)
    X = spec.X[rows]
    return spec.eigenvalues[rows], np.abs(np.einsum("ij,ij->i", X, X))


def interval_branch_points_analytic(count: int) -> np.ndarray:
    """g_k = sqrt(3) * 27/4 * j_k^2, J_{-2/3}(j_k) = 0; the closed-form branch
    points of the unit-interval operator."""
    j = interval_branch_constants(count)
    return np.sqrt(3.0) * 6.75 * j**2
