"""Branch (exceptional) point detection and refinement.

Below a branch point the participating eigenvalues are real (PT symmetry);
above it they carry opposite imaginary parts.  The detector scans tracked
branches for that departure of |Im lambda| from the solver noise floor.  The
refiner bisects on the same indicator, solving only the exact blocks of the
point's branches, and counts how many eigenvalues of those blocks share the
merged value at the refined location.

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
from .matrices import OperatorMatrices, _cylinder_weights, cylinder_factors
from .specfun import interval_branch_constants
from .spectrum import Spectrum, _components, block_labels, diagonalize, own_blocks
from .sweep import BranchSweep, _assign, match_step, run_sweep

IM_FLOOR = 1e-9
IM_SIGNAL = 1e-6
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

    Branches transitioning inside the same grid interval are clustered when
    they are conjugate partners or bit-identical twins just above the
    transition (see _cluster_by_value); each cluster yields one BranchPoint
    with bracket equal to the grid interval.

    max_branch restricts the scan to the first branches; the top of a
    truncated spectrum is not converged and can produce spurious transitions,
    so callers interested in physical branch points should pass the number of
    branches they trust (a few times smaller than the truncation size).
    """
    g = sweep.g_grid
    lam = sweep.eigenvalues
    if max_branch is not None:
        lam = lam[:, :max_branch]
    n_g, n_b = lam.shape
    transitions = []  # (interval index i: transition in (g[i-1], g[i]], branch)
    for b in range(n_b):
        im = np.abs(lam[:, b].imag)
        real_state = True
        for i in range(n_g):
            if real_state and im[i] > IM_SIGNAL and i > 0 and im[i - 1] < IM_FLOOR:
                transitions.append((i, b))
                real_state = False
            elif not real_state and im[i] < IM_FLOOR:
                real_state = True
    points = []
    by_interval: dict[int, list[int]] = {}
    for i, b in transitions:
        by_interval.setdefault(i, []).append(b)
    for i, branches in sorted(by_interval.items()):
        for cluster in _cluster_by_value(lam[i], branches):
            vals = lam[i, cluster]
            points.append(BranchPoint(
                g_star=0.5 * (g[i - 1] + g[i]),
                order=len(cluster),
                branches=tuple(int(b) for b in cluster),
                bracket=(float(g[i - 1]), float(g[i])),
                meta={"coarse": True,
                      "value": complex(np.mean(vals.real) + 0j)},
            ))
    return points


def _cluster_by_value(lam_row: np.ndarray, branches: list[int],
                      rtol: float = 1e-6) -> list[list[int]]:
    """Group branches whose eigenvalues just above the transition are
    conjugate partners (the merged pair of one block) or equal (the same pair
    in a bit-identical twin block), to rtol * max(1, |lambda|)."""
    v = lam_row[branches]
    scale = np.maximum(1.0, np.abs(v))
    near = np.minimum(np.abs(v[:, None] - v[None, :]),
                      np.abs(v[:, None] - np.conj(v)[None, :])) \
        <= rtol * np.maximum.outer(scale, scale)
    return [sorted(branches[i] for i in comp)
            for comp in _components(np.argwhere(np.triu(near, 1)), len(branches))]


def refine(mat: OperatorMatrices, B: np.ndarray, point: BranchPoint,
           ref_eigs: np.ndarray) -> BranchPoint:
    """Bisect the coarse bracket on the indicator max|Im lambda| over the
    participating branches down to BRACKET_WIDTH, then classify the point.

    All solves run on the branches' own exact blocks (spectrum.own_blocks),
    whose rows are the full spectrum's rows.  ref_eigs are the branch-ordered
    eigenvalues of every basis mode at the bracket's lower end (branch j
    starts at basis mode j, as in run_sweep); they identify the participating
    eigenvalues at trial points, matched inside each exact block.  One solve with eigenvectors at g_star gives the merged
    value, the order (the eigenvalues of the branches' own blocks within
    CLUSTER_RADIUS of the value), the minimal bilinear norm of the merging
    rows and their principal angle (None for a single-branch point, whose
    partner lies beyond the tracked branches).
    """
    lo, hi = point.bracket
    sub, B_sub, ix = own_blocks(mat, B, point.branches)
    target = ref_eigs[ix]
    block = block_labels(sub, B_sub)
    pos = np.searchsorted(ix, point.branches)

    def rows_at(gval: float, eigvals_only: bool = True):
        spec = diagonalize(sub, B_sub, gval, eigvals_only=eigvals_only)
        return spec, _match_blocks(target, block, spec)[pos]

    def indicator(gval: float) -> float:
        spec, rows = rows_at(gval)
        return float(np.max(np.abs(spec.eigenvalues[rows].imag)))

    f_lo, f_hi = indicator(lo), indicator(hi)
    if not (f_lo <= IM_SIGNAL < f_hi):
        # non-monotone or mis-bracketed: split and look again
        mid = 0.5 * (lo + hi)
        f_mid = indicator(mid)
        if f_lo <= IM_SIGNAL < f_mid:
            hi, f_hi = mid, f_mid
        elif f_mid <= IM_SIGNAL < f_hi:
            lo, f_lo = mid, f_mid
        else:
            raise ConvergenceError(
                f"indicator not bracketed on [{lo}, {hi}]: {f_lo}, {f_mid}, {f_hi}")
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if indicator(mid) > IM_SIGNAL:
            hi = mid
        else:
            lo = mid
    g_star = 0.5 * (lo + hi)

    spec, rows = rows_at(g_star, eigvals_only=False)
    w, X = spec.eigenvalues, spec.X
    value = complex(np.mean(w[rows]))
    near = np.abs(w - value) <= CLUSTER_RADIUS
    order = int(np.sum(near & np.isin(spec.block, block[pos])))
    vv = [abs(X[r] @ X[r]) for r in rows]
    angles = [_principal_angle(X[a], X[b])
              for i, a in enumerate(rows) for b in rows[i + 1:]]
    meta = dict(point.meta, coarse=False, value=value, width=hi - lo,
                vv_min=float(np.min(vv)),
                min_principal_angle=float(np.min(angles)) if angles else None,
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


def _principal_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between the complex lines of a and b, as 2 arcsin(|a^ - e^{i phi}
    b^| / 2) of the unit vectors with the phase phi = -arg(a^H b) that aligns
    b^ with a^.  An arccos of |a^H b| loses half the digits of a small angle:
    a rounding of 1e-16 in the cosine is 1e-16 / angle^2 relative in it."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    phase = np.exp(-1j * np.angle(np.vdot(a, b)))
    return float(2.0 * np.arcsin(min(1.0, np.linalg.norm(a - phase * b) / 2.0)))


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


def cylinder_branch_points(mat: OperatorMatrices, eta: float, g_max: float,
                           step: float = 0.05, n_branches: int | None = None
                           ) -> tuple[BranchSweep, list[BranchPoint]]:
    """Branch sweep and branch points of the capped cylinder from its factors.

    On the cylinder's tensor-product basis, Lambda + i*gbar*(cos(eta) B^x +
    sin(eta) B^z) is the Kronecker sum of the disk operator at gbar*cos(eta)
    and the interval operator at gbar*sin(eta) (Grebenkov, Rev. Mod. Phys. 79,
    1077 (2007)).  Its eigenvalues are the sums mu_a + nu_b, exactly on this
    basis, and it branches exactly where one factor does.  Each factor is
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
    cx, cz = _cylinder_weights(eta)
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
