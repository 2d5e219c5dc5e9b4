"""Branch (exceptional) point detection and refinement.

Below a branch point the participating eigenvalues are real (PT symmetry);
above it they carry opposite imaginary parts.  The detector scans tracked
branches for a real value (spectrum.is_real) followed by a non-real one.  At
a merge the number of non-real eigenvalues of one exact block rises by
exactly 2, or by 4 across bit-identical twin blocks (Kato; Heiss, J. Phys. A
45, 444016 (2012)), so the refiner bisects that count over the point's own
blocks, with no labelled solve, and names the merging rows once, at g_star.

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
from .spectrum import _degenerate_classes, canonical_order, is_real, own_blocks, partition
from .sweep import BranchSweep, _refuse_dense_cylinder, _step, run_sweep

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
    branches they trust (a few times smaller than the truncation size).  A
    scanned branch that the sweep did not track (NaN, see run_sweep) raises
    ValueError.
    """
    g = sweep.g_grid
    lam = sweep.eigenvalues[:, :max_branch]
    if np.isnan(lam[0]).any():
        raise ValueError(f"branch {int(np.argmax(np.isnan(lam[0])))} was not tracked: "
                         f"pass a max_branch within the sweep's n_branches")
    real = is_real(lam)
    steps, branches = np.nonzero(real[:-1] & ~real[1:])
    points = []
    for i in sorted({s + 1 for s in steps.tolist()}):
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
           sweep: BranchSweep) -> BranchPoint:
    """Bisect the coarse bracket down to BRACKET_WIDTH on whether the
    point's own exact blocks (spectrum.own_blocks, partitioned once) hold
    more non-real eigenvalues (spectrum.is_real) than at its lower end.

    The sweep is read only at the bracket's two grid rows: ConvergenceError
    unless the columns of the point's blocks that change realness there
    include its branches and number exactly the final count rise, or when
    the count does not rise; DomainError for a dense cylinder.

    One solve with eigenvectors at g_star names the merging rows: the first
    len(branches), in canonical_order, within CLUSTER_RADIUS of the mean of
    the count rise's non-real values of least |Im| at the final upper end
    (a single-branch point keeps its member with Im > 0 or the smaller real
    value; fewer than that raise ConvergenceError).  They give the merged
    value, the order (the eigenvalues within CLUSTER_RADIUS of it) and their
    conditioning (_class_conditioning).
    """
    _refuse_dense_cylinder(mat)
    lo, hi = point.bracket
    sub, B_sub, ix = own_blocks(mat, B, point.branches)
    part = partition(sub.lam, B_sub)

    def count(g: float):
        w = part.solve(g, eigvals_only=True).eigenvalues
        return int(np.count_nonzero(~is_real(w))), w

    base, (top, w_hi) = count(lo)[0], count(hi)
    if top <= base:
        raise ConvergenceError(f"no real-to-complex transition on [{lo}, {hi}]")
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if (at_mid := count(mid))[0] > base:
            hi, (top, w_hi) = mid, at_mid
        else:
            lo = mid
    jump = top - base
    real = is_real(sweep.eigenvalues[np.searchsorted(sweep.g_grid, point.bracket, "right") - 1])
    changed = ix[real[0, ix] != real[1, ix]].tolist()
    if not set(point.branches) <= set(changed) or len(changed) != jump:
        raise ConvergenceError(f"branches {changed} change realness on {point.bracket}, "
                               f"not {list(point.branches)} within a count rise of {jump}")
    g_star = 0.5 * (lo + hi)
    w = (spec := part.solve(g_star)).eigenvalues
    least = np.argsort(np.where(is_real(w_hi), np.inf, np.abs(w_hi.imag)), kind="stable")
    cluster = np.flatnonzero(np.abs(w - np.mean(w_hi[least[:jump]])) <= CLUSTER_RADIUS)
    if len(cluster) < len(point.branches):
        raise ConvergenceError(f"the merging values at gbar={g_star} exceed CLUSTER_RADIUS")
    rows = cluster[canonical_order(w[cluster])][:len(point.branches)]
    value = complex(np.mean(w[rows]))
    order = int(np.count_nonzero(np.abs(w - value) <= CLUSTER_RADIUS))
    vv_min, angle = _class_conditioning(w[rows], spec.X[rows])
    meta = dict(point.meta, coarse=False, value=value, width=hi - lo,
                vv_min=vv_min, min_principal_angle=angle,
                gap_min=float(np.min(np.abs(np.diff(np.sort(w[rows].real)))))
                if len(rows) > 1 else 0.0)
    return BranchPoint(g_star=g_star, order=order, branches=point.branches,
                       bracket=(lo, hi), meta=meta)


def _partner_rows(mat: OperatorMatrices, B: np.ndarray, n: int, sweep: BranchSweep):
    """rows(g): the solve at g, with eigenvectors, of own_blocks' restriction
    to the blocks of the first n branches, and the row of each of those
    branches, labelled as the sweep labels its steps: the slope through its
    last two grid rows at or below g predicts, and sweep._step labels each
    block.  The restriction is partitioned once, not at each g."""
    sub, B_sub, ix = own_blocks(mat, B, range(n))
    part = partition(sub.lam, B_sub)
    groups = [(k, np.flatnonzero(part.label == k)) for k in set(part.label.tolist())]

    def rows_at(g: float):
        i = int(np.searchsorted(sweep.g_grid, g, side="right")) - 1
        k = [max(i - 1, 0), i]
        (g0, g1), (w0, w1) = sweep.g_grid[k], sweep.eigenvalues[k][:, ix]
        pred = w1 + (w1 - w0) / (g1 - g0) * (g - g1) if i else w1
        spec, rows = part.solve(g), np.empty(len(ix), dtype=int)
        for k, r in groups:
            c = np.flatnonzero(spec.block == k)
            rows[r] = c[_step(g, pred[r], spec.eigenvalues[c])[0]]
        return spec, rows[np.searchsorted(ix, range(n))]
    return rows_at


def _class_conditioning(w: np.ndarray, X: np.ndarray) -> tuple[float, float | None]:
    """(vv_min, min_principal_angle) of the rows X, eigenvalues w, taken per
    degenerate class (a simple eigenvalue is a class of one), so that no
    mixture of a degenerate eigenspace changes them: the smallest singular
    value of a class's bilinear Gram on a Hermitian-orthonormal basis of it,
    and the smallest principal angle between two classes (None for one)."""
    cid = _degenerate_classes(w)
    classes = ([X[cid == c].T for c in range(cid.max() + 1)]
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
    edge.  A dense cylinder raises DomainError, as in refine.
    """
    _refuse_dense_cylinder(mat)
    return [refine(mat, B, coarse, sweep) for coarse in detect(sweep, max_branch=max_branch)]


def cylinder_branch_points(mat: OperatorMatrices, eta: float | None, g_max: float,
                           step: float = 0.05, n_branches: int | None = None
                           ) -> tuple[BranchSweep, list[BranchPoint]]:
    """Branch sweep and branch points of the capped cylinder from its factors.

    For the direction e = matrices.gradient_direction at eta (None: x), on
    the cylinder's tensor-product basis Lambda + i*gbar*(e_x B^x + e_z B^z)
    is the Kronecker sum of the disk operator at gbar*e_x and the interval
    operator at gbar*e_z (Grebenkov, Rev. Mod. Phys. 79, 1077 (2007)).  Its
    eigenvalues are the sums mu_a + nu_b, exactly on this basis, and it
    branches exactly where one factor does.  Each factor is swept
    (run_sweep) and its points found (find_branch_points) over the same gbar
    grid, both as wide as the factor branches that the first n_branches
    cylinder branches use; cylinder branch j is the pair (a[j], b[j]) of
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
    width = [int(idx.max()) + 1 for *_, idx in factors]  # the factor branches used
    sweeps = [run_sweep(f, B, g_max, step=step, n_branches=n_f)
              for (_, f, B, _), n_f in zip(factors, width)]

    points = []
    for k, (_, f, B, idx) in enumerate(factors):
        _, f_o, B_o, idx_o = factors[1 - k]
        rows_at = _partner_rows(f_o, B_o, width[1 - k], sweeps[1 - k])
        for p in find_branch_points(f, B, sweeps[k], max_branch=width[k]):
            spec, rows = rows_at(p.g_star)
            w, X = spec.eigenvalues[rows], spec.X[rows]
            vv = np.abs(np.einsum("ij,ij->i", X, X))
            mine = np.isin(idx, p.branches)
            for q in sorted(set(idx_o[mine].tolist())):
                js = tuple(int(j) for j in np.flatnonzero(mine & (idx_o == q)))
                meta = dict(p.meta, value=p.meta["value"] + w[q],
                            vv_min=p.meta["vv_min"] * vv[q])
                if len(js) == 1:
                    meta["min_principal_angle"] = None
                points.append(BranchPoint(g_star=p.g_star, order=p.order,
                                          branches=js, bracket=p.bracket, meta=meta))
    points.sort(key=lambda p: (p.g_star, p.branches))

    shared = set(sweeps[0].g_grid.tolist()) & set(sweeps[1].g_grid.tolist())
    grid = np.array(sorted(shared))
    mu, nu = (s.eigenvalues[[g in shared for g in s.g_grid.tolist()]] for s in sweeps)
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


def interval_branch_points_analytic(count: int) -> np.ndarray:
    """g_k = sqrt(3) * 27/4 * j_k^2, J_{-2/3}(j_k) = 0; the closed-form branch
    points of the unit-interval operator."""
    j = interval_branch_constants(count)
    return np.sqrt(3.0) * 6.75 * j**2
