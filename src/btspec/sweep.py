"""Eigenvalue branch tracking over a gradient-strength grid.

Branches are labeled by continuity from gbar = 0, where branch j is basis
mode j (the j-th ordered Laplacian eigenvalue).  Branch j stays in the exact
block of that mode for the whole sweep, because different blocks of
Lambda + i*gbar*B never couple (see spectrum), so every assignment of values
to branches runs inside one block.  Consecutive grid points are matched by an
optimal assignment on squared eigenvalue displacement (Hungarian method)
against a linear prediction from the two previous points, which keeps
identities through crossings and through slowly splitting near-parallel
branches.  Residual displacement ties are broken by eigenvector overlap; a
real pair turning into a complex-conjugate pair is ordered with the Im > 0
member on the lower branch index.  Steps whose matching stays ambiguous are
bisected down to MIN_STEP and the surviving ambiguity is recorded rather
than suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .matrices import OperatorMatrices
from .spectrum import (Spectrum, _components, block_labels,
                       canonical_order, diagonalize)

TIE_REL = 0.05
OVERLAP_MARGIN = 0.2
# Candidate values closer than this (relative) are numerically one value:
# an overlap tie between them is not an ambiguity.
DISTINCT_REL = 1e-5
# Two branches whose values agree this closely (relative) both in the
# prediction and at the next step are exactly degenerate (the +-m pairs of a
# tilted sphere): swapping them changes no value, so it is no tie.
SAME_REL = 1e-10
# A step is bisected, down to MIN_STEP, when a matched value moves further
# than REFINE_DISPLACEMENT or its matching stays ambiguous.
MIN_STEP = 1e-5
REFINE_DISPLACEMENT = 0.5


@dataclass
class BranchSweep:
    """Branch-ordered eigenvalues lambda_j(gbar) on an adaptively refined grid.

    eigenvalues[i, j] is branch j at g_grid[i]; branch j starts at basis mode
    j, the j-th ordered Laplacian eigenvalue, and block[j] is the exact block
    of that mode, which the branch never leaves.  refinements and ambiguities
    log the adaptive insertions and unresolved assignment ties.
    """

    g_grid: np.ndarray
    eigenvalues: np.ndarray
    block: np.ndarray
    permutations: list = field(default_factory=list)
    refinements: list = field(default_factory=list)
    ambiguities: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def n_branches(self) -> int:
        return self.eigenvalues.shape[1]

    def values_at(self, g: float) -> np.ndarray:
        """Branch-ordered eigenvalues at the grid point nearest to g."""
        i = int(np.argmin(np.abs(self.g_grid - g)))
        return self.eigenvalues[i]


def _labels(spec: Spectrum) -> np.ndarray:
    """Block label of each row; a spectrum built without labels is one block."""
    return np.zeros(spec.N, dtype=int) if spec.block is None else spec.block


def _assign(target: np.ndarray, block: np.ndarray, spec: Spectrum) -> np.ndarray:
    """Row of spec assigned to each target value (target j in block[j]):
    minimal total squared displacement, each block on its own."""
    out = np.empty(len(target), dtype=int)
    rows_block = _labels(spec)
    for k in np.unique(block):
        r = np.flatnonzero(block == k)
        c = np.flatnonzero(rows_block == k)
        diff = target[r][:, None] - spec.eigenvalues[c][None, :]
        i, j = linear_sum_assignment(diff.real**2 + diff.imag**2)
        out[r[i]] = c[j]
    return out


def match_step(prev: Spectrum, next_: Spectrum, W: np.ndarray | None = None):
    """Permutation sigma minimizing sum |lambda_prev[b] - lambda_next[sigma(b)]|^2
    with every branch b matched inside its block (Spectrum.block).

    Returns (sigma, info).  info['tie_groups'] lists same-block branch groups
    whose assignment is cost-degenerate: a freshly formed conjugate pair is
    ordered Im > 0 first, and remaining ties are broken by the bilinear
    overlap |<v_prev, W v_next>| when both spectra carry eigenvectors.  Groups
    that stay ambiguous are reported with kind='unresolved'.
    """
    wp, wn = prev.eigenvalues, next_.eigenvalues
    bp = _labels(prev)
    if not np.array_equal(np.sort(bp), np.sort(_labels(next_))):
        raise ValueError("spectra have different block sizes")
    sigma = _assign(wp, bp, next_)
    diff = wp[:, None] - wn[None, :]
    cost = diff.real**2 + diff.imag**2
    info = {"cost": float(cost[np.arange(len(wp)), sigma].sum()),
            "tie_groups": []}

    # Swap ties, vectorized: relative cost change of exchanging the
    # assignments of two branches of one block.
    d = cost[np.arange(len(wp)), sigma]
    c_now = d[:, None] + d[None, :]
    cs = cost[:, sigma]
    c_swp = cs + cs.T
    rel = np.abs(c_swp - c_now) / (c_now + c_swp + 1e-300)
    tie = (rel <= TIE_REL) & (c_now + c_swp > 0) & (bp[:, None] == bp[None, :])
    pairs = np.argwhere(np.triu(tie, k=1))
    pairs = pairs[~(_equal(wp, pairs) & _equal(wn[sigma], pairs))]
    for comp in _components(pairs, len(wp)):
        if len(comp) > 1:
            _resolve_component(comp, sigma, wp, wn, prev, next_, W, info)
    return sigma, info


def _equal(w: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Whether w[i] and w[j] agree to SAME_REL, for each row (i, j) of pairs."""
    wi, wj = w[pairs[:, 0]], w[pairs[:, 1]]
    return np.abs(wi - wj) <= SAME_REL * np.maximum(1.0, np.maximum(abs(wi), abs(wj)))


def _resolve_component(comp, sigma, wp, wn, prev, next_, W, info):
    cols = sigma[comp]
    vals = wn[cols]
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.all(np.abs(wp[comp].imag) <= 1e-9) and \
            _is_conjugate_family(vals, scale):
        # real branches merged into conjugate pairs: deterministic order,
        # Im > 0 to the lower branch index within each real-part group
        rank = canonical_order(vals, 1e-6 * scale)
        for pos, branch in enumerate(comp):
            sigma[branch] = cols[rank[pos]]
        info["tie_groups"].append({"branches": tuple(int(b) for b in comp),
                                   "kind": "conjugate_pair",
                                   "candidates": "cost-equal assignments, "
                                                 "ordered Im>0 first"})
        return
    if prev.X is None or next_.X is None:
        info["tie_groups"].append({"branches": tuple(int(b) for b in comp),
                                   "kind": "unresolved"})
        return
    # maximize total overlap within the component (Hungarian on -|overlap|)
    ov = np.abs(prev.X[comp] @ W @ next_.X[cols].T)
    r_idx, c_idx = linear_sum_assignment(-ov)
    new_cols = cols[c_idx[np.argsort(r_idx)]]
    for pos, branch in enumerate(comp):
        sigma[branch] = new_cols[pos]
    # ambiguity: a row whose best and runner-up overlaps are comparable while
    # the two candidate next-values are visibly distinct
    resolved = True
    for r in range(len(comp)):
        order = np.argsort(ov[r])[::-1]
        if len(order) < 2:
            continue
        c0, c1 = order[0], order[1]
        close = ov[r, c0] - ov[r, c1] <= OVERLAP_MARGIN * (ov[r, c0] + ov[r, c1] + 1e-300)
        if close and abs(vals[c0] - vals[c1]) > DISTINCT_REL * scale:
            resolved = False
    info["tie_groups"].append({"branches": tuple(int(b) for b in comp),
                               "kind": "overlap_resolved" if resolved
                               else "unresolved"})


def _is_conjugate_family(vals: np.ndarray, scale: float) -> bool:
    """True when vals form conjugate pairs (reals self-paired) with at least
    one genuinely complex member."""
    if not np.any(np.abs(vals.imag) > 1e-9):
        return False
    unused = list(range(len(vals)))
    while unused:
        i = unused.pop(0)
        if abs(vals[i].imag) <= 1e-9 * scale:
            continue
        match = None
        for j in unused:
            if abs(vals[i] - np.conj(vals[j])) <= 1e-6 * scale:
                match = j
                break
        if match is None:
            return False
        unused.remove(match)
    return True


def run_sweep(mat: OperatorMatrices, B: np.ndarray, g_max: float,
              step: float = 0.05) -> BranchSweep:
    """Track eigenvalue branches from gbar = 0 to g_max.

    Eigenvalues only are computed at each grid point; eigenvectors are pulled
    in lazily when a displacement tie survives the slope-prediction matching.
    A step whose maximal matched displacement exceeds REFINE_DISPLACEMENT, or
    whose matching stays ambiguous, is bisected until MIN_STEP; leftover
    ambiguities are logged with both candidate assignments.
    """
    if g_max <= 0:
        raise ValueError("g_max must be positive")
    n_grid = int(np.ceil(g_max / step))
    grid = list(np.linspace(0.0, g_max, n_grid + 1))
    block = block_labels(mat, B)

    # At gbar = 0 the matrix is diagonal: branch j is basis mode j, with
    # eigenvalue lam[j] and eigenvector e_j.  Vector-chained matching is
    # needed while degenerate families are still splitting, since labels
    # inside a family are only defined by eigenvector content.
    sweep_g: list[float] = [grid[0]]
    rows: list[np.ndarray] = [mat.lam.astype(complex)]
    perms: list[np.ndarray] = []
    refinements: list[dict] = []
    ambiguities: list[dict] = []
    prev_vec = Spectrum(gbar=grid[0], eigenvalues=rows[0],
                        X=np.eye(mat.N, dtype=complex))
    vector_mode = True

    pending = grid[1:]
    while pending:
        g_next = pending.pop(0)
        pred = _predict(sweep_g, rows, g_next)
        if not vector_mode:
            nxt = diagonalize(mat, B, g_next, eigvals_only=True)
            sigma, info = match_step(
                Spectrum(gbar=g_next, eigenvalues=pred, block=block), nxt)
            ties = info["tie_groups"]
            if ties:
                # re-run this step with eigenvectors; the previous point was
                # tie-free, so aligning its vectors by value is unambiguous
                prev_vec = _aligned_vector_spectrum(mat, B, sweep_g[-1],
                                                    rows[-1], block)
                vector_mode = True
        if vector_mode:
            nxt = diagonalize(mat, B, g_next)
            pred_spec = Spectrum(gbar=g_next, eigenvalues=pred, X=prev_vec.X,
                                 block=block)
            sigma, info = match_step(pred_spec, nxt, W=mat.W)
            ties = info["tie_groups"]
        unresolved = [t for t in ties if t["kind"] == "unresolved"]
        max_disp = float(np.max(np.abs(rows[-1] - nxt.eigenvalues[sigma])))
        gap = g_next - sweep_g[-1]
        if (unresolved or max_disp > REFINE_DISPLACEMENT) and gap > 2 * MIN_STEP:
            g_mid = 0.5 * (sweep_g[-1] + g_next)
            refinements.append({"inserted": g_mid,
                                "reason": "tie" if unresolved else "displacement",
                                "max_disp": max_disp})
            pending.insert(0, g_next)
            pending.insert(0, g_mid)
            continue
        for t in unresolved:
            ambiguities.append({"g": g_next, **t,
                                "note": "cost-minimal assignment kept"})
        sweep_g.append(g_next)
        rows.append(nxt.eigenvalues[sigma])
        perms.append(sigma)
        if vector_mode:
            if ties:
                prev_vec = Spectrum(gbar=g_next,
                                    eigenvalues=nxt.eigenvalues[sigma],
                                    X=nxt.X[sigma])
            else:
                vector_mode, prev_vec = False, None

    return BranchSweep(
        g_grid=np.array(sweep_g),
        eigenvalues=np.vstack(rows),
        block=block,
        permutations=perms,
        refinements=refinements,
        ambiguities=ambiguities,
        metadata={
            "geometry": mat.basis.geometry,
            "N": mat.N,
            "step": step,
            "min_step": MIN_STEP,
            "tiebreak": "per exact block: slope-predicted squared "
                        "displacement, eigenvector overlap on ties, Im>0 to "
                        "lower index through branch points",
        },
    )


def _predict(sweep_g, rows, g_next) -> np.ndarray:
    """Linear extrapolation of each branch to g_next (falls back to the last
    values when only one point is available)."""
    if len(rows) < 2:
        return rows[-1]
    dg = sweep_g[-1] - sweep_g[-2]
    if dg <= 0:
        return rows[-1]
    slope = (rows[-1] - rows[-2]) / dg
    return rows[-1] + slope * (g_next - sweep_g[-1])


def _aligned_vector_spectrum(mat, B, g, target_row, block) -> Spectrum:
    """Diagonalize with vectors at g and permute rows onto target_row order."""
    spec = diagonalize(mat, B, g)
    order = _assign(target_row, block, spec)
    return Spectrum(gbar=g, eigenvalues=spec.eigenvalues[order], X=spec.X[order])
