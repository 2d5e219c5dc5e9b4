"""Eigenvalue branch tracking over a gradient-strength grid.

Branch j starts at gbar = 0 as basis mode j and never leaves that mode's
exact block, since the blocks of Lambda + i*gbar*B never couple (see
spectrum).  The tracker keeps one state per distinct block on a shared grid
(a bit-identical twin block copies its twin) and matches each block on its
own: the assignment of least squared displacement from a linear
prediction keeps identities through crossings.  When every branch has its
own strictly nearest value, that assignment is read off directly.
Otherwise an in-package port of scipy's shortest augmenting path solver
(Crouse, IEEE TAES 52, 1679 (2016)) gives scipy's columns bit for bit:
each branch in turn takes a free value among its exactly nearest ones (a
fresh conjugate pair is an exact tie) or, when all are taken, searches for
an augmenting path.  Only a step whose nearest values collide more than
once, as in the degenerate families of a tilted sphere, goes to scipy's
C solver.  The blocks are solved in their real form (see spectrum), so a
real value has Im exactly 0 and a complex one its exact conjugate: realness
is spectrum.is_real, sameness spectrum.same_value, and conjugacy is exact
equality.  Ties are broken by eigenvector overlap (solving only the tied
block with vectors); a real pair turning complex is ordered Im > 0 first,
and a conjugate pair turning real gives its Im > 0 branch the smaller
value.  A step ambiguous in any block is bisected for all, down to
MIN_STEP; what stays ambiguous is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import OperatorMatrices
from .spectrum import (Spectrum, _blocks, _components, _solve_block,
                       block_labels, canonical_order, is_real, same_value)

TIE_REL = 0.05
OVERLAP_MARGIN = 0.2
# Candidate values closer than this (relative) are numerically one value:
# an overlap tie between them is not an ambiguity.
DISTINCT_REL = 1e-5
# A step is bisected, down to MIN_STEP, when a matched value moves further
# than REFINE_DISPLACEMENT or its matching stays ambiguous.
MIN_STEP = 1e-5
REFINE_DISPLACEMENT = 0.5


@dataclass
class BranchSweep:
    """Branch-ordered eigenvalues lambda_j(gbar) on an adaptively refined grid.

    eigenvalues[i, j] is branch j at g_grid[i]; branch j starts at basis mode
    j and stays in its exact block block[j].  refinements and ambiguities log
    the adaptive insertions and unresolved assignment ties.
    """

    g_grid: np.ndarray
    eigenvalues: np.ndarray
    block: np.ndarray
    refinements: list = field(default_factory=list)
    ambiguities: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def values_at(self, g: float) -> np.ndarray:
        """Branch-ordered eigenvalues at the grid point nearest to g."""
        i = int(np.argmin(np.abs(self.g_grid - g)))
        return self.eigenvalues[i]


def _hungarian(cost: np.ndarray) -> np.ndarray:
    """Column assigned to each row of a square cost matrix (minimal sum),
    bit for bit the columns of scipy's linear_sum_assignment.

    When every row has a strict minimum and no two rows share its column,
    that assignment is the unique optimum and is returned as is.  Otherwise
    _lsap runs scipy's shortest augmenting path algorithm (Crouse 2016).
    A row whose exact minima are not all taken ends its search at the first
    Dijkstra step (a conjugate pair is an exact tie for a real prediction);
    a row that finds them all taken needs a full search, about 50 us per
    row in numpy.  At that first full search, a matrix whose row minima
    collide more than once (n - len(unique(argmin)) > 1) goes to scipy's C
    solver instead, since many of its rows would search.  Every contended
    matrix of the z-sphere sweeps (N = 100, 333 and 700, and sphere_reduced
    at N = 300) has exactly one collision; a tilted sphere's have mostly 25
    to 94.  So z-sphere sweeps never load scipy.optimize (about 0.4 s and
    45 MB, since no other scipy module is loaded before it).  A non-finite
    cost goes to scipy too, which rejects NaN and -inf."""
    low = cost <= cost.min(axis=1, keepdims=True)  # all False in a NaN row
    # one entry per row and per column: low is a permutation matrix
    if np.count_nonzero(low) == len(cost) and low.any(axis=0).all() \
            and low.any(axis=1).all():
        return low.argmax(axis=1)
    if np.isfinite(cost).all():
        cols = _lsap(cost, max_collisions=1)
        if cols is not None:
            return cols
    import scipy.optimize
    return scipy.optimize.linear_sum_assignment(cost)[1]


def _lsap(cost: np.ndarray, max_collisions: int | None = None) -> np.ndarray | None:
    """Column assigned to each row of a square, finite cost matrix: scipy's
    shortest augmenting path solver (Crouse, IEEE TAES 52, 1679 (2016)) with
    its arithmetic, scan order and tie-breaking, so the same columns bit for
    bit.  Returns None, before any search, when that search would be needed
    and more than max_collisions rows share a row minimum column."""
    n = len(cost)
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col, path = (np.full(n, -1) for _ in range(3))
    free = np.ones(n, dtype=bool)
    low = cost == cost.min(axis=1, keepdims=True)  # minima of cost - v while v = 0
    searched = False
    for cur in range(n):
        # the first Dijkstra step: the lowest-index free column among the
        # row's exact minima of cost - v ends the search at once
        if searched:
            r = cost[cur] - v
            low[cur] = r == r.min()
        j = np.argmax(low[cur] & free)
        if low[cur, j] and free[j]:
            u[cur] = cost[cur, j] - v[j]
            row4col[j], col4row[cur], free[j] = cur, j, False
            continue
        if not searched and max_collisions is not None \
                and n - len(np.unique(cost.argmin(axis=1))) > max_collisions:
            return None
        searched = True
        # Dijkstra over the columns from row cur, scanned as scipy scans
        # them: from the last, a taken column swapped in for each one reached
        remaining = np.arange(n - 1, -1, -1)
        spc, sr, sc = np.full(n, np.inf), [], []
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            sr.append(i)
            r = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = r < spc[remaining]
            path[remaining[better]] = i
            spc[remaining[better]] = r[better]
            s = spc[remaining]
            min_val = s.min()
            at = s == min_val
            sinks = np.flatnonzero(at & free[remaining])
            # the last free column at the minimum, else the first column there
            index = sinks[-1] if len(sinks) else np.argmax(at)
            j = remaining[index]
            sc.append(j)
            if free[j]:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining = remaining[:-1]
        # dual update and augmentation along the path
        u[cur] += min_val
        for i in sr[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in sc:
            v[j] -= min_val - spc[j]
        j, free[sink] = sink, False
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _assign(target: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index into values of each target value: least squared displacement."""
    diff = np.subtract.outer(target, values)
    return _hungarian(diff.real**2 + diff.imag**2)


def match_step(prev: Spectrum, next_: Spectrum):
    """Permutation sigma minimizing sum |lambda_prev[b] - lambda_next[sigma(b)]|^2
    over the branches b of one exact block.

    Returns (sigma, info).  info['tie_groups'] lists the cost-degenerate
    groups: a fresh conjugate pair is ordered Im > 0 first; other ties are
    broken by the bilinear overlap |<v_prev, v_next>| if both spectra carry
    eigenvectors, else kind='unresolved'."""
    wp, wn = prev.eigenvalues, next_.eigenvalues
    diff = np.subtract.outer(wp, wn)
    cost = diff.real**2 + diff.imag**2
    if len(wp) == 1:  # one branch, one value: nothing to match
        return np.zeros(1, dtype=int), {"cost": float(cost[0, 0]), "tie_groups": []}
    sigma = _hungarian(cost)
    cs = cost.take(sigma, axis=1)
    d = cs.diagonal()
    info = {"cost": float(d.sum()), "tie_groups": []}
    # Swap ties: exchanging the assignments of two branches raises the cost
    # (c_swp >= c_now at the optimum) by at most TIE_REL of c_now + c_swp.
    # The mask is symmetric with a true diagonal, so counts show pairs.
    tie = (1 - TIE_REL) * (cs + cs.T) <= (1 + TIE_REL) * np.add.outer(d, d)
    if np.count_nonzero(tie) > len(wp):
        # two branches that are one value (spectrum.same_value) both in the
        # prediction and at the next step are exactly degenerate (the
        # |m| >= 1 pairs about the axis of a tilted sphere gradient; also
        # zero costs): swapping them changes no value, so it is no tie
        i, j = np.nonzero(tie)
        wns = wn[sigma]
        tie[i, j] = ~(same_value(wp[i], wp[j]) & same_value(wns[i], wns[j]))
        # that clears the diagonal: walk only the branches tied to another
        tied = np.flatnonzero(tie.any(axis=1))
        for comp in _components(tie[np.ix_(tied, tied)])[0]:
            comp = tied[comp]
            kind = _resolve_component(comp, sigma, wp, wn, prev, next_)
            info["tie_groups"].append({"branches": tuple(int(b) for b in comp),
                                       "kind": kind})
    return sigma, info


def _resolve_component(comp, sigma, wp, wn, prev, next_) -> str:
    """Reorder sigma on one cost-tied group of branches; returns its kind."""
    cols = sigma[comp]
    vals = wn[cols]
    if is_real(wp[comp]).all() and _is_conjugate_family(vals):
        # real branches merged into conjugate pairs: deterministic order,
        # Im > 0 to the lower branch index within each real-part group
        sigma[comp] = cols[canonical_order(vals)]
        return "conjugate_pair"
    kind = "unresolved"
    if prev.X is not None and next_.X is not None:
        # maximize total overlap within the component (Hungarian on -|overlap|)
        ov = np.abs(prev.X[comp] @ next_.X[cols].T)
        sigma[comp] = cols[_hungarian(-ov)]
        # ambiguity: a row whose best and runner-up overlaps are comparable
        # while the two candidate next-values are visibly distinct
        c0, c1 = np.argsort(ov, axis=1)[:, ::-1][:, :2].T
        b0, b1 = (ov[np.arange(len(comp)), c] for c in (c0, c1))
        close = b0 - b1 <= OVERLAP_MARGIN * (b0 + b1 + 1e-300)
        scale = max(1.0, float(np.max(np.abs(vals))))
        distinct = np.abs(vals[c0] - vals[c1]) > DISTINCT_REL * scale
        kind = "unresolved" if np.any(close & distinct) else "overlap_resolved"
    if len(comp) == 2 and is_real(vals).all() and _is_conjugate_family(wp[comp]):
        # a conjugate pair rejoining the real axis: PT symmetry gives both
        # members the same overlap with each real vector, so only rounding
        # would choose.  Im > 0 goes to the smaller real value, mirroring
        # the split rule: a pair that splits and rejoins keeps its order.
        low = cols[np.argsort(vals.real)]
        sigma[comp] = low if wp[comp[0]].imag > 0 else low[::-1]
    return kind


def _is_conjugate_family(vals: np.ndarray) -> bool:
    """True when vals has a non-real member (spectrum.is_real) and its
    non-real members are closed under exact conjugation."""
    z = np.sort_complex(vals[~is_real(vals)])
    return len(z) > 0 and np.array_equal(z, np.sort_complex(z.conj()))


@dataclass
class _Track:
    """One distinct exact block: its modes ix (its branches), the modes of all
    blocks sharing its result (ix, then its twins), its real form (lam, K)
    and phases d (see spectrum._blocks), and in vector mode the eigenvectors
    at the last accepted point (else None)."""

    ix: np.ndarray
    copies: list
    lam: np.ndarray
    K: np.ndarray
    d: np.ndarray
    vec: np.ndarray | None

    def solve(self, g: float, eigvals_only: bool) -> Spectrum:
        w, Z = _solve_block(self.lam, self.K, g, eigvals_only)
        return Spectrum(gbar=g, eigenvalues=w, X=None if Z is None else Z * self.d)

    def step(self, pred: np.ndarray, g_prev: float, prev: np.ndarray, g: float):
        """Values at g, tie groups and the vector state to keep on acceptance."""
        if self.vec is None:
            nxt = self.solve(g, True)
            sigma, info = match_step(Spectrum(gbar=g, eigenvalues=pred), nxt)
            if not info["tie_groups"]:
                return nxt.eigenvalues[sigma], [], None
            # vectors from g_prev, which was tie-free, so aligned by value
            spec = self.solve(g_prev, False)
            self.vec = spec.X[_assign(prev, spec.eigenvalues)]
        nxt = self.solve(g, False)
        sigma, info = match_step(Spectrum(gbar=g, eigenvalues=pred, X=self.vec), nxt)
        ties = info["tie_groups"]
        return nxt.eigenvalues[sigma], ties, nxt.X[sigma] if ties else None


def _tracks(mat: OperatorMatrices, B: np.ndarray) -> list[_Track]:
    """One tracker per distinct exact block, in vector mode from gbar = 0 (where
    branch j has eigenvector e_j): splitting degenerate families need it."""
    blocks = _blocks(mat.lam, B)
    tracks = []
    for k, (ix, twin, lam_b, K, d) in enumerate(blocks):
        if twin == k:
            copies = [jx for jx, t, *_ in blocks if t == k]
            tracks.append(_Track(ix, copies, lam_b, K, d, np.eye(len(ix), dtype=complex)))
    return tracks


def run_sweep(mat: OperatorMatrices, B: np.ndarray, g_max: float,
              step: float = 0.05) -> BranchSweep:
    """Track eigenvalue branches from gbar = 0 to g_max.

    Blocks are solved without eigenvectors until a tie survives their
    slope-predicted matching.  A step whose matched values move further than
    REFINE_DISPLACEMENT, or stay ambiguous in any block, is bisected for all
    blocks down to MIN_STEP; leftover ambiguities are logged.
    """
    if g_max <= 0:
        raise ValueError("g_max must be positive")
    pending = list(np.linspace(0.0, g_max, int(np.ceil(g_max / step)) + 1))
    sweep_g, rows = [pending.pop(0)], [mat.lam.astype(complex)]
    refinements, ambiguities, tracks = [], [], _tracks(mat, B)
    while pending:
        g_next = pending.pop(0)
        pred = rows[-1]  # linear extrapolation from the last two points
        if len(rows) > 1:
            slope = (pred - rows[-2]) / (sweep_g[-1] - sweep_g[-2])
            pred = pred + slope * (g_next - sweep_g[-1])
        row, unresolved, vecs = np.empty(mat.N, dtype=complex), [], []
        for t in tracks:
            vals, ties, vec = t.step(pred[t.ix], sweep_g[-1], rows[-1][t.ix], g_next)
            vecs.append(vec)
            for ix in t.copies:  # report basis modes, not the block's branches
                row[ix] = vals
                unresolved += [dict(tie, branches=tuple(int(ix[b]) for b in tie["branches"]))
                               for tie in ties if tie["kind"] == "unresolved"]
        max_disp = float(np.max(np.abs(rows[-1] - row)))
        if (unresolved or max_disp > REFINE_DISPLACEMENT) and \
                g_next - sweep_g[-1] > 2 * MIN_STEP:
            g_mid = 0.5 * (sweep_g[-1] + g_next)
            refinements.append({"inserted": g_mid, "reason": "tie" if unresolved
                                else "displacement", "max_disp": max_disp})
            pending[:0] = [g_mid, g_next]
            continue
        ambiguities += [{"g": g_next, **tie, "note": "cost-minimal assignment kept"}
                        for tie in sorted(unresolved, key=lambda tie: tie["branches"])]
        sweep_g.append(g_next)
        rows.append(row)
        for t, vec in zip(tracks, vecs):
            t.vec = vec

    return BranchSweep(
        g_grid=np.array(sweep_g), eigenvalues=np.vstack(rows),
        block=block_labels(mat, B), refinements=refinements, ambiguities=ambiguities,
        metadata={"geometry": mat.basis.geometry, "N": mat.N, "step": step,
                  "min_step": MIN_STEP,
                  "tiebreak": "per exact block: slope-predicted squared displacement, "
                              "eigenvector overlap on ties, Im>0 to lower index "
                              "through branch points"})
