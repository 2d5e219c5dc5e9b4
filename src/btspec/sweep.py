"""Eigenvalue branch tracking over a gradient-strength grid.

Branch j starts at gbar = 0 as basis mode j and never leaves that mode's
exact block, since the blocks of Lambda + i*gbar*B never couple (see
spectrum).  The tracker keeps one state per distinct block on a shared grid
(a bit-identical twin block copies its twin) and matches each block on its
own: the assignment of least squared displacement from a linear
prediction keeps identities through crossings.  When every branch has its
own strictly nearest value, that assignment is read off directly.
Otherwise, on the real line, it is the sorted one: the real values go to
the branches in order, each non-real value to its strictly nearest
non-real branch (a rejoining pair's branches join the real ones), and a
fresh conjugate pair to the two adjacent real branches of least cost.  A
step those rules do not prove optimal, as in the degenerate families of a
tilted sphere, goes to scipy's solver.  The blocks are solved in their
real form (see spectrum), so a real value has Im exactly 0, the test the
rules use, and a complex one its exact conjugate: elsewhere realness is
spectrum.is_real, sameness spectrum.same_value, and conjugacy is exact
equality.  Ties are broken by eigenvector overlap (solving only the tied
block with vectors); a real pair turning complex is ordered Im > 0 first,
and a conjugate pair turning real gives its Im > 0 branch the smaller
value.  A step ambiguous in any block is bisected for all, down to
MIN_STEP; what stays ambiguous is recorded.
"""

from __future__ import annotations

import itertools
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


def _assign(target: np.ndarray, values: np.ndarray,
            cost: np.ndarray | None = None) -> np.ndarray:
    """Index into values of each target value: least total squared
    displacement (cost: that matrix, if computed).  A strictly nearest
    value per target, no two the same, is the unique optimum; else
    _closed_form's, else scipy's (which rejects a NaN cost)."""
    if cost is None:
        diff = np.subtract.outer(target, values)
        cost = diff.real**2 + diff.imag**2
    low = cost <= cost.min(axis=1, keepdims=True)  # all False in a NaN row
    # one entry per row and per column: low is a permutation matrix
    if np.count_nonzero(low) == len(cost) and low.any(axis=0).all() \
            and low.any(axis=1).all():
        return low.argmax(axis=1)
    cols = _closed_form(target, values, cost) if np.isfinite(cost).all() else None
    if cols is None:
        import scipy.optimize
        cols = scipy.optimize.linear_sum_assignment(cost)[1]
    return cols


def _closed_form(target, values, cost) -> np.ndarray | None:
    """A least-cost assignment by three rules, or None where they fail.

    Real values (Im exactly 0) go in order to the targets sorted by real
    part (a target's Im adds the same cost to each real value).  Each
    non-real value takes its strictly nearest non-real target, no two the
    same, and targets left over (a rejoin) join the real ones.  At a split
    each non-real target takes its strictly nearest non-real value, and the
    two left over, an exact conjugate pair x +- iy equally far from every
    real target, go to the adjacent two of least total cost (of a < b < c,
    a, b or b, c cost no more than a, c).  That is optimal among the
    assignments keeping the real values and their targets apart from the
    rest; any other pays a cross entry c_ij, so at least the sum of row
    minima plus c_ij - min(row i), and the result must not cost more."""
    tr, vr = target.imag == 0, values.imag == 0
    ct, cv, rv = np.flatnonzero(~tr), np.flatnonzero(~vr), np.flatnonzero(vr)
    cols, split = np.empty(len(cost), dtype=int), len(ct) < len(cv)
    sub = cost[np.ix_(ct, cv)] if split else cost[np.ix_(ct, cv)].T
    near = np.nonzero(sub == sub.min(axis=1, keepdims=True, initial=np.inf))[1]
    if not len(near) == len(sub) == len(np.unique(near)):
        return None  # a row without a strict minimum, or two sharing one
    if split:
        cols[ct], pair = cv[near], np.delete(cv, near)
        if len(pair) != 2 or values[pair[0]] != values[pair[1]].conjugate():
            return None
        vr[pair] = True
    else:
        cols[ct[near]] = cv
        tr[np.delete(ct, near)] = True
    rt, rv = (i[np.argsort(z.real[i], kind="stable")]
              for i, z in ((np.flatnonzero(tr), target), (rv, values)))
    if split:  # the pair to the two adjacent targets of least total cost
        w = cost[rt, pair[0]]
        a, b = cost[rt[:-2], rv], cost[rt[2:], rv]
        k = np.argmin(np.r_[0, np.cumsum(a)] + w[:-1] + w[1:]
                      + np.r_[np.cumsum(b[::-1])[::-1], 0])
        # Im > 0 to the smaller target
        rv = np.r_[rv[:k], pair[np.argsort(-values.imag[pair])], rv[k:]]
    cols[rt] = rv
    row_min = cost.min(axis=1)
    cross = np.where(tr[:, None] != vr, cost, np.inf).min(axis=1)
    excess = cost[np.arange(len(cost)), cols].sum() - row_min.sum()
    return cols if excess <= np.min(cross - row_min) else None


def match_step(prev: Spectrum, next_: Spectrum):
    """Permutation sigma minimizing sum |lambda_prev[b] - lambda_next[sigma(b)]|^2
    over the branches b of one exact block (see _assign).

    Returns (sigma, info).  info['tie_groups'] lists the cost-degenerate
    groups: a fresh conjugate pair is ordered Im > 0 first; other ties are
    broken by the bilinear overlap |<v_prev, v_next>| if both spectra carry
    eigenvectors, else kind='unresolved'."""
    wp, wn = prev.eigenvalues, next_.eigenvalues
    diff = np.subtract.outer(wp, wn)
    cost = diff.real**2 + diff.imag**2
    if len(wp) == 1:  # one branch, one value: nothing to match
        return np.zeros(1, dtype=int), {"cost": float(cost[0, 0]), "tie_groups": []}
    sigma = _assign(wp, wn, cost)
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
        ov = np.abs(prev.X[comp] @ next_.X[cols].T)
        sigma[comp] = cols[_max_overlap(ov)]
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


def _max_overlap(ov: np.ndarray) -> np.ndarray:
    """Column of each row maximizing the total overlap: the best of every
    permutation up to four rows (z-sphere sweeps meet two), scipy's solver
    beyond."""
    if len(ov) > 4:
        import scipy.optimize
        return scipy.optimize.linear_sum_assignment(ov, maximize=True)[1]
    perms = np.array(list(itertools.permutations(range(len(ov)))))
    return perms[np.argmax(ov[np.arange(len(ov)), perms].sum(axis=1))]


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
    if not (0 < g_max < np.inf and 0 < step < np.inf):
        raise ValueError("g_max and step must be positive and finite")
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
