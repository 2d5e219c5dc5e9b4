"""Eigenvalue branch tracking over a gradient-strength grid.

Branch j starts at gbar = 0 as basis mode j and never leaves that mode's
exact block, since the blocks of Lambda + i*gbar*B never couple (see
spectrum).  The tracker keeps one state per distinct block on a shared grid
(a bit-identical twin block copies its twin) that holds a reported branch
(run_sweep's n_branches; the other columns are NaN).  Each block is solved
ahead, eigenvalues only, on stacks of the pending grid points
(spectrum._solve_block), in its real form, so a real value has Im exactly
0 and a complex one its exact conjugate.

Two real values of a block without hidden symmetry do not cross (von
Neumann and Wigner), and a split or a rejoin is a collision of two adjacent
ones (Heiss), so such a block, one with no degenerate class at gbar = 0
that is not a block of the dense cylinder (a Kronecker sum, whose real
values do cross), is labelled on every step by the order rules (_by_order).
Every other block, and a step the rules decline, goes through match_step,
which matches by value: the assignment of least squared displacement from
a linear prediction (_assign: each branch's strictly nearest value, else
the order rules where a bound proves them optimal, else both on classes of
equal values), then the same split rule.  A step that _assign cannot prove,
and any other swap of two branches costing nearly the optimum, is a tie:
the step is bisected for all tracked blocks down to MIN_STEP, and what
stays tied is recorded.
No eigenvector is solved: the members of a degenerate class of gbar = 0
(the m-families of a tilted sphere) split as gbar^2, so their real
predictions add that second-order term (_curvatures), which gives the lower
branch the smaller value, as the z sphere's |m| sectors do.  Branches
that are one value (spectrum.same_value, 1e-8 relative) before and after a
step are no tie, so which member of such a family is which is not tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import OperatorMatrices
from .spectrum import (Spectrum, _blocks, _chunk_len, _components,
                       _degenerate_classes, _solve_block, block_labels,
                       canonical_order, is_real, same_value)

TIE_REL = 0.05
# A step is bisected, down to MIN_STEP, when a matched value moves further
# than REFINE_DISPLACEMENT or its matching leaves a tie.
MIN_STEP = 1e-5
REFINE_DISPLACEMENT = 0.5


@dataclass
class BranchSweep:
    """Branch-ordered eigenvalues lambda_j(gbar) on an adaptively refined grid.

    eigenvalues[i, j] is branch j at g_grid[i]; branch j starts at basis mode
    j and stays in its exact block block[j], and is NaN on every row when
    that block was not tracked.  refinements and ambiguities log the
    adaptive insertions and the steps left tied or unproved at MIN_STEP.
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
            cost: np.ndarray | None = None) -> np.ndarray | None:
    """Index into values of each target, of least total squared displacement
    (cost: that matrix, if computed), where a rule proves it: each target's
    strictly nearest value, no two the same (the unique optimum), else
    _closed_form, else _by_class; else None.  A non-finite cost raises."""
    if cost is None:
        diff = np.subtract.outer(target, values)
        cost = diff.real**2 + diff.imag**2
    if not np.isfinite(cost).all():
        raise ValueError("a prediction or a value is not finite")
    low = cost <= cost.min(axis=1, keepdims=True)
    # one entry per row and per column: low is a permutation matrix
    if np.count_nonzero(low) == len(cost) and low.any(axis=0).all():
        return low.argmax(axis=1)
    cols = _closed_form(target, values, cost)
    return _by_class(target, values) if cols is None else cols


def _by_class(target, values) -> np.ndarray | None:
    """_assign on the classes of equal values (spectrum.same_value, chained),
    each one value at its mean (an exact conjugate pair's is real), a
    target class's costs times its size, each paired with a value class of
    its size, members in index order; else None.  Exact where a class's
    members are equal, else up to its width (match_step too takes a class
    as one value: which member of a degenerate family is which is moot)."""
    ct, cv = (_components(same_value(w[:, None], w))[0] for w in (target, values))
    if len(ct) == len(target) or len(ct) != len(cv):
        return None  # no class, or classes that cannot pair
    mt, mv = (np.array([w[c].mean() for c in cs]) for w, cs in ((target, ct), (values, cv)))
    d, size = np.subtract.outer(mt, mv), np.array([len(c) for c in ct])
    near = _assign(mt, mv, (d.real**2 + d.imag**2) * size[:, None])
    if near is None or any(size != [len(cv[j]) for j in near]):
        return None
    cols = np.empty(len(target), dtype=int)
    cols[np.concatenate(ct)] = np.concatenate([cv[j] for j in near])
    return cols


def _closed_form(target, values, cost) -> np.ndarray | None:
    """_by_order's assignment where it is least-cost, else None.  That is
    optimal among the assignments keeping the real group (the real values,
    a fresh pair, and the targets they take) apart from the rest; any
    other pays a cross entry c_ij, so at least the sum of row minima plus
    c_ij - min(row i), and the result must not cost more."""
    by_re = values.real.argsort(kind="stable")  # _by_order's value order
    cols = _by_order(target, values[by_re])
    if cols is None:
        return None
    cols = by_re[cols]
    tr = (target.imag == 0) | (values.imag[cols] == 0)
    vr = tr[np.argsort(cols)]  # vr[cols] = tr
    row_min = cost.min(axis=1)
    cross = np.where(tr[:, None] != vr, cost, np.inf).min(axis=1)
    excess = cost[np.arange(len(cost)), cols].sum() - row_min.sum()
    return cols if excess <= np.min(cross - row_min) else None


def _split_rule(pred: np.ndarray, values: np.ndarray, sigma: np.ndarray) -> None:
    """The split rule, in place: the values that branches take fresh
    (predicted real, now non-real; spectrum.is_real) go in canonical_order
    within each conjugate family, Im > 0 to the lower branch index."""
    fresh = np.flatnonzero(is_real(pred) & ~is_real(values[sigma]))
    z = values[sigma[fresh]]
    for fam in _components(same_value(z[:, None], z.conj()))[0]:
        b = fresh[fam]
        sigma[b] = sigma[b][canonical_order(z[fam])]


def match_step(prev: Spectrum, next_: Spectrum):
    """Permutation sigma minimizing sum |lambda_prev[b] - lambda_next[sigma(b)]|^2
    over the branches b of one exact block (see _assign), then _split_rule.

    Returns (sigma, info).  info['tie_groups'] lists the groups of branches
    left tied (kind 'unresolved'): swapping two of them costs within TIE_REL
    of the optimum, and they are neither one value both before and after
    (spectrum.same_value) nor conjugate partners (a split or a rejoin).
    A step that _assign cannot prove is one group of every branch (kind
    'unproved'), each taking its nearest value left, least displaced first."""
    wp, wn = prev.eigenvalues, next_.eigenvalues
    diff = np.subtract.outer(wp, wn)
    cost = diff.real**2 + diff.imag**2
    sigma = _assign(wp, wn, cost)
    if unproved := sigma is None:
        sigma, free = np.empty(len(wp), dtype=int), np.ones(len(wp), dtype=bool)
        for b in cost.min(axis=1).argsort(kind="stable"):
            sigma[b] = np.flatnonzero(free)[cost[b, free].argmin()]
            free[sigma[b]] = False
    _split_rule(wp, wn, sigma)  # for every route of _assign
    cs = cost.take(sigma, axis=1)
    d = cs.diagonal()
    info = {"cost": float(d.sum()), "tie_groups": [
        {"branches": tuple(range(len(wp))), "kind": "unproved"}] if unproved else []}
    # Swap ties: exchanging the assignments of two branches raises the cost
    # (c_swp >= c_now at the optimum) by at most TIE_REL of c_now + c_swp.
    # The mask is symmetric with a true diagonal, so counts show pairs.
    tie = (1 - TIE_REL) * (cs + cs.T) <= (1 + TIE_REL) * np.add.outer(d, d)
    if not unproved and np.count_nonzero(tie) > len(wp):
        # no tie: a swap of two branches that are one value before and after
        # (the |m| >= 1 pairs about a tilted sphere gradient; zero costs), or
        # of conjugate partners (the split rule, or _closed_form's rejoin)
        i, j = np.nonzero(tie)
        wns = wn[sigma]
        one = same_value(wp[i], wp[j]) & same_value(wns[i], wns[j])
        for w in (wp, wns):
            one |= ~is_real(w[i]) & same_value(w[i], w[j].conj())
        tie[i, j] = ~one
        # that clears the diagonal: walk only the branches tied to another
        tied = np.flatnonzero(tie.any(axis=1))
        for comp in _components(tie[np.ix_(tied, tied)])[0]:
            info["tie_groups"].append({"branches": tuple(int(b) for b in tied[comp]),
                                       "kind": "unresolved"})
    return sigma, info


@dataclass
class _Track:
    """One distinct exact block: its modes ix (its branches), the modes of all
    blocks sharing its result (ix, then its twins), its real form (lam, K;
    see spectrum._blocks), the second-order coefficient w of each branch
    (_curvatures), whether its steps are labelled by order (_ranked,
    _by_order) and its solved rows by gbar, not yet on the grid."""

    ix: np.ndarray
    copies: list
    lam: np.ndarray
    K: np.ndarray
    w: np.ndarray
    ranked: bool
    rows: dict = field(default_factory=dict)


def _curvatures(lam: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Branch j of a degenerate class c of lam (spectrum._degenerate_classes)
    is lam_c - gbar^2 w_j + O(gbar^4) (Kato, ch. II): K couples no two
    members of c (B couples n only to n +- 1), so w are the eigenvalues of
    the real symmetric W_c = K[c, r] diag(1 / (lam_c - lam_r)) K[c, r]^T over
    the rest r of the block, largest first in branch order (the lower branch
    takes the smaller value).  0 outside a class."""
    cid, w = _degenerate_classes(lam), np.zeros(len(lam))
    for c in range(cid.max() + 1):
        cls = cid == c
        Kc = K[np.ix_(cls, ~cls)]
        w[cls] = np.linalg.eigvalsh((Kc / (lam[cls][0] - lam[~cls])) @ Kc.T)[::-1]
    return w


def _ranked(mat: OperatorMatrices, lam: np.ndarray) -> bool:
    """Whether a block is labelled by order (_by_order): it has no
    degenerate class at gbar = 0 and is not a block of the dense cylinder,
    a Kronecker sum whose real values cross."""
    return mat.basis.geometry != "cylinder" and not (_degenerate_classes(lam) >= 0).any()


def _by_order(target: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """Index into values (real ones ascending, as a solve returns them) of
    each target (a branch's prediction) by the order rules, or None where
    they do not apply.

    Real values (Im exactly 0) go in order to the real targets sorted by
    real part (a target's Im adds the same cost to each real value).  Each
    non-real value takes its strictly nearest non-real target, no two the
    same; targets left over (a rejoin) join the real ones, and the stable
    sort gives the lower of the pair, whose real parts are equal, the
    smaller value.  At a split each non-real target takes its strictly
    nearest non-real value, and the two left over, an exact conjugate pair
    x +- iy equally far from every real target, go to the adjacent two of
    least total cost (of a < b < c, a, b or b, c cost no more than a, c),
    Im > 0 to the lower branch index (_split_rule).  A step with neither
    forms only the costs between non-real values and targets."""
    tr, vr = target.imag == 0, values.imag == 0
    cols = np.empty(len(target), dtype=int)
    rt, rv = tr.nonzero()[0], vr.nonzero()[0]
    split = len(rt) > len(rv)
    if len(rt) < len(target) or split:
        ct, cv = (~tr).nonzero()[0], (~vr).nonzero()[0]
        d = target[ct, None] - values[cv] if split else values[cv, None] - target[ct]
        sub = d.real**2 + d.imag**2
        near = sub.argmin(axis=1)
        if np.count_nonzero(sub <= sub.min(axis=1, keepdims=True)) != len(sub) \
                or len(set(near.tolist())) != len(sub):
            return None  # a row without a strict minimum, or two sharing one
        if split:
            cols[ct], pair = cv[near], np.delete(cv, near)
            if len(pair) != 2 or values[pair[0]] != values[pair[1]].conjugate():
                return None
        else:
            cols[ct[near]] = cv
            if len(ct) > len(cv):  # a rejoin: the targets left over turn real
                rt = np.sort(np.r_[rt, np.delete(ct, near)])
    rt = rt[target.real[rt].argsort(kind="stable")]
    if split:  # the pair to the two adjacent targets of least total cost
        d = np.subtract.outer(target[rt], values[np.r_[rv, pair[0]]])
        c, i = d.real**2 + d.imag**2, np.arange(len(rv))  # c[:, -1]: the pair's
        w, a, b = c[:, -1], c[i, i], c[i + 2, i]
        k = np.argmin(np.r_[0, np.cumsum(a)] + w[:-1] + w[1:]
                      + np.r_[np.cumsum(b[::-1])[::-1], 0])
        cols[rt] = np.r_[rv[:k], pair, rv[k:]]
        _split_rule(target, values, cols)
    else:
        cols[rt] = rv
    return cols


def _step(g: float, pred: np.ndarray, values: np.ndarray, ranked: bool, copies=()):
    """(sigma, tie groups) of one block's step to values at g: the order
    rules (_by_order) where the block is labelled by order (_ranked) and
    they apply, else match_step, its groups named by each copy's modes."""
    sigma = _by_order(pred, values) if ranked else None
    if sigma is not None:
        return sigma, []
    sigma, info = match_step(Spectrum(g, pred), Spectrum(g, values))
    return sigma, [dict(tie, branches=tuple(int(ix[b]) for b in tie["branches"]))
                   for ix in copies for tie in info["tie_groups"]]


def _tracks(mat: OperatorMatrices, B: np.ndarray, n: int) -> list[_Track]:
    """One tracker per distinct exact block that holds a branch below n, in
    itself or in a twin: blocks are ordered by their smallest mode, so a
    block's first mode is the lowest of all its copies."""
    blocks = _blocks(mat.lam, B)
    return [_Track(ix, [jx for jx, t, *_ in blocks if t == k], lam_b, K,
                   _curvatures(lam_b, K), _ranked(mat, lam_b))
            for k, (ix, twin, lam_b, K, _) in enumerate(blocks) if twin == k and ix[0] < n]


def run_sweep(mat: OperatorMatrices, B: np.ndarray, g_max: float,
              step: float = 0.05, n_branches: int | None = None) -> BranchSweep:
    """Track eigenvalue branches from gbar = 0 to g_max.

    Only the distinct blocks holding a branch below n_branches (themselves
    or through a twin) are solved; every other branch's column is NaN on
    the whole grid.  None tracks every branch; a value outside [1, mat.N]
    raises ValueError.

    When the next pending gbar has no solved row, one _solve_block call
    solves the pending points from it on, up to one chunk (a refinement
    midpoint alone).  Predictions are a slope through the last two points
    g0 <= g1 (g0 = g1 = 0 on the first step), whose real values bend by
    -w (gbar - g1)(gbar - g0) (see _curvatures); no eigenvector is solved.
    Each block steps by _step.  A step whose tracked values move further
    than REFINE_DISPLACEMENT, or leave a tie in any tracked block, is
    bisected for all of them down to MIN_STEP; leftover ties are logged as
    ambiguities.
    """
    if not (0 < g_max < np.inf and 0 < step < np.inf):
        raise ValueError("g_max and step must be positive and finite")
    n = mat.N if n_branches is None else n_branches
    if not 1 <= n <= mat.N:
        raise ValueError(f"n_branches={n} is outside [1, {mat.N}]")
    pending = list(np.linspace(0.0, g_max, int(np.ceil(g_max / step)) + 1))
    tracks = _tracks(mat, B, n)
    on = np.concatenate([ix for t in tracks for ix in t.copies])  # tracked columns
    first = np.full(mat.N, np.nan, dtype=complex)
    first[on] = mat.lam[on]
    sweep_g, rows = [pending.pop(0)], [first]
    refinements, ambiguities = [], []
    w = np.zeros(mat.N)  # each basis mode's second-order coefficient
    for t in tracks:
        w[np.ravel(t.copies)] = np.tile(t.w, len(t.copies))
    while pending:
        g_next = pending.pop(0)
        pred = rows[-1]  # linear extrapolation from the last two points
        if len(rows) > 1:
            slope = (pred - rows[-2]) / (sweep_g[-1] - sweep_g[-2])
            pred = pred + slope * (g_next - sweep_g[-1])
        if w.any():  # a conjugate pair's prediction stays exactly conjugate
            bend = w * ((g_next - sweep_g[-1]) * (g_next - sweep_g[-2:][0]))
            pred = np.where(is_real(pred), pred - bend, pred)
        row, unresolved = np.full(mat.N, np.nan, dtype=complex), []
        for t in tracks:  # values only, matched in branch order
            if g_next not in t.rows:
                todo = [g_next]
                for g in pending[:_chunk_len(len(t.ix)) - 1]:
                    if g in t.rows:
                        break
                    todo.append(g)
                t.rows.update(zip(todo, _solve_block(t.lam, t.K, np.array(todo), True)[0]))
            values = t.rows[g_next]
            sigma, ties = _step(g_next, pred[t.ix], values, t.ranked, t.copies)
            unresolved += ties
            for ix in t.copies:  # report basis modes, not the block's branches
                row[ix] = values[sigma]
        max_disp = float(np.max(np.abs(rows[-1][on] - row[on])))
        if (unresolved or max_disp > REFINE_DISPLACEMENT) and \
                g_next - sweep_g[-1] > 2 * MIN_STEP:
            g_mid = 0.5 * (sweep_g[-1] + g_next)
            refinements.append({"inserted": g_mid, "reason": "tie" if unresolved
                                else "displacement", "max_disp": max_disp})
            pending[:0] = [g_mid, g_next]
            continue
        ambiguities += [{"g": g_next, **tie, "note": "cost-minimal assignment kept"
                         if tie["kind"] == "unresolved" else "nearest-first assignment kept"}
                        for tie in sorted(unresolved, key=lambda tie: tie["branches"])]
        for t in tracks:
            del t.rows[g_next]
        sweep_g.append(g_next)
        rows.append(row)

    return BranchSweep(
        g_grid=np.array(sweep_g), eigenvalues=np.vstack(rows),
        block=block_labels(mat, B), refinements=refinements, ambiguities=ambiguities,
        metadata={"geometry": mat.basis.geometry, "N": mat.N, "step": step,
                  "min_step": MIN_STEP,
                  "tiebreak": "per exact block: slope-predicted squared displacement; "
                              "Im>0 to the lower index at a split, the smaller value "
                              "at a rejoin; other ties bisected; a degenerate class "
                              "predicted by its second-order splitting"})
