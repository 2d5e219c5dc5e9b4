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
ones (Heiss), so every step of every block is labelled by the order rules
(_step), and by nothing else: a step they decline is bisected, and one
still declined at MIN_STEP raises ConvergenceError.  The dense cylinder,
whose real values do cross, is swept on its factors
(branchpoints.cylinder_branch_points), and a tilted sphere takes the z
sweep's labels (_z_labelled).  No eigenvector is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DomainError, NumericalError
from .matrices import OperatorMatrices, gradient_matrix
from .spectrum import (Partition, _chunk_len, _degenerate_classes, _solve_block, canonical_order,
                       partition, same_value)

# A step is bisected, down to MIN_STEP, when a labelled value moves further
# than REFINE_DISPLACEMENT or the order rules decline it.
MIN_STEP = 1e-5
REFINE_DISPLACEMENT = 0.5
MAX_VALUE = 1e150  # squared displacements, and their sums, stay finite below
# A sweep inserts at most MAX_REFINEMENTS points per point of its starting
# grid, else NumericalError; the README's sweeps, in steps of 0.05 to 2,
# insert fewer than 5.
MAX_REFINEMENTS = 64


@dataclass
class BranchSweep:
    """Branch-ordered eigenvalues lambda_j(gbar) on an adaptively refined grid.

    eigenvalues[i, j] is branch j at g_grid[i]; branch j starts at basis mode
    j and stays in its exact block block[j], and is NaN on every row when
    that block was not tracked.  refinements logs the adaptive insertions,
    ambiguities a tilted sphere's 'transfer' steps (run_sweep); every other
    step is labelled by the order rules.
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


@dataclass
class _Track:
    """One distinct exact block: its modes ix (its branches), the modes of all
    blocks sharing its result (ix, then its twins), its real form (lam, K;
    see spectrum.Partition) and its solved rows by gbar, not yet on the grid."""

    ix: np.ndarray
    copies: list
    lam: np.ndarray
    K: np.ndarray
    rows: dict = field(default_factory=dict)


def _refuse_dense_cylinder(mat: OperatorMatrices) -> None:
    """DomainError for the dense cylinder: its real values cross."""
    if mat.basis.geometry == "cylinder":
        raise DomainError("the dense cylinder operator is not swept: its real values cross; "
                          "use branchpoints.cylinder_branch_points, which sweeps its factors")


def _z_labelled(mat: OperatorMatrices, part: Partition) -> bool:
    """Whether the operator's branches take the z sweep's labels (_by_rank):
    a sphere with a degenerate class at gbar = 0 in a block, which only a
    tilted gradient has, a rotation of the z sphere on the same basis."""
    return mat.basis.geometry == "sphere" and any(
        (_degenerate_classes(lam_b) >= 0).any()
        for _, _, lam_b, _, _ in part.blocks if lam_b is not None)


def _by_rank(z: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index into values (one block's, at one gbar) of the branch of each
    mode of the block, whose z-sweep value is z: the same rank in
    canonical_order."""
    cols = np.empty(len(z), dtype=int)
    cols[canonical_order(z)] = canonical_order(values)
    return cols


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
    Im > 0 to the lower branch index."""
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
        cols[np.sort(rt[k:k + 2])] = pair[np.argsort(-values[pair].imag)]
    else:
        cols[rt] = rv
    return cols


def _step(g: float, pred: np.ndarray, values: np.ndarray) -> np.ndarray | None:
    """Each branch's index into one block's values at g by the order rules
    (_by_order), or None where they decline.  NumericalError unless every
    prediction and value is within MAX_VALUE in modulus (so finite)."""
    if not (np.abs(pred).max() <= MAX_VALUE and np.abs(values).max() <= MAX_VALUE):
        raise NumericalError(f"a prediction or a value at gbar={g} is not finite or exceeds "
                             f"{MAX_VALUE:g}, where squared displacements overflow")
    return _by_order(pred, values)


def _tracks(part: Partition, n: int) -> list[_Track]:
    """One tracker per distinct exact block that holds a branch below n, in
    itself or in a twin: blocks are ordered by their smallest mode, so a
    block's first mode is the lowest of all its copies."""
    blocks = part.blocks
    return [_Track(ix, [jx for jx, t, *_ in blocks if t == k], lam_b, K)
            for k, (ix, twin, lam_b, K, _) in enumerate(blocks) if twin == k and ix[0] < n]


def run_sweep(mat: OperatorMatrices, B: np.ndarray, g_max: float,
              step: float = 0.05, n_branches: int | None = None) -> BranchSweep:
    """Track eigenvalue branches from gbar = 0 to g_max.

    Only the distinct blocks holding a branch below n_branches (themselves
    or through a twin) are solved; every other branch's column is NaN on
    the whole grid.  None tracks every branch; a value outside [1, mat.N]
    raises ValueError, and a dense cylinder DomainError.

    When the next pending gbar has no solved row, one _solve_block call
    solves the pending points from it on, up to one chunk (a refinement
    midpoint alone).  Each block steps by _step from a slope prediction
    through the last two points (the last point alone on the first step).
    A step whose tracked values move further than REFINE_DISPLACEMENT, or
    that the order rules decline in any tracked block, is bisected for all
    of them down to MIN_STEP; a block still declined there raises
    ConvergenceError naming gbar and the modes of the block and its twins.
    A refinement beyond MAX_REFINEMENTS per starting grid point raises
    NumericalError.

    A tilted sphere (_z_labelled) is swept about z (gradient_matrix(mat),
    every block), whose grid, refinements and ambiguities it keeps; each of
    its tracked blocks is solved stacked on that grid, and branch j takes
    the value of the same rank as its z value (_by_rank).  A rank pair that
    is not one value is logged, not bisected: a 'transfer' ambiguity.
    """
    _refuse_dense_cylinder(mat)
    if not (0 < g_max < np.inf and 0 < step < np.inf):
        raise ValueError("g_max and step must be positive and finite")
    n = mat.N if n_branches is None else n_branches
    if not 1 <= n <= mat.N:
        raise ValueError(f"n_branches={n} is outside [1, {mat.N}]")
    part = partition(mat.lam, B)
    tracks = _tracks(part, n)
    if _z_labelled(mat, part):
        z = run_sweep(mat, gradient_matrix(mat), g_max, step)
        rows, amb = np.full(z.eigenvalues.shape, np.nan, dtype=complex), list(z.ambiguities)
        for t in tracks:
            values = _solve_block(t.lam, t.K, z.g_grid[1:], True)[0]
            for ix in t.copies:
                rows[0, ix] = mat.lam[ix]
                for i, (zi, wi) in enumerate(zip(z.eigenvalues[1:, ix], values), 1):
                    rows[i, ix] = wi[_by_rank(zi, wi)]
                    if not (one := same_value(zi, rows[i, ix])).all():
                        amb.append({"g": z.g_grid[i], "branches": tuple(ix[~one].tolist()),
                                    "kind": "transfer", "note": "rank-paired value kept"})
        return replace(z, eigenvalues=rows, block=part.label,
                       ambiguities=sorted(amb, key=lambda a: (a["g"], a["branches"])))
    pending = list(np.linspace(0.0, g_max, int(np.ceil(g_max / step)) + 1))
    cap = MAX_REFINEMENTS * len(pending)
    on = np.concatenate([ix for t in tracks for ix in t.copies])  # tracked columns
    first = np.full(mat.N, np.nan, dtype=complex)
    first[on] = mat.lam[on]
    sweep_g, rows = [pending.pop(0)], [first]
    refinements = []
    while pending:
        g_next = pending.pop(0)
        pred = rows[-1]  # linear extrapolation from the last two points
        if len(rows) > 1:
            slope = (pred - rows[-2]) / (sweep_g[-1] - sweep_g[-2])
            pred = pred + slope * (g_next - sweep_g[-1])
        row, declined = np.full(mat.N, np.nan, dtype=complex), []
        for t in tracks:  # values only, matched in branch order
            if g_next not in t.rows:
                todo = [g_next]
                for g in pending[:_chunk_len(len(t.ix)) - 1]:
                    if g in t.rows:
                        break
                    todo.append(g)
                t.rows.update(zip(todo, _solve_block(t.lam, t.K, np.array(todo), True)[0]))
            values = t.rows[g_next]
            if (sigma := _step(g_next, pred[t.ix], values)) is None:
                declined.append([ix.tolist() for ix in t.copies])
                continue
            for ix in t.copies:  # report basis modes, not the block's branches
                row[ix] = values[sigma]
        # fmax skips the NaN columns of a declined block
        max_disp = float(np.fmax.reduce(np.abs(rows[-1][on] - row[on]), initial=0.0))
        if (declined or max_disp > REFINE_DISPLACEMENT) and g_next - sweep_g[-1] > 2 * MIN_STEP:
            if len(refinements) == cap:
                raise NumericalError(f"the sweep reached {cap} refinements, {MAX_REFINEMENTS} "
                                     f"per starting grid point, at gbar={g_next}")
            g_mid = 0.5 * (sweep_g[-1] + g_next)
            refinements.append({"inserted": g_mid, "reason": "tie" if declined
                                else "displacement", "max_disp": max_disp})
            pending[:0] = [g_mid, g_next]
            continue
        if declined:
            raise ConvergenceError(f"the order rules decline the step to gbar={g_next} at "
                                   f"MIN_STEP; basis modes of each such block, then of its "
                                   f"twins: {declined}")
        for t in tracks:
            del t.rows[g_next]
        sweep_g.append(g_next)
        rows.append(row)

    return BranchSweep(
        g_grid=np.array(sweep_g), eigenvalues=np.vstack(rows),
        block=part.label, refinements=refinements,
        metadata={"geometry": mat.basis.geometry, "N": mat.N, "step": step,
                  "min_step": MIN_STEP,
                  "tiebreak": "per exact block: the order rules against a slope "
                              "prediction, Im>0 to the lower index at a split, the "
                              "smaller value at a rejoin; steps they decline bisected; "
                              "a tilted sphere takes the z sweep's labels by rank"})

