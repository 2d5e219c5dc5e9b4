from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from btspec import basis as bas
from btspec import branchpoints as bp
from btspec import matrices as mx
from btspec import spectrum as sp
from btspec import sweep as sw


def test_match_identity():
    w = np.array([0.1, 1.2, 3.4], dtype=complex)
    s = sp.Spectrum(gbar=1.0, eigenvalues=w)
    sigma, info = sw.match_step(s, s)
    assert np.array_equal(sigma, [0, 1, 2])
    assert info["cost"] == 0.0


def _assignment_cases():
    rng = np.random.default_rng(7)
    yield np.array([[3.5]])
    yield np.array([[0.0, 1.0], [1.0, 0.0]])
    yield np.array([[1.0, 0.0], [0.0, 1.0]])
    yield np.array([[1.0, 1.0], [0.0, 2.0]])  # row 0 has no strict minimum
    yield np.array([[0.0, 1.0], [0.0, 2.0]])  # both rows want column 0
    for n in (2, 3, 5, 16):
        for _ in range(100):
            c = rng.random((n, n))
            yield c
            yield -c  # an overlap matrix, negated
            near = 1 + c  # a permutation of small costs: the usual step
            near[np.arange(n), rng.permutation(n)] = rng.random(n)
            yield near
            yield rng.integers(0, 3, (n, n)).astype(float)  # integer ties
            yield -rng.integers(0, 3, (n, n)).astype(float)
            yield _fresh_pair_cost(rng, n)
            tied = near.copy()  # a second exact minimum in each of two rows
            for i in rng.choice(n, min(n, 2), replace=False):
                tied[i, rng.integers(n)] = tied[i].min()
            yield tied


def _fresh_pair_cost(rng, n):
    """Squared distances from n real predictions to values of which two
    are a fresh conjugate pair x +- iy near two neighbouring predictions:
    both of those rows have two exactly equal minima."""
    pred = np.sort(rng.random(n)) * n
    vals = (pred + 1e-3 * rng.standard_normal(n)).astype(complex)
    k = rng.integers(n - 1)
    x, y = 0.5 * (vals[k].real + vals[k + 1].real), 1e-3 * rng.random()
    vals[k], vals[k + 1] = x + 1j * y, x - 1j * y
    diff = np.subtract.outer(pred, vals[rng.permutation(n)])
    return diff.real**2 + diff.imag**2


def test_assignment_early_exit_matches_solver(monkeypatch):
    """Both shortcuts return exactly linear_sum_assignment's columns: a
    strict minimum per row in distinct columns, and each row in turn taking
    the lowest free column among its exact minima.  More than 400 cases
    take each route: the strict shortcut, the exact-tie shortcut (without
    scipy.optimize) and the solver."""
    import scipy.optimize
    solved = []

    def counted(cost):
        solved.append(cost)
        return linear_sum_assignment(cost)
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    kinds = {"strict": 0, "ties": 0, "solver": 0}
    for cost in _assignment_cases():
        before = len(solved)
        cols = sw._hungarian(cost)
        assert np.array_equal(cols, linear_sum_assignment(cost)[1]), cost
        low = cost == cost.min(axis=1, keepdims=True)
        strict = np.count_nonzero(low) == len(set(cost.argmin(axis=1))) == len(cost)
        kinds["strict" if strict else "solver" if len(solved) > before else "ties"] += 1
    assert min(kinds.values()) > 400, kinds


def test_cylinder_factor_sweep_leaves_out_scipy_optimize():
    """The tuned cylinder sweep of the benchmark (N=200), run on its disk and
    interval factors, has no contended assignment: it finds its ten points
    without loading scipy.optimize.  (At N=40 and N=100 some steps contend.)"""
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    code = ("import sys, numpy as np\n"
            "from btspec import basis, branchpoints, matrices\n"
            "mat = matrices.assemble_operator(basis.build_cylinder_basis(200))\n"
            "sweep, points = branchpoints.cylinder_branch_points(\n"
            "    mat, np.deg2rad(78.23931266613657), 19.2, step=0.1, n_branches=13)\n"
            "print(len(points), 'scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["10", "False"]


def test_match_conjugate_pair_formation():
    prev = sp.Spectrum(gbar=5.0, eigenvalues=np.array([2.4, 2.6, 9.0], dtype=complex))
    nxt = sp.Spectrum(gbar=5.05, eigenvalues=np.array([2.5 - 0.2j, 2.5 + 0.2j, 9.01 + 0j]))
    sigma, info = sw.match_step(prev, nxt)
    # Im > 0 goes to the lower branch index; the tie is recorded
    assert nxt.eigenvalues[sigma[0]].imag > 0
    assert nxt.eigenvalues[sigma[1]].imag < 0
    kinds = [t["kind"] for t in info["tie_groups"]]
    assert "conjugate_pair" in kinds


def test_match_through_synthetic_crossing():
    """Two decoupled real branches cross; a third couples weakly to one of
    them.  Identities must follow the analytic continuation, verified against
    the closed-form eigenvalues of the 2x2 block + decoupled mode."""
    eps = 0.02

    def exact(t):
        tr = t + 3.0
        disc = np.sqrt((3.0 - t) ** 2 + 4 * eps**2)
        lam_lo = 0.5 * (tr - disc)   # continues the branch starting near t
        lam_hi = 0.5 * (tr + disc)   # continues the branch starting near 3
        return np.array([lam_lo, 1.0 - t, lam_hi])

    def matrix(t):
        return np.array([[t, 0.0, eps], [0.0, 1.0 - t, 0.0], [eps, 0.0, 3.0]],
                        dtype=complex)

    ts = np.linspace(0.0, 1.0, 101)
    prev_vals = np.linalg.eigvals(matrix(0.0))
    prev_vals = prev_vals[np.argsort(prev_vals.real)]
    rows = [prev_vals]
    for t in ts[1:]:
        w = np.linalg.eigvals(matrix(t))
        w = w[np.argsort(w.real)]
        if len(rows) >= 2:
            pred = 2 * rows[-1] - rows[-2]
        else:
            pred = rows[-1]
        sigma, _ = sw.match_step(sp.Spectrum(gbar=t, eigenvalues=pred),
                                 sp.Spectrum(gbar=t, eigenvalues=w))
        rows.append(w[sigma])
    final = rows[-1]
    assert np.max(np.abs(final - exact(1.0))) < 1e-10
    # brute force: of all 6 permutations at t=1, the tracker picked the one
    # matching the analytic continuation
    import itertools
    w1 = np.linalg.eigvals(matrix(1.0))
    best = min(itertools.permutations(range(3)),
               key=lambda p: np.sum(np.abs(w1[list(p)] - exact(1.0)) ** 2))
    assert np.max(np.abs(w1[list(best)] - final)) < 1e-12


def test_sweep_grid_and_permutation_validity():
    b = bas.build_sphere_basis(30)
    m = mx.assemble_sphere(b)
    B = mx.gradient_matrix_sphere(m, 0.0, 0.0)
    s = sw.run_sweep(m, B, 3.0, step=0.1)
    assert s.g_grid[0] == 0.0 and s.g_grid[-1] == 3.0
    assert np.all(np.diff(s.g_grid) > 0)
    # every row is a permutation of the full spectrum, bit for bit, although
    # the tracker solves its blocks itself and some of them with vectors
    for g, row in zip(s.g_grid[1:], s.eigenvalues[1:]):
        w = sp.diagonalize(m, B, g, eigvals_only=True).eigenvalues
        assert np.array_equal(np.sort(row), np.sort(w))
    # branch 0 starts at the constant mode and rises
    assert s.eigenvalues[0, 0] == 0.0
    assert s.eigenvalues[-1, 0].real > 0.1


def test_sweep_branch1_hits_known_values(sphere60):
    m, B = sphere60
    s = sw.run_sweep(m, B, 16.0, step=0.05)
    i2 = int(np.argmin(np.abs(s.g_grid - 2.0)))
    assert abs(s.eigenvalues[i2, 0] - 0.188) < 2e-3
    i15 = int(np.argmin(np.abs(s.g_grid - 15.0)))
    lam1 = s.eigenvalues[i15, 0]
    assert abs(lam1.real - 4.67) < 0.02
    assert abs(lam1.imag - 6.68) < 0.03  # Im > 0 on the lower index
    # real and increasing up to the first branch point near 5.62
    below = s.eigenvalues[s.g_grid < 5.6, 0]
    assert np.max(np.abs(below.imag)) < 1e-9
    assert np.all(np.diff(below.real) > -1e-12)
    # past the merge, branches 0 and 1 share the real part
    past = s.g_grid > 5.7
    assert np.max(np.abs(s.eigenvalues[past, 0].real
                         - s.eigenvalues[past, 1].real)) < 1e-9


def test_crossing_keeps_identities(sphere60):
    """Near gbar ~ 9.3 the doubly degenerate |m|=1 pair crosses the real
    m=0 branch without merging; no imaginary parts appear and the m=0 branch
    still matches the reduced operator afterwards."""
    m, B = sphere60
    s = sw.run_sweep(m, B, 10.0, step=0.05)
    # branches 4,5,6 (0-based) descend from 11.17: n = 2 with m = 0, then
    # the m = 1 cos and sin modes
    win = (s.g_grid > 8.8) & (s.g_grid < 9.8)
    assert np.max(np.abs(s.eigenvalues[win][:, [4, 5, 6]].imag)) < 1e-9
    # the m = 1 cos/sin pair stays exactly degenerate through the crossing
    assert np.max(np.abs(s.eigenvalues[win][:, 5] - s.eigenvalues[win][:, 6])) < 1e-8
    # after the crossing the m=0 branch agrees with the reduced operator
    m0 = [i for i, ix in enumerate(m.basis.indices) if ix.m == 0]
    red = mx.operator_for("sphere_reduced", len(m0))
    Br = mx.gradient_matrix(red)
    w_red = sp.diagonalize(red, Br, 10.0, eigvals_only=True).eigenvalues
    lam_tracked = s.eigenvalues[-1, 4]
    assert np.min(np.abs(w_red - lam_tracked)) < 1e-8


def test_tilted_sphere_matches_z_sweep(sphere60):
    """A tilted gradient is a rotation of z: one block instead of one per (m, l),
    with the degenerate m-families of gbar = 0 inside it.  Tracking them by
    eigenvector content alone must give the z-sweep branches and points."""
    m, Bz = sphere60
    Bt = mx.gradient_matrix_sphere(m, 0.3, 0.2)
    assert len(set(sp.block_labels(m, Bt))) == 1
    sz = sw.run_sweep(m, Bz, 16.0, step=0.05)
    st = sw.run_sweep(m, Bt, 16.0, step=0.05)
    gz = np.round(sz.g_grid, 12)
    common = np.intersect1d(gz, np.round(st.g_grid, 12))
    assert len(common) >= 321
    iz = np.searchsorted(gz, common)
    it = np.searchsorted(np.round(st.g_grid, 12), common)
    assert np.max(np.abs(st.eigenvalues[it, :17] - sz.eigenvalues[iz, :17])) < 1e-8
    pz = bp.find_branch_points(m, Bz, sz, max_branch=17)
    pt = bp.find_branch_points(m, Bt, st, max_branch=17)
    assert len(pz) == len(pt) == 3
    for a, b in zip(pz, pt):
        assert abs(a.g_star - b.g_star) < 1e-6
        assert a.order == b.order
        # conditioning is measured per degenerate class, so it does not
        # depend on the mixture of the tilted block's degenerate pairs
        for key in ("vv_min", "min_principal_angle"):
            assert b.meta[key] == pytest.approx(a.meta[key], rel=1e-3), (a, key)


def _eig_orders(monkeypatch):
    """Orders of the LAPACK eigenvector solves made from now on."""
    orders = []
    geev = sp._geev

    def counted(M, vectors):
        if vectors:
            orders.append(len(M))
        return geev(M, vectors)

    monkeypatch.setattr(sp, "_geev", counted)
    return orders


def test_tilted_sphere_chains_few_eigenvectors(sphere60, monkeypatch):
    """Swapping two exactly degenerate branches (the |m| >= 1 pairs about the
    gradient axis, inside the tilted block) changes no value, so it is no tie: the summed order of the
    eigenvector solves stays within the whole-spectrum tracker's 2838."""
    m, _ = sphere60
    Bt = mx.gradient_matrix_sphere(m, 0.3, 0.2)
    orders = _eig_orders(monkeypatch)
    sw.run_sweep(m, Bt, 16.0, step=0.05)
    assert 0 < sum(orders) <= 2838


def test_sweep_solve_counts_by_block_order(sphere60, monkeypatch):
    """The z sphere sweep at N=60 to gbar = 12 makes exactly these block
    solves, by (block order, with vectors): the counts of the complex
    solver that the real form replaced, so the real form is faster per
    solve and does not solve less."""
    m, B = sphere60
    calls = Counter()
    geev = sp._geev

    def counted(M, vectors):
        calls[len(M), vectors] += 1
        return geev(M, vectors)

    monkeypatch.setattr(sp, "_geev", counted)
    sw.run_sweep(m, B, 12.0)
    assert dict(calls) == {
        (1, False): 263, (2, False): 263, (3, False): 263, (5, False): 263,
        (7, False): 263, (9, False): 263, (12, False): 248,
        (1, True): 1, (2, True): 1, (3, True): 1, (5, True): 1, (7, True): 1,
        (9, True): 3, (12, True): 34}


def test_z_sphere_solves_only_tied_blocks_with_eigenvectors(sphere60, monkeypatch):
    """Only a block with a tie is solved with eigenvectors: the summed order
    of the eigenvector solves stays within the whole-spectrum tracker's 1443,
    and no solve is wider than the widest block."""
    m, B = sphere60
    orders = _eig_orders(monkeypatch)
    sw.run_sweep(m, B, 16.0, step=0.05)
    assert 0 < sum(orders) <= 1443
    assert max(orders) <= max(len(ix) for ix, *_ in sp._blocks(m.lam, B))


def test_rejoining_pair_gives_im_positive_the_smaller_value():
    """A conjugate pair rejoining the real axis is a cost tie that overlaps
    cannot break; the Im > 0 branch takes the smaller real value, whatever
    the order of the values, and the step stays unresolved (bisected)."""
    lo, hi = 5 - 1e-4, 5 + 1e-4
    for pair in ([5 + 1e-4j, 5 - 1e-4j], [5 - 1e-4j, 5 + 1e-4j]):
        prev = sp.Spectrum(gbar=1.0, eigenvalues=np.array(pair))
        for vals in ([lo, hi], [hi, lo]):
            nxt = sp.Spectrum(gbar=1.0, eigenvalues=np.array(vals, dtype=complex))
            sigma, info = sw.match_step(prev, nxt)
            want = [lo, hi] if pair[0].imag > 0 else [hi, lo]
            assert nxt.eigenvalues[sigma].real.tolist() == want
            assert [g["kind"] for g in info["tie_groups"]] == ["unresolved"]


def test_overlap_resolves_a_cost_tie_on_a_cos_block(sphere60):
    """On the m = 1 cos block of the z sphere (its sin twin copies it) the
    overlap form is the block's own bilinear product: a cost tie is resolved
    by eigenvector continuity, and stays unresolved without eigenvectors."""
    m, B = sphere60
    t = next(t for t in sw._tracks(m, B) if m.basis.indices[t.ix[0]].m == 1)
    assert len(t.copies) == 2
    assert [m.basis.indices[ix[0]].l for ix in t.copies] == [1, 2]
    a, b = t.solve(2.0, False), t.solve(2.01, False)
    assert np.all(np.abs(b.eigenvalues[:2].imag) < 1e-12)
    # the previous branches 0 and 1 carry the vectors of rows 1 and 0, and
    # both are predicted at the midpoint of the next two values: a cost tie
    swap = np.arange(len(t.ix))
    swap[:2] = [1, 0]
    pred = b.eigenvalues.copy()
    pred[:2] = b.eigenvalues[:2].mean()
    prev = sp.Spectrum(gbar=2.01, eigenvalues=pred, X=a.X[swap])
    sigma, info = sw.match_step(prev, b)
    assert [g["kind"] for g in info["tie_groups"]] == ["overlap_resolved"]
    assert np.array_equal(sigma, swap)
    _, info = sw.match_step(sp.Spectrum(gbar=2.01, eigenvalues=pred), b)
    assert [g["kind"] for g in info["tie_groups"]] == ["unresolved"]


def test_ambiguity_names_basis_modes_of_block_and_twin(sphere60, monkeypatch):
    """An unresolved tie of one block's branches 0 and 2 at gbar = 0.05 is
    reported as the basis modes of the block and of its twin, which copies
    its result."""
    m, B = sphere60
    t = next(t for t in sw._tracks(m, B) if m.basis.indices[t.ix[0]].m == 1)
    assert sum(len(u.ix) == len(t.ix) for u in sw._tracks(m, B)) == 1
    match = sw.match_step

    def tied(prev, next_):
        sigma, info = match(prev, next_)
        if len(prev.eigenvalues) == len(t.ix) and next_.gbar == 0.05:
            info["tie_groups"].append({"branches": (0, 2), "kind": "unresolved"})
        return sigma, info

    monkeypatch.setattr(sw, "match_step", tied)
    s = sw.run_sweep(m, B, 0.1, step=0.05)
    # the tie at 0.05 is bisected down to MIN_STEP, then kept and logged
    assert s.refinements and all(r["reason"] == "tie" for r in s.refinements)
    want = sorted((int(ix[0]), int(ix[2])) for ix in t.copies)
    assert len(want) == 2
    assert [(a["g"], a["branches"]) for a in s.ambiguities] == [(0.05, w) for w in want]


def test_merge_clusters_respect_m(sphere333_sweep, sphere333):
    m, _ = sphere333
    sweep, points = sphere333_sweep
    for p in points:
        ms = {abs(m.basis.indices[b].m) for b in p.branches}
        assert len(ms) == 1, f"merge at {p.g_star} mixes |m| values {ms}"


def test_refinement_stability_under_step_halving(disk60):
    m, B = disk60
    s1 = sw.run_sweep(m, B, 5.0, step=0.05)
    s2 = sw.run_sweep(m, B, 5.0, step=0.025)
    # compare on the common grid away from the branch point at 3.76
    common = [g for g in s1.g_grid if g in set(np.round(s2.g_grid, 12))
              and abs(g - 3.7603) > 0.2]
    for g in common:
        v1 = s1.values_at(g)[:10]
        v2 = s2.values_at(g)[:10]
        # labels inside numerically indistinguishable clusters (split below
        # 1e-5 relative) may differ; the curves themselves must agree, and a
        # genuine mis-assignment of separated branches would show up at the
        # size of their gap
        tol = 1e-5 * np.maximum(1.0, np.abs(v1))
        assert np.all(np.abs(v1 - v2) < 2 * tol)


def test_sweep_rejects_bad_range(sphere60):
    m, B = sphere60
    with pytest.raises(ValueError):
        sw.run_sweep(m, B, -1.0)


def test_sweep_metadata_documents_tiebreak(disk60):
    m, B = disk60
    s = sw.run_sweep(m, B, 1.0, step=0.1)
    assert "overlap" in s.metadata["tiebreak"]
    assert s.metadata["geometry"] == "disk"
