from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def _sqdist(target, values):
    diff = np.subtract.outer(target, values)
    return diff.real**2 + diff.imag**2


@st.composite
def _steps(draw):
    """A matching step (prediction, values) of one of the shapes a sweep
    meets: all real and shuffled; real values with conjugate pairs; a fresh
    pair from two adjacent real predictions; a rejoining pair; a crossing;
    exact ties.  The values are in a random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["real", "pairs", "split", "rejoin", "crossing", "ties"]))
    pairs = 0 if kind == "real" else draw(st.integers(1 if kind == "rejoin" else 0, 3))
    real = draw(st.integers(2 if kind in ("split", "crossing") else int(not pairs), 10))
    x, y = rng.random(pairs) * max(real, 1), 0.1 + rng.random(pairs)
    target = np.r_[np.sort(rng.random(real)) * real, x + 1j * y, x - 1j * y]
    if kind == "ties":  # values on a coarse lattice: exact cost ties
        target = np.r_[rng.integers(0, 3, real), (x + 1j * y).round(), (x - 1j * y).round()]
        return target.astype(complex), target[rng.permutation(len(target))].astype(complex)
    moved = x + 1e-2 * rng.standard_normal(pairs) + 1j * (y + 1e-2 * rng.standard_normal(pairs))
    values = np.r_[target[:real] + 1e-2 * rng.standard_normal(real), moved, moved.conj()]
    k = rng.integers(max(real - 1, 1))
    if kind == "split":  # values k and k + 1 merge into x +- iy
        xs, ys = 0.5 * (values[k] + values[k + 1]).real, 0.05 * rng.random()
        values[k], values[k + 1] = xs + 1j * ys, xs - 1j * ys
    if kind == "rejoin":  # the first pair lands on the real axis
        values[real], values[real + pairs] = moved[0].real - 0.01, moved[0].real + 0.02
    if kind == "crossing":  # value k moves past prediction k + 1
        values[k] = target[k + 1].real + 0.1 * rng.random()
    return target.astype(complex), values[rng.permutation(len(values))].astype(complex)


def _optimum_is_unique(cost, cols):
    """Whether every other assignment costs more: each with one of the
    optimum's entries forbidden does."""
    best = cost[np.arange(len(cost)), cols].sum()
    for i in range(len(cost)):
        c = cost.copy()
        c[i, cols[i]] = np.inf
        r, k = linear_sum_assignment(c)
        if c[r, k].sum() <= best * (1 + 1e-9) + 1e-12:
            return False
    return True


def _check_assignment(cost, cols, ref):
    """cols is a permutation of least total cost (that of ref, scipy's),
    and ref itself where the optimum is unique."""
    n = len(cost)
    assert np.array_equal(np.sort(cols), np.arange(n))
    total, ref_total = cost[np.arange(n), cols].sum(), cost[np.arange(n), ref].sum()
    assert total == pytest.approx(ref_total, rel=1e-12, abs=1e-15)
    if len(cost) > 1 and _optimum_is_unique(cost, ref):
        assert np.array_equal(cols, ref)


@settings(max_examples=300, deadline=None)
@given(step=_steps())
def test_assign_is_least_squares(step):
    """_assign, and _closed_form wherever it answers, give a least-cost
    assignment: linear_sum_assignment's columns where the optimum is unique."""
    target, values = step
    cost = _sqdist(target, values)
    ref = linear_sum_assignment(cost)[1]
    _check_assignment(cost, sw._assign(target, values), ref)
    cols = sw._closed_form(target, values, cost)
    if cols is not None:
        _check_assignment(cost, cols, ref)


@pytest.mark.parametrize("target, values", [
    ([0, 1, 2, 3], [3.1, 0.1, 1.6, 2.6]),  # a crossing: 1 and 2 both want 1.6
    ([0, 1, 2, 3], [3.1, 0.2, 1.5 + 0.1j, 1.5 - 0.1j]),  # a fresh pair from 1, 2
    ([0, 1.5 + 0.1j, 1.5 - 0.1j, 3], [1.4, 1.6, 2.9, 0.1]),  # the pair rejoins
    ([5 + 0.1j, 5 - 0.1j, 0, 2], [5 - 0.11j, 5 + 0.11j, 1.2, 3.0]),  # 0 and 2 want 1.2
], ids=["crossing", "split", "rejoin", "pair_and_crossing"])
def test_closed_form_answers_contended_steps(target, values):
    """Steps without a strictly nearest value per target are answered by
    the rules, with scipy's columns."""
    target, values = np.asarray(target, complex), np.asarray(values, complex)
    cost = _sqdist(target, values)
    low = cost == cost.min(axis=1, keepdims=True)
    assert len(set(low.argmax(axis=1))) < len(cost) or np.count_nonzero(low) > len(cost)
    cols = sw._closed_form(target, values, cost)
    assert np.array_equal(cols, linear_sum_assignment(cost)[1])


def test_closed_form_declines_a_mixed_optimum():
    """Every target's nearest value lies in its own group, yet the optimum
    gives the real prediction 1 a non-real value and the pair's prediction
    1.9 - 0.05i the real value 2 (total 0.985 against the sorted 1.160):
    the bound rejects the rules' answer and scipy's is returned."""
    p, z = 1.9 + 0.05j, 1.9 + 0.051j
    target, values = np.array([0, 1, p, p.conjugate()]), np.array([0.4, 2, z, z.conjugate()])
    cost = _sqdist(target, values)
    assert sw._closed_form(target, values, cost) is None
    assert np.array_equal(sw._assign(target, values), [0, 3, 2, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_assign_rejects_non_finite(bad):
    """A non-finite prediction or value raises ValueError from scipy's
    solver: NaN as an invalid entry, an infinity as an infeasible row or
    column."""
    for where in range(2):
        step = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
        step[where, 1] = bad
        with pytest.raises(ValueError):
            sw._assign(*step)


def test_z_sphere_sweep_leaves_out_scipy_optimize(tmp_path, monkeypatch, sphere60):
    """The z sphere sweep at N=60 to gbar = 13 runs without loading
    scipy.optimize, and gives the same grid, values and logs as with
    scipy's solver for every step."""
    import os
    import pickle
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    out = tmp_path / "sweep.pkl"
    code = ("import pickle, sys\n"
            "from btspec import basis, matrices, sweep\n"
            "m = matrices.assemble_sphere(basis.build_sphere_basis(60))\n"
            "s = sweep.run_sweep(m, matrices.gradient_matrix(m, theta_g=0.0, phi_g=0.0), 13.0)\n"
            f"pickle.dump(s, open({str(out)!r}, 'wb'))\n"
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout
    assert loaded.split() == ["False"]
    with open(out, "rb") as f:
        ours = pickle.load(f)
    monkeypatch.setattr(sw, "_assign", lambda target, values, cost=None: linear_sum_assignment(
        _sqdist(target, values) if cost is None else cost)[1])
    m, B = sphere60
    ref = sw.run_sweep(m, B, 13.0)
    assert np.array_equal(ours.g_grid, ref.g_grid)
    assert np.array_equal(ours.eigenvalues, ref.eigenvalues)
    assert ours.refinements == ref.refinements
    assert ours.ambiguities == ref.ambiguities


def test_cylinder_factor_sweep_leaves_out_scipy_optimize():
    """The tuned cylinder sweep of the benchmark (N=200), run on its disk and
    interval factors, has no contended assignment (nor have those at N=40
    and N=100): it finds its ten points without loading scipy.optimize."""
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


def test_tilted_sphere_scipy_fallbacks(sphere60, monkeypatch):
    """Work counter: the tilted sphere sweep at N=60 (theta = 30, phi = 20
    degrees, gbar <= 13) and its branch-point search call scipy's solver
    exactly 65 times, all for steps in its degenerate families that the
    closed-form rules cannot prove."""
    import scipy.optimize
    calls = []
    solve = scipy.optimize.linear_sum_assignment

    def counted(cost, *args, **kwargs):
        calls.append(len(cost))
        return solve(cost, *args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    m, _ = sphere60
    B = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    s = sw.run_sweep(m, B, 13.0)
    assert len(bp.find_branch_points(m, B, s)) == 3
    assert len(calls) == 65


def test_match_conjugate_pair_formation():
    """A fresh conjugate pair goes Im > 0 to the lower branch index (the
    split rule), and its exact tie is decided, so no tie group is left."""
    prev = sp.Spectrum(gbar=5.0, eigenvalues=np.array([2.4, 2.6, 9.0], dtype=complex))
    nxt = sp.Spectrum(gbar=5.05, eigenvalues=np.array([2.5 - 0.2j, 2.5 + 0.2j, 9.01 + 0j]))
    sigma, info = sw.match_step(prev, nxt)
    assert nxt.eigenvalues[sigma[0]].imag > 0
    assert nxt.eigenvalues[sigma[1]].imag < 0
    assert info["tie_groups"] == []


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
    B = mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)
    s = sw.run_sweep(m, B, 3.0, step=0.1)
    assert s.g_grid[0] == 0.0 and s.g_grid[-1] == 3.0
    assert np.all(np.diff(s.g_grid) > 0)
    # every row is a permutation of the full spectrum, bit for bit, although
    # the tracker solves its blocks itself
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
    with the degenerate m-families of gbar = 0 inside it.  Predicting each
    family member by its second-order splitting must give the z-sweep
    branches, and the z sweep's points with their branch names, at 0.3/0.2
    rad and at 30/20 and 80/20 degrees (the overlap rule this replaced
    differed by up to 2.16 and 8.6 at the last two)."""
    m, Bz = sphere60
    sz = sw.run_sweep(m, Bz, 16.0, step=0.05)
    gz = np.round(sz.g_grid, 12)
    pz = bp.find_branch_points(m, Bz, sz, max_branch=17)
    assert len(pz) == 3
    for theta, phi in [(0.3, 0.2), *np.deg2rad([(30.0, 20.0), (80.0, 20.0)])]:
        Bt = mx.gradient_matrix(m, theta_g=theta, phi_g=phi)
        assert len(set(sp.block_labels(m, Bt))) == 1
        st = sw.run_sweep(m, Bt, 16.0, step=0.05)
        common = np.intersect1d(gz, np.round(st.g_grid, 12))
        assert len(common) >= 321
        iz = np.searchsorted(gz, common)
        it = np.searchsorted(np.round(st.g_grid, 12), common)
        assert np.max(np.abs(st.eigenvalues[it, :17] - sz.eigenvalues[iz, :17])) < 1e-8
        pt = bp.find_branch_points(m, Bt, st, max_branch=17)
        assert len(pt) == 3
        for a, b in zip(pz, pt):
            assert abs(a.g_star - b.g_star) < 1e-6
            assert (a.order, a.branches) == (b.order, b.branches)
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
            orders.append(M.shape[-1])
        return geev(M, vectors)

    monkeypatch.setattr(sp, "_geev", counted)
    return orders


def _count_solves(monkeypatch):
    """Matrices solved by LAPACK from now on and _geev calls, each counted
    by (order, with vectors): a stacked call of G matrices solves G."""
    matrices, calls = Counter(), Counter()
    geev = sp._geev

    def counted(M, vectors):
        matrices[M.shape[-1], vectors] += int(np.prod(M.shape[:-2]))
        calls[M.shape[-1], vectors] += 1
        return geev(M, vectors)

    monkeypatch.setattr(sp, "_geev", counted)
    return matrices, calls


def _count_matches(monkeypatch):
    """(gbar, block order) of every match_step call from now on."""
    steps = []
    match = sw.match_step

    def counted(prev, next_):
        steps.append((round(float(next_.gbar), 12), len(prev.eigenvalues)))
        return match(prev, next_)

    monkeypatch.setattr(sw, "match_step", counted)
    return steps


@pytest.mark.parametrize("N", [60, 100])
def test_tilted_sphere_sweep_solves_no_eigenvectors(N, monkeypatch):
    """Work counter: the tilted block (66 or 110 modes, with the degenerate
    m-families of gbar = 0) is matched by value on every step, its first
    included, so the sweep at theta = 30, phi = 20 degrees to gbar = 13
    solves no eigenvector (the overlap rule this replaced solved one
    full-block eigenvector solve), and its families, predicted by their
    second-order splitting, leave no tie to bisect below gbar = 0.25 (the
    linear prediction bisected 7 or 8 times there)."""
    m = mx.operator_for("sphere", N)
    Bt = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    orders = _eig_orders(monkeypatch)
    s = sw.run_sweep(m, Bt, 13.0)
    assert orders == []
    assert [r["inserted"] for r in s.refinements if r["inserted"] < 0.25] == []
    assert s.ambiguities == []


@pytest.mark.parametrize("N", [60, 100])
def test_degenerate_class_splits_at_second_order(N):
    """On the first step out of gbar = 0, each member of a degenerate class
    of the tilted block is lam_0 - gbar^2 w (sweep._curvatures) to
    O(gbar^4): halving gbar divides the residual by about 16 (1.9e-9 was
    measured at gbar = 0.05 at both sizes)."""
    m = mx.operator_for("sphere", N)
    Bt = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    (t,) = sw._tracks(m, Bt, m.N)
    cls = sp._degenerate_classes(t.lam) >= 0
    assert np.count_nonzero(t.w[cls]) == np.count_nonzero(cls) > 0
    assert not t.w[~cls].any()
    res = []
    for g in (0.05, 0.025):
        row = sw.run_sweep(m, Bt, g, step=g).eigenvalues[-1, t.ix]
        res.append(np.max(np.abs(row - (t.lam - g**2 * t.w))[cls]))
    assert res[0] < 2.5e-9
    assert 15 < res[0] / res[1] < 17


def test_sweep_solve_counts_by_block_order(sphere60, monkeypatch):
    """Work counter: the z sphere sweep at N=60 to gbar = 12 solves exactly
    these matrices, by (block order, with vectors), one per block and step
    of its 241 grid points, with no refinement and no ambiguity: a tracker
    that solves, bisects or logs more fails here.  They come in one _geev
    call per chunk of spectrum.STACK_ENTRIES entries per block, and no step
    reaches match_step: the order rules label the splits too."""
    m, B = sphere60
    matrices, calls = _count_solves(monkeypatch)
    steps = _count_matches(monkeypatch)
    s = sw.run_sweep(m, B, 12.0)
    orders = (1, 2, 3, 5, 7, 9, 12)
    assert dict(matrices) == {(n, False): 240 for n in orders}
    assert dict(calls) == {(n, False): -(-240 // sp._chunk_len(n)) for n in orders}
    assert sum(calls.values()) == 22
    assert steps == []
    assert (len(s.g_grid), len(s.refinements), len(s.ambiguities)) == (241, 0, 0)


def test_sweep_solves_only_the_blocks_of_reported_branches(sphere60, monkeypatch):
    """Work counter: with n_branches=17 the same sweep solves only the 4 of
    its 7 distinct blocks that hold a branch below 17 (in themselves or a
    twin), once per step, in 19 stacked calls, with no match_step call, and
    every other column is NaN on the whole grid."""
    m, B = sphere60
    matrices, calls = _count_solves(monkeypatch)
    steps = _count_matches(monkeypatch)
    s = sw.run_sweep(m, B, 12.0, n_branches=17)
    assert dict(matrices) == {(n, False): 240 for n in (5, 7, 9, 12)}
    assert dict(calls) == {(5, False): 2, (7, False): 3, (9, False): 5, (12, False): 9}
    assert len(steps) == 0
    # the solved orders are those of the distinct blocks holding a branch below 17
    blocks = sp._blocks(m.lam, B)
    label = sp.block_labels(m, B)
    held = {blocks[k][1] for k in label[:17]}
    assert sorted(len(blocks[k][0]) for k in held) == [5, 7, 9, 12]
    tracked = np.isin(label, [k for k, b in enumerate(blocks) if b[1] in held])
    assert np.isnan(s.eigenvalues[:, ~tracked]).all()
    assert not np.isnan(s.eigenvalues[:, tracked]).any()
    assert (len(s.g_grid), len(s.refinements), len(s.ambiguities)) == (241, 0, 0)


@pytest.mark.parametrize("geometry,N,g_max,n", [("sphere", 60, 13.0, 17), ("disk", 60, 40.0, 17),
                                                ("interval", 40, 60.0, 17), ("disk", 60, 40.0, 1)])
def test_tracked_sweep_equals_the_full_sweep(geometry, N, g_max, n, sphere60,
                                            sphere60_sweep13):
    """Tracking only the blocks of the first n branches keeps those columns,
    the grid, the refinements and the ambiguities of the sweep that tracks
    every block, bit for bit.  A refinement's max_disp reads tracked columns
    only: on the disk with n = 1 the sin block goes, and the two refinements
    near 39.6 keep their g and reason but log the cos block's displacement."""
    if geometry == "sphere":
        (m, B), full = sphere60, sphere60_sweep13
    else:
        m = mx.operator_for(geometry, N)
        B = mx.gradient_matrix(m)
        full = sw.run_sweep(m, B, g_max)
    s = sw.run_sweep(m, B, g_max, n_branches=n)
    assert np.array_equal(s.g_grid, full.g_grid)
    assert np.array_equal(s.eigenvalues[:, :n], full.eigenvalues[:, :n])
    assert s.ambiguities == full.ambiguities
    assert s.metadata == full.metadata
    if n > 1:
        assert s.refinements == full.refinements
    else:
        assert np.isnan(s.eigenvalues[0]).sum() == 28
        assert [(r["inserted"], r["reason"]) for r in s.refinements] \
            == [(r["inserted"], r["reason"]) for r in full.refinements] \
            == [(39.625, "displacement"), (39.6125, "displacement")]


def test_z_sphere_sweep_solves_no_eigenvectors(sphere60, monkeypatch):
    """No block of the z sphere has a degenerate class at gbar = 0, so its
    sweep to gbar = 16 matches every step by value: no eigenvector solve."""
    m, B = sphere60
    orders = _eig_orders(monkeypatch)
    sw.run_sweep(m, B, 16.0, step=0.05)
    assert orders == []


@pytest.mark.parametrize("geometry,N,g_max", [("sphere", 60, 13.0), ("sphere", 100, 25.0),
                                               ("disk", 60, 40.0), ("disk", 100, 40.0),
                                               ("interval", 40, 60.0),
                                               ("sphere_reduced", 40, 25.0)])
def test_order_labels_equal_the_matched_sweep(geometry, N, g_max, monkeypatch):
    """Labelling every step of each block by the order rules (_by_order),
    splits and rejoins included, keeps the grid, the values, the
    refinements and the ambiguities of the sweep that sends every step
    through match_step (the predicate patched off), bit for bit, and never
    calls match_step."""
    m = mx.operator_for(geometry, N)
    B = mx.gradient_matrix(m)
    tracks = sw._tracks(m, B, m.N)
    assert all(t.ranked for t in tracks)
    steps = _count_matches(monkeypatch)
    ranked = sw.run_sweep(m, B, g_max)
    assert steps == []
    # the sweep changes the number of real values of some block
    real = ranked.eigenvalues.imag == 0
    assert any(np.diff(real[:, t.ix].sum(axis=1)).any() for t in tracks)
    monkeypatch.setattr(sw, "_ranked", lambda mat, lam: False)
    matched = sw.run_sweep(m, B, g_max)
    assert len(steps) == len(tracks) * (len(matched.g_grid) - 1 + len(matched.refinements))
    assert np.array_equal(ranked.g_grid, matched.g_grid)
    assert np.array_equal(ranked.eigenvalues, matched.eigenvalues)
    assert ranked.refinements == matched.refinements
    assert ranked.ambiguities == matched.ambiguities


def _mini_cylinder():
    """A dense cylinder in miniature: the Kronecker sum of a two-mode disk
    factor (Lambda 0, 2; coupling 3/4) and a two-mode interval factor
    (Lambda 0, 3/2; coupling sqrt(2)/4), one block whose middle real
    branches, mu_d- + mu_i+ and mu_d+ + mu_i- (3/2 and 2 at gbar = 0),
    cross at gbar = 1, where the factor gaps sqrt(4 - 9g^2/4) and
    sqrt(9/4 - g^2/2) meet."""
    lam = np.array([0.0, 1.5, 2.0, 3.5])
    B = (np.kron([[0.0, 0.75], [0.75, 0.0]], np.eye(2))
         + np.kron(np.eye(2), [[0.0, np.sqrt(2) / 4], [np.sqrt(2) / 4, 0.0]]))
    basis = bas.BasisSet(geometry="cylinder", indices=(), eigenvalues=lam)
    return mx.OperatorMatrices(basis, lam, None, None, None), B


def test_guard_still_bisects_a_real_crossing_of_the_dense_cylinder(monkeypatch):
    """The dense cylinder is a Kronecker sum, so real values of one block
    cross: its blocks keep match_step and its guard.  A grid point on the
    exact crossing of the miniature cylinder is a cost tie, bisected 12
    times down to MIN_STEP and logged as tie refinements; labelled by order
    the same block would pass it unrefined.  The tilted sphere's block, with
    its degenerate classes at gbar = 0, keeps match_step too."""
    sphere = mx.operator_for("sphere", 30)
    Bt = mx.gradient_matrix(sphere, theta_g=0.3, phi_g=0.2)
    assert [u.ranked for u in sw._tracks(sphere, Bt, sphere.N)] == [False]
    m, B = _mini_cylinder()
    (t,) = sw._tracks(m, B, m.N)
    assert not t.ranked
    w = sp.diagonalize(m, B, 1.0, eigvals_only=True).eigenvalues
    assert w[1] == pytest.approx(w[2], abs=1e-14) and not w.imag.any()
    steps = _count_matches(monkeypatch)
    s = sw.run_sweep(m, B, 1.0, step=0.25)
    assert [r["inserted"] for r in s.refinements] == [1 - 0.125 / 2**k for k in range(12)]
    assert {r["reason"] for r in s.refinements} == {"tie"}
    assert len(steps) == len(s.g_grid) - 1 + len(s.refinements)
    monkeypatch.setattr(sw, "_ranked", lambda mat, lam: True)
    assert sw.run_sweep(m, B, 1.0, step=0.25).refinements == []


def test_order_labels():
    """_by_order gives the real values, ascending, to the branches predicted
    real in ascending order of prediction, and each non-real value its
    strictly nearest non-real branch.  A fresh conjugate pair goes to the
    two adjacent real branches of least cost, Im > 0 to the lower branch
    index whatever their order of prediction; a rejoining pair joins the
    real line, the lower branch taking the smaller value.  It declines
    (None) a step whose non-real values share a nearest branch."""
    values = np.array([1.0, 2.0, 3.0 - 1j, 3.0 + 1j, 7.0])
    pred = np.array([6.5, 3.1 + 0.9j, 1.2, 3.1 - 0.9j, 2.2])
    sigma = sw._by_order(pred, values)
    assert values[sigma].tolist() == [7.0, 3.0 + 1j, 1.0, 3.0 - 1j, 2.0]
    split = np.array([1.0, 2.5 - 1j, 2.5 + 1j])
    for pred, want in (([1.0, 2.0, 3.0], [1.0, 2.5 + 1j, 2.5 - 1j]),
                       ([3.0, 2.0, 0.9], [2.5 + 1j, 2.5 - 1j, 1.0]),
                       ([2.6, 0.9, 2.4], [2.5 + 1j, 1.0, 2.5 - 1j])):
        assert split[sw._by_order(np.array(pred, dtype=complex), split)].tolist() == want
    rejoin = np.array([1.0, 2.4, 2.6, 3.0])
    for pred in ([1.0, 2.5 + 0.1j, 2.5 - 0.1j, 3.0], [2.5 - 0.1j, 3.0, 1.0, 2.5 + 0.1j]):
        pred = np.array(pred)
        got = rejoin[sw._by_order(pred, rejoin)]
        assert got[pred.imag != 0].tolist() == [2.4, 2.6]
        assert got[pred.imag == 0].tolist() == pred[pred.imag == 0].real.tolist()
    assert sw._by_order(np.array([1.0, 3 + 1j, 3 + 1.1j]), np.array([1.0, 3 - 1j, 3 + 1j])) is None
    assert sw._by_order(np.array([1.0 + 0j]), np.array([2.0 + 0j])).tolist() == [0]


def test_stacked_solves_stay_within_the_chunk_bound(sphere60, monkeypatch):
    """Memory bound: on the sphere60 sweeps about z (blocks of order 1 to
    12) and about a tilted gradient (one 66-wide block, theta = 30, phi = 20
    degrees), and on the sphere_reduced sweep at N = 100 (one 100-wide
    block), no stack that _geev receives holds more than
    spectrum.STACK_ENTRIES entries, or more than one matrix of a wider
    order."""
    shapes = []
    geev = sp._geev
    monkeypatch.setattr(sp, "_geev", lambda M, vectors: shapes.append(M.shape) or geev(M, vectors))
    m, B = sphere60
    for Bg in (B, mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))):
        sw.run_sweep(m, Bg, 13.0)
    red = mx.operator_for("sphere_reduced", 100)
    sw.run_sweep(red, mx.gradient_matrix(red), 10.0)
    assert {s[-1] for s in shapes} == {1, 2, 3, 5, 7, 9, 12, 66, 100}
    for s in shapes:
        assert s[0] <= sp._chunk_len(s[-1])
        assert np.prod(s) <= max(sp.STACK_ENTRIES, s[-1] ** 2)
    assert max(s[0] for s in shapes if s[-1] == 12) == sp._chunk_len(12) == 28
    assert {s[0] for s in shapes if s[-1] > 64} == {1}


def test_rejoining_pair_gives_the_lower_branch_the_smaller_value():
    """A conjugate pair rejoining the real axis is an exact cost tie that
    the order rules' sorted real line decides: the lower branch takes the
    smaller real value, whatever the order of the values and of the pair's
    members, and no tie group is left."""
    lo, hi = 5 - 1e-4, 5 + 1e-4
    for pair in ([5 + 1e-4j, 5 - 1e-4j], [5 - 1e-4j, 5 + 1e-4j]):
        prev = sp.Spectrum(gbar=1.0, eigenvalues=np.array(pair))
        for vals in ([lo, hi], [hi, lo]):
            nxt = sp.Spectrum(gbar=1.0, eigenvalues=np.array(vals, dtype=complex))
            sigma, info = sw.match_step(prev, nxt)
            assert nxt.eigenvalues[sigma].real.tolist() == [lo, hi]
            assert info["tie_groups"] == []


def test_guard_reports_a_cost_tie_on_a_cos_block(sphere60):
    """On the m = 1 cos block of the z sphere (its sin twin copies it), two
    real branches predicted at the midpoint of their next two values are a
    cost tie that no rule decides: the guard reports it unresolved."""
    m, B = sphere60
    t = next(t for t in sw._tracks(m, B, m.N) if m.basis.indices[t.ix[0]].m == 1)
    assert len(t.copies) == 2
    assert [m.basis.indices[ix[0]].l for ix in t.copies] == [1, 2]
    b = sp.Spectrum(gbar=2.01, eigenvalues=sp._solve_block(t.lam, t.K, 2.01, True)[0])
    assert np.all(np.abs(b.eigenvalues[:2].imag) < 1e-12)
    pred = b.eigenvalues.copy()
    pred[:2] = b.eigenvalues[:2].mean()
    _, info = sw.match_step(sp.Spectrum(gbar=2.01, eigenvalues=pred), b)
    assert info["tie_groups"] == [{"branches": (0, 1), "kind": "unresolved"}]


def test_ambiguity_names_basis_modes_of_block_and_twin(sphere60, monkeypatch):
    """An unresolved tie of one block's branches 0 and 2 at gbar = 0.05 is
    reported as the basis modes of the block and of its twin, which copies
    its result.  The blocks go through match_step (their order labels are
    patched off), where the tie is injected."""
    m, B = sphere60
    t = next(t for t in sw._tracks(m, B, m.N) if m.basis.indices[t.ix[0]].m == 1)
    assert sum(len(u.ix) == len(t.ix) for u in sw._tracks(m, B, m.N)) == 1
    monkeypatch.setattr(sw, "_ranked", lambda mat, lam: False)
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


@pytest.mark.parametrize("N", [60, 100])
def test_disk_rejoin_keeps_the_pair_labels_across_truncations(N):
    """A conjugate pair of the disk (branches 8 and 10, 0-based) rejoins the
    real axis near gbar = 30.07: the rejoin is decided by rule, not logged,
    so both truncations name the same branches (3, 8) for the point near
    33.77."""
    m = mx.operator_for("disk", N)
    B = mx.gradient_matrix(m)
    s = sw.run_sweep(m, B, 40.0)
    assert s.ambiguities == []
    (p,) = [p for p in bp.find_branch_points(m, B, s, max_branch=17)
            if abs(p.g_star - 33.77) < 0.01]
    assert p.branches == (3, 8)


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


def test_sweep_rejects_bad_range():
    """A g_max or step that is not positive and finite raises ValueError
    (a step of inf gave a one-point sweep, 0 a ZeroDivisionError and a
    g_max of inf an OverflowError)."""
    m = mx.operator_for("interval", 5)
    B = mx.gradient_matrix(m)
    for g_max, step in [(-1.0, 0.05), (0.0, 0.05), (np.inf, 0.05), (np.nan, 0.05),
                        (1.0, 0.0), (1.0, -0.1), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError):
            sw.run_sweep(m, B, g_max, step=step)


def test_sweep_rejects_n_branches_outside_the_basis():
    """n_branches below 1 or above the basis size raises ValueError; the
    bounds themselves are accepted."""
    m = mx.operator_for("interval", 5)
    B = mx.gradient_matrix(m)
    for n in (0, -1, 6):
        with pytest.raises(ValueError, match="n_branches"):
            sw.run_sweep(m, B, 1.0, n_branches=n)
    for n in (1, 5):
        assert not np.isnan(sw.run_sweep(m, B, 1.0, n_branches=n).eigenvalues).any()


def test_sweep_metadata_documents_tiebreak(disk60):
    m, B = disk60
    s = sw.run_sweep(m, B, 1.0, step=0.1)
    assert "second-order" in s.metadata["tiebreak"]
    assert "overlap" not in s.metadata["tiebreak"]
    assert s.metadata["geometry"] == "disk"
