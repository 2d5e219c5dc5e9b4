from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from btspec import basis as bas
from btspec import branchpoints as bp
from btspec import matrices as mx
from btspec import spectrum as sp
from btspec import sweep as sw
from btspec.errors import DomainError, NumericalError


def _sqdist(target, values):
    diff = np.subtract.outer(target, values)
    return diff.real**2 + diff.imag**2


def _least_squares_labels(target, values):
    """The reference labels of one block's step: scipy's assignment of least
    total squared displacement, with its two exact cost ties decided by
    rule: a rejoining conjugate pair (its predictions share their real part)
    gives the lower branch the smaller value, and a fresh pair goes by the
    split rule."""
    cols = linear_sum_assignment(_sqdist(target, values))[1]
    back = np.flatnonzero((target.imag != 0) & (values[cols].imag == 0))
    for x in set(target.real[back].tolist()):
        b = back[target.real[back] == x]
        cols[b] = cols[b][np.argsort(values[cols[b]].real, kind="stable")]
    sw._split_rule(target, values, cols)
    return cols


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite(bad):
    """A non-finite prediction or value, NaN or an infinity, raises
    NumericalError from _step, which labels every step of a sweep."""
    for where in range(2):
        step = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], dtype=complex)
        step[where, 1] = bad
        with pytest.raises(NumericalError):
            sw._step(1.0, *step)


def test_step_rejects_values_whose_displacements_overflow():
    """Beyond sw.MAX_VALUE a squared displacement can overflow, and _step
    raises NumericalError (as a sweep to gbar = 1e200 in steps of 1e199
    does) instead of labelling by infinite costs: two fresh pairs from four
    real predictions, which the order rules decline, and one fresh pair,
    which they would place by the pair's cost to the real predictions."""
    four = np.arange(4.0).astype(complex)
    z = np.array([1e200 + 1e200j, 2e200 + 1j])
    three = np.arange(3.0).astype(complex)
    pair = np.array([1e200, 5e199 - 1e160j, 5e199 + 1e160j])
    for pred, values in ((four, np.r_[z, z.conj()]), (three, pair)):
        with pytest.raises(NumericalError, match="overflow"):
            sw._step(1.0, pred, values)
        sigma, declined = sw._step(1.0, pred, values * 1e-60)
        assert sorted(sigma) == list(range(len(pred)))
        assert declined == (len(pred) == 4)


def test_z_sphere_sweep_leaves_out_scipy_optimize(tmp_path, monkeypatch, sphere60):
    """The z sphere sweep at N=60 to gbar = 13 runs without loading
    scipy.optimize, and gives the same grid, values and logs as with
    scipy's least-squares assignment labelling every step."""
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
    monkeypatch.setattr(sw, "_by_order", _least_squares_labels)
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


def test_tilted_sphere_steps_are_all_labelled_by_order(sphere60, monkeypatch):
    """Work counter: the tilted sphere sweeps at N=60 (phi = 20 degrees,
    gbar <= 13, theta = 30 and 80 degrees) and their branch-point searches
    take the z sweep's labels, and the order rules decline none of the z
    steps or bisection solves.  Both find the same three points."""
    declined = _count_declines(monkeypatch)
    m, _ = sphere60
    for theta in (30.0, 80.0):
        B = mx.gradient_matrix(m, theta_g=np.deg2rad(theta), phi_g=np.deg2rad(20.0))
        points = bp.find_branch_points(m, B, sw.run_sweep(m, B, 13.0))
        assert [(p.order, p.branches) for p in points] \
            == [(2, (9, 10)), (2, (0, 1)), (4, (2, 3, 5, 6))]
        assert declined == []


def test_match_conjugate_pair_formation():
    """A fresh conjugate pair goes Im > 0 to the lower branch index (the
    split rule), decided by the order rules: _step declines nothing."""
    values = np.array([2.5 - 0.2j, 2.5 + 0.2j, 9.01 + 0j])
    sigma, declined = sw._step(5.05, np.array([2.4, 2.6, 9.0], dtype=complex), values)
    assert values[sigma].tolist() == [2.5 + 0.2j, 2.5 - 0.2j, 9.01]
    assert not declined


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
    """A tilted gradient is a rotation of z: one block instead of one per (m, l)
    (two, the cos and sin sectors, for a gradient in the xz plane), with the
    degenerate m-families of gbar = 0 inside it.  Its sweep takes the z
    sweep's grid and labels, and its values, from the dense tilted solve,
    must be the z-sweep branches, with the z sweep's points and their
    branch names, at 0.3/0.2 rad and at 30/20, 80/20 and 30/0 degrees.
    Every rank pair is one value, so no 'transfer' ambiguity is logged."""
    m, Bz = sphere60
    sz = sw.run_sweep(m, Bz, 16.0, step=0.05)
    pz = bp.find_branch_points(m, Bz, sz, max_branch=17)
    assert len(pz) == 3
    for theta, phi in [(0.3, 0.2), *np.deg2rad([(30.0, 20.0), (80.0, 20.0), (30.0, 0.0)])]:
        Bt = mx.gradient_matrix(m, theta_g=theta, phi_g=phi)
        assert len(set(sp.partition(m.lam, Bt).label)) == (1 if phi else 2)
        st = sw.run_sweep(m, Bt, 16.0, step=0.05)
        assert np.array_equal(st.g_grid, sz.g_grid)
        assert st.ambiguities == sz.ambiguities == []
        assert np.max(np.abs(st.eigenvalues[:, :17] - sz.eigenvalues[:, :17])) < 1e-8
        pt = bp.find_branch_points(m, Bt, st, max_branch=17)
        assert len(pt) == 3
        for a, b in zip(pz, pt):
            assert abs(a.g_star - b.g_star) < 1e-6
            assert (a.order, a.branches) == (b.order, b.branches)
            # conditioning is measured per degenerate class, so it does not
            # depend on the mixture of the tilted block's degenerate pairs
            for key in ("vv_min", "min_principal_angle"):
                assert b.meta[key] == pytest.approx(a.meta[key], rel=1e-3), (a, key)


def test_transfer_flags_a_block_that_is_no_rotation_of_z(tmp_path):
    """A tilted sphere B whose nonzero entries are perturbed by 1e-3
    relative (the same pattern, so the same blocks and degenerate classes
    at gbar = 0, but no rotation of z) still takes the z sweep's grid and
    labels, and each row is still the perturbed operator's spectrum; its
    rank pairs are not one value, so every step is logged as a 'transfer'
    ambiguity, not bisected, and branches.csv flags those rows."""
    from btspec.cli import _write_branches

    m = mx.operator_for("sphere", 30)
    Bt = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    P = np.random.default_rng(3).standard_normal(Bt.shape)
    Bp = Bt * (1 + 1e-3 * (P + P.T))
    assert sw._z_labelled(m, sp.partition(m.lam, Bp))
    s = sw.run_sweep(m, Bp, 2.0, step=0.1)
    sz = sw.run_sweep(m, mx.gradient_matrix(m), 2.0, step=0.1)
    assert np.array_equal(s.g_grid, sz.g_grid) and s.refinements == sz.refinements == []
    for g, row in zip(s.g_grid[1:], s.eigenvalues[1:]):
        w = sp.diagonalize(m, Bp, g, eigvals_only=True).eigenvalues
        assert np.array_equal(np.sort_complex(row), np.sort_complex(w))
    assert [a["g"] for a in s.ambiguities] == s.g_grid[1:].tolist()
    assert {a["kind"] for a in s.ambiguities} == {"transfer"}
    _write_branches(str(tmp_path / "branches.csv"), s, 17)
    rows = np.genfromtxt(tmp_path / "branches.csv", delimiter=",", names=True, dtype=None,
                         encoding="utf-8")
    flagged = {(g, j - 1) for g, j, flag in zip(rows["g"], rows["branch_j"], rows["flags"])
               if flag == "ambiguous"}
    assert flagged == {(a["g"], b) for a in s.ambiguities for b in a["branches"] if b < 17}
    assert len(flagged) > len(s.ambiguities)


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


def _count_declines(monkeypatch):
    """Block order of every step that the order rules decline from now on."""
    declined = []
    by_order = sw._by_order

    def counted(target, values):
        sigma = by_order(target, values)
        if sigma is None:
            declined.append(len(target))
        return sigma

    monkeypatch.setattr(sw, "_by_order", counted)
    return declined


@pytest.mark.parametrize("N", [60, 100])
def test_tilted_sphere_sweep_solves_no_eigenvectors(N, monkeypatch):
    """Work counter: the tilted block (66 or 110 modes, with the degenerate
    m-families of gbar = 0) takes the z sweep's labels on every step, its
    first included, so the sweep at theta = 30, phi = 20 degrees to gbar =
    13 solves no eigenvector (the overlap rule this replaced solved one
    full-block eigenvector solve), bisects nothing below gbar = 0.25 (the
    linear prediction bisected 7 or 8 times there) and logs nothing."""
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
    c of the tilted block is lam_c - gbar^2 w to O(gbar^4) (Kato, ch. II):
    w are the eigenvalues of the real symmetric
    W_c = K[c, r] diag(1 / (lam_c - lam_r)) K[c, r]^T over the rest r of the
    block, largest first in branch order, as the z sweep's labels give the
    lower branch the smaller value.  Halving gbar divides the residual by
    about 16 (1.9e-9 was measured at gbar = 0.05 at both sizes)."""
    m = mx.operator_for("sphere", N)
    Bt = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    (t,) = sw._tracks(sp.partition(m.lam, Bt), m.N)
    cid = sp._degenerate_classes(t.lam)
    w = np.zeros(len(t.lam))
    for c in range(cid.max() + 1):
        cls = cid == c
        Kc = t.K[np.ix_(cls, ~cls)]
        w[cls] = np.linalg.eigvalsh((Kc / (t.lam[cls][0] - t.lam[~cls])) @ Kc.T)[::-1]
    cls = cid >= 0
    assert np.count_nonzero(w[cls]) == np.count_nonzero(cls) > 0
    res = []
    for g in (0.05, 0.025):
        row = sw.run_sweep(m, Bt, g, step=g).eigenvalues[-1, t.ix]
        res.append(np.max(np.abs(row - (t.lam - g**2 * w))[cls]))
    assert res[0] < 2.5e-9
    assert 15 < res[0] / res[1] < 17


def test_sweep_solve_counts_by_block_order(sphere60, monkeypatch):
    """Work counter: the z sphere sweep at N=60 to gbar = 12 solves exactly
    these matrices, by (block order, with vectors), one per block and step
    of its 241 grid points, with no refinement and no ambiguity: a tracker
    that solves, bisects or logs more fails here.  They come in one _geev
    call per chunk of spectrum.STACK_ENTRIES entries per block, and the order
    rules decline no step: they label the splits too."""
    m, B = sphere60
    matrices, calls = _count_solves(monkeypatch)
    declined = _count_declines(monkeypatch)
    s = sw.run_sweep(m, B, 12.0)
    orders = (1, 2, 3, 5, 7, 9, 12)
    assert dict(matrices) == {(n, False): 240 for n in orders}
    assert dict(calls) == {(n, False): -(-240 // sp._chunk_len(n)) for n in orders}
    assert sum(calls.values()) == 22
    assert declined == []
    assert (len(s.g_grid), len(s.refinements), len(s.ambiguities)) == (241, 0, 0)


def test_sweep_solves_only_the_blocks_of_reported_branches(sphere60, monkeypatch):
    """Work counter: with n_branches=17 the same sweep solves only the 4 of
    its 7 distinct blocks that hold a branch below 17 (in themselves or a
    twin), once per step, in 19 stacked calls, with no step declined by the
    order rules, and every other column is NaN on the whole grid."""
    m, B = sphere60
    matrices, calls = _count_solves(monkeypatch)
    declined = _count_declines(monkeypatch)
    s = sw.run_sweep(m, B, 12.0, n_branches=17)
    assert dict(matrices) == {(n, False): 240 for n in (5, 7, 9, 12)}
    assert dict(calls) == {(5, False): 2, (7, False): 3, (9, False): 5, (12, False): 9}
    assert declined == []
    # the solved orders are those of the distinct blocks holding a branch below 17
    part = sp.partition(m.lam, B)
    blocks, label = part.blocks, part.label
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
    refinements and the ambiguities of the sweep that labels every step by
    scipy's least-squares assignment and the split rule, bit for bit; the
    order rules decline no step."""
    m = mx.operator_for(geometry, N)
    B = mx.gradient_matrix(m)
    part = sp.partition(m.lam, B)
    tracks = sw._tracks(part, m.N)
    assert not sw._z_labelled(m, part)
    declined = _count_declines(monkeypatch)
    ranked = sw.run_sweep(m, B, g_max)
    assert declined == []
    # the sweep changes the number of real values of some block
    real = ranked.eigenvalues.imag == 0
    assert any(np.diff(real[:, t.ix].sum(axis=1)).any() for t in tracks)
    steps = []
    monkeypatch.setattr(sw, "_by_order", lambda target, values: steps.append(1)
                        or _least_squares_labels(target, values))
    matched = sw.run_sweep(m, B, g_max)
    assert len(steps) == len(tracks) * (len(matched.g_grid) - 1 + len(matched.refinements))
    assert np.array_equal(ranked.g_grid, matched.g_grid)
    assert np.array_equal(ranked.eigenvalues, matched.eigenvalues)
    assert ranked.refinements == matched.refinements
    assert ranked.ambiguities == matched.ambiguities


def test_dense_cylinder_is_refused():
    """The dense cylinder is a Kronecker sum, so real values of one block
    cross and the order rules do not label it: run_sweep, and
    find_branch_points and refine on the factor route's sweep, raise
    DomainError naming cylinder_branch_points, whose points stand."""
    m = mx.operator_for("cylinder", 30)
    B = mx.gradient_matrix(m, eta=0.9)
    with pytest.raises(DomainError, match="cylinder_branch_points"):
        sw.run_sweep(m, B, 5.0)
    s, points = bp.cylinder_branch_points(m, 0.9, 15.0, step=0.5)
    assert points
    with pytest.raises(DomainError, match="cylinder_branch_points"):
        bp.find_branch_points(m, B, s)
    with pytest.raises(DomainError, match="cylinder_branch_points"):
        bp.refine(m, B, points[0], s)


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
    smaller real value (a solve returns real values ascending), whatever
    the order of the pair's members, and _step declines nothing."""
    lo, hi = 5 - 1e-4, 5 + 1e-4
    for pair in ([5 + 1e-4j, 5 - 1e-4j], [5 - 1e-4j, 5 + 1e-4j]):
        values = np.array([lo, hi], dtype=complex)
        sigma, declined = sw._step(1.0, np.array(pair), values)
        assert values[sigma].real.tolist() == [lo, hi]
        assert not declined


def test_ambiguity_names_basis_modes_of_block_and_twin(sphere60, monkeypatch):
    """A step of one block that the order rules decline at gbar = 0.05 is
    bisected down to MIN_STEP, then kept by nearest values, which label it
    as the rules do, and logged as an 'unproved' ambiguity of the basis
    modes of the block and of its twin, which copies its result."""
    m, B = sphere60
    tracks = sw._tracks(sp.partition(m.lam, B), m.N)
    t = next(t for t in tracks if m.basis.indices[t.ix[0]].m == 1)
    assert sum(len(u.ix) == len(t.ix) for u in tracks) == 1
    at = sp._solve_block(t.lam, t.K, np.array([0.05]), True)[0][0]
    by_order = sw._by_order
    monkeypatch.setattr(sw, "_by_order", lambda target, values: None
                        if np.array_equal(values, at) else by_order(target, values))
    s = sw.run_sweep(m, B, 0.1, step=0.05)
    # the step to 0.05 is bisected down to MIN_STEP, then kept and logged
    assert len(s.refinements) == 12 and all(r["reason"] == "tie" for r in s.refinements)
    want = sorted(tuple(ix.tolist()) for ix in t.copies)
    assert len(want) == 2
    assert [(a["g"], a["branches"], a["kind"]) for a in s.ambiguities] \
        == [(0.05, w, "unproved") for w in want]
    monkeypatch.setattr(sw, "_by_order", by_order)
    assert np.array_equal(s.values_at(0.05), sw.run_sweep(m, B, 0.1, step=0.05).values_at(0.05))


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
    assert "the order rules" in s.metadata["tiebreak"]
    assert "the z sweep's labels by rank" in s.metadata["tiebreak"]
    for gone in ("second-order", "overlap", "squared displacement"):
        assert gone not in s.metadata["tiebreak"]
    assert s.metadata["geometry"] == "disk"
