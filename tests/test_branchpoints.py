import numpy as np
import pytest
import scipy.linalg as sla

from btspec import basis as bas
from btspec import branchpoints as bp
from btspec import matrices as mx
from btspec import spectrum as sp
from btspec import sweep as sw
from btspec.errors import ConvergenceError


@pytest.fixture(scope="module")
def interval40():
    b = bas.build_interval_basis(40)
    m = mx.assemble_interval(b)
    return m, mx.gradient_matrix(m)


@pytest.fixture(scope="module")
def interval_sweep(interval40):
    m, B = interval40
    s = sw.run_sweep(m, B, 20.0, step=0.05)
    return s


def test_analytic_interval_branch_points():
    g = bp.interval_branch_points_analytic(2)
    assert abs(g[0] - 18.06) < 0.05
    assert abs(g[1] - 229.35) < 1.0


def test_interval_detect_and_refine(interval40, interval_sweep):
    m, B = interval40
    points = bp.find_branch_points(m, B, interval_sweep)
    assert len(points) == 1
    p = points[0]
    assert abs(p.g_star - 18.06) < 0.01
    assert p.order == 2
    assert p.branches == (0, 1)
    # swept value matches the analytic law to 0.1%
    g_analytic = bp.interval_branch_points_analytic(1)[0]
    assert abs(p.g_star - g_analytic) / g_analytic < 1e-3
    # eigenfunctions coalesce: coefficient rows almost parallel at g_star
    assert p.meta["min_principal_angle"] < 1e-2
    assert p.meta["vv_min"] < 1e-2
    assert p.meta["width"] <= 1e-5


def test_detect_refuses_a_branch_the_sweep_did_not_track(sphere60):
    """A scan that reaches a NaN column of a tracked sweep raises
    ValueError, in detect and in find_branch_points, where is_real(nan),
    False, would drop that column's points; a scan below it runs."""
    m, B = sphere60
    s = sw.run_sweep(m, B, 1.0, step=0.1, n_branches=17)
    j = int(np.flatnonzero(np.isnan(s.eigenvalues[0]))[0])
    assert j >= 17
    assert bp.detect(s, max_branch=j) == []
    for max_branch in (j + 1, None):
        with pytest.raises(ValueError, match="not tracked"):
            bp.detect(s, max_branch=max_branch)
        with pytest.raises(ValueError, match="not tracked"):
            bp.find_branch_points(m, B, s, max_branch=max_branch)


@pytest.mark.parametrize("n,n_points", [(17, 7), (2, 1)])
def test_cylinder_points_are_unchanged_by_tracking(n, n_points, monkeypatch):
    """The cylinder factor sweeps track only the factor branches the first
    n cylinder branches use (with n = 2, disk modes 0 and 1: the disk's sin
    block goes).  On the N = 100 cylinder at eta = 40 degrees to gbar = 25,
    the sweep and every point are those of factor sweeps that track every
    branch."""
    m = mx.operator_for("cylinder", 100)
    eta = np.deg2rad(40.0)
    tracked = bp.cylinder_branch_points(m, eta, 25.0, n_branches=n)
    run_sweep = sw.run_sweep
    monkeypatch.setattr(bp, "run_sweep",
                        lambda mat, B, g_max, step, n_branches: run_sweep(mat, B, g_max, step))
    full = bp.cylinder_branch_points(m, eta, 25.0, n_branches=n)
    for s in (tracked[0], full[0]):
        assert not np.isnan(s.eigenvalues).any()
    assert np.array_equal(tracked[0].g_grid, full[0].g_grid)
    assert np.array_equal(tracked[0].eigenvalues, full[0].eigenvalues)
    assert (tracked[0].refinements, tracked[0].ambiguities) \
        == (full[0].refinements, full[0].ambiguities)
    assert len(tracked[1]) == n_points
    assert tracked[1] == full[1]


def test_interval_below_first_point_is_empty(interval40):
    m, B = interval40
    s = sw.run_sweep(m, B, 3.0, step=0.1)
    assert bp.detect(s) == []


def test_disk_branch_points(disk60):
    m, B = disk60
    s = sw.run_sweep(m, B, 15.0, step=0.05)
    points = bp.find_branch_points(m, B, s)
    got = sorted(p.g_star for p in points)
    refs = [3.76, 9.39, 13.87]
    assert len(got) == 3
    for g, ref in zip(got, refs):
        assert abs(g - ref) < 0.02
    for p in points:
        assert p.order == 2


def test_sphere_below_three_is_empty():
    b = bas.build_sphere_basis(30)
    m = mx.assemble_sphere(b)
    B = mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)
    s = sw.run_sweep(m, B, 3.0, step=0.1)
    assert bp.detect(s) == []


def test_order_counts_own_block_cluster(disk60):
    """The order counts the eigenvalues of the point's own blocks within
    CLUSTER_RADIUS of its value; here they are solved with LAPACK directly."""
    m, B = disk60
    s = sw.run_sweep(m, B, 5.0, step=0.05)
    p = bp.find_branch_points(m, B, s)[0]
    blocks = sp.partition(m.lam, B).blocks
    own = np.concatenate([
        sla.eigvals(np.diag(m.lam[ix]) + 1j * p.g_star * B[np.ix_(ix, ix)])
        for ix in (blocks[k][0] for k in {s.block[b] for b in p.branches})])
    assert p.order == int(np.sum(np.abs(own - p.meta["value"]) <= bp.CLUSTER_RADIUS)) == 2


def test_refine_solves_only_the_point_blocks(sphere60, sphere60_sweep13, monkeypatch):
    """Each point is refined on the m sectors of its branches and their -m
    twins alone, with one eigenvector solve at g_star and no other solve."""
    m, B = sphere60
    am = np.abs([q.m for q in m.basis.indices])
    solves = []
    real_refine, real_solve = bp.refine, sp.Partition.solve

    def refine(*args, **kwargs):
        solves.append([])
        return real_refine(*args, **kwargs)

    def solve(part, gbar, eigvals_only=False):
        solves[-1].append((len(part.label), eigvals_only))
        return real_solve(part, gbar, eigvals_only)

    monkeypatch.setattr(bp, "refine", refine)
    monkeypatch.setattr(sp.Partition, "solve", solve)
    points = bp.find_branch_points(m, B, sphere60_sweep13, max_branch=17)
    assert len(points) == len(solves) >= 3
    for p, calls in zip(points, solves):
        size = int(np.sum(np.isin(am, am[list(p.branches)])))
        assert size < m.N
        assert {n for n, _ in calls} == {size}, p
        assert [only for _, only in calls].count(False) == 1, p


def _count_calls(monkeypatch, name):
    """Calls of spectrum's function `name`, through every module holding it."""
    calls, real = [], getattr(sp, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in (sp, sw, bp):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("angles", [{}, {"theta_g": 0.3, "phi_g": 0.2}],
                         ids=["z", "tilted"])
def test_bisection_adds_solves_not_partitions(angles, monkeypatch):
    """Each refine partitions its restriction once, whatever the bracket
    width: a narrower BRACKET_WIDTH adds block solves at the new bisection
    points (spectrum._solve_block) and no partition (spectrum.partition).
    The wider width is 1e-6: at 1e-5 the 11.98 pair's square-root splitting
    leaves CLUSTER_RADIUS at g_star, which refine refuses."""
    m = mx.operator_for("sphere", 60)
    B = mx.gradient_matrix(m, **angles)
    s = sw.run_sweep(m, B, 13.0, step=0.05)
    counts = []
    for width in (1e-6, 1e-8):
        monkeypatch.setattr(bp, "BRACKET_WIDTH", width)
        parts = _count_calls(monkeypatch, "partition")
        solves = _count_calls(monkeypatch, "_solve_block")
        points = bp.find_branch_points(m, B, s, max_branch=17)
        counts.append((len(points), len(parts), len(solves)))
        monkeypatch.undo()
    (n_wide, parts_wide, solves_wide), (n_narrow, parts_narrow, solves_narrow) = counts
    assert n_wide == n_narrow >= 3
    assert parts_wide == parts_narrow
    assert solves_narrow > solves_wide


def test_refine_solves_only_the_tilted_blocks(monkeypatch):
    """On a tilted sphere (30, 20 degrees) refine solves each distinct block
    of the point's own tilted blocks exactly once per bisection point (the
    bracket's ends, each midpoint and g_star, the last with vectors), and
    nothing else: no z-operator block."""
    m = mx.operator_for("sphere", 60)
    B = mx.gradient_matrix(m, theta_g=np.deg2rad(30.0), phi_g=np.deg2rad(20.0))
    s = sw.run_sweep(m, B, 13.0, step=0.05)
    coarse = bp.detect(s, max_branch=17)
    assert len(coarse) == 3
    real = sp._solve_block
    for c in coarse:
        sub, B_sub, _ = sp.own_blocks(m, B, c.branches)
        own = [K for *_, K, _ in sp.partition(sub.lam, B_sub).blocks if K is not None]
        calls = []

        def solve(lam_b, K, gbar, eigvals_only):
            calls.append((float(gbar), eigvals_only,
                          [i for i, Ko in enumerate(own) if np.array_equal(K, Ko)]))
            return real(lam_b, K, gbar, eigvals_only)

        for mod in (sp, sw, bp):
            if getattr(mod, "_solve_block", None) is real:
                monkeypatch.setattr(mod, "_solve_block", solve)
        p = bp.refine(m, B, c, s)
        monkeypatch.undo()
        assert all(len(hit) == 1 for *_, hit in calls)  # an own block, never z's
        points = list(dict.fromkeys(g for g, *_ in calls))
        assert points[:2] == list(c.bracket) and points[-1] == p.g_star
        assert len(points) > 3
        for g in points:
            assert sorted(sum((hit for gc, _, hit in calls if gc == g), [])) \
                == list(range(len(own))), g
        assert [only for *_, only, _ in calls].count(False) == len(own)


def test_crossings_are_not_branch_points(sphere333_sweep):
    sweep, points = sphere333_sweep
    # no detected point near the gbar ~ 9.3 crossing
    for p in points:
        assert abs(p.g_star - 9.3) > 0.3


def test_refine_rejects_transitionless_bracket(interval40, interval_sweep, sphere100):
    """A bracket real at both ends (below the point at 18.06), and one whose
    lower end is already complex, hold no real-to-complex transition.  On
    the z sphere at N = 100, the grid interval around 4.73 holds the split
    of branches (9, 10) in the m = 0 block of branches (0, 1): the block's
    non-real count rises there, but not by the columns of (0, 1)."""
    m, B = interval40
    for lo, hi in ((4.0, 6.0), (18.5, 19.5)):
        fake = bp.BranchPoint(g_star=0.5 * (lo + hi), order=2, branches=(0, 1),
                              bracket=(lo, hi), meta={})
        with pytest.raises(ConvergenceError):
            bp.refine(m, B, fake, interval_sweep)
    m, B = sphere100
    s = sw.run_sweep(m, B, 5.0, step=0.05)
    (point,) = bp.detect(s, max_branch=17)
    assert point.branches == (9, 10) and point.bracket[0] < 4.73 < point.bracket[1]
    assert sp.partition(m.lam, B).label[[0, 1, 9, 10]].tolist() == [0] * 4
    fake = bp.BranchPoint(g_star=4.73, order=2, branches=(0, 1), bracket=point.bracket)
    with pytest.raises(ConvergenceError, match="change realness"):
        bp.refine(m, B, fake, s)


def test_detect_counts_a_value_within_the_real_tolerance_as_real():
    """A pair at 3 +- 5e-7i is real by spectrum.is_real (|Im| <= REAL_TOL),
    so the pair that is complex at the next grid point splits in between."""
    lam = np.array([[1.0, 4.0], [2.0, 3.5], [3 + 5e-7j, 3 - 5e-7j],
                    [3 + 1e-3j, 3 - 1e-3j]])
    s = sw.BranchSweep(g_grid=np.arange(4.0), eigenvalues=lam,
                       block=np.zeros(2, dtype=int))
    assert [(p.order, p.branches, p.bracket) for p in bp.detect(s)] \
        == [(2, (0, 1), (2.0, 3.0))]


def test_cylinder_tuned_angle_first_point():
    """Gradient angle eta = atan(18.06/3.76) aligns the first disk and
    interval branch points; the merged first point of the factor route at
    N = 150 sits near 18.45 (quoted as 18.5 at 3 significant digits).
    Checked at tolerance +-0.1."""
    eta = np.arctan(18.06 / 3.76)
    m = mx.operator_for("cylinder", 150)
    _, points = bp.cylinder_branch_points(m, eta, 19.2, step=0.1, n_branches=13)
    assert points, "no branch point detected below 19.2"
    assert abs(min(p.g_star for p in points) - 18.5) < 0.1
    # the order counts the merging eigenvalues of the point's factor's own
    # blocks, here solved block by block with LAPACK directly: on the tensor
    # closure of the disk blocks of the point's disk modes and the interval
    # blocks of its interval modes, the sums mu + nu within CLUSTER_RADIUS
    # of the point's value.  Each point is one pair, although branches of
    # the decoupled l = 1 and l = 2 disk sectors merge within 1e-3 of each
    # other near 18.45.
    disk, interval, a, b = mx.cylinder_factors(m.basis)
    cx, _, cz = mx.gradient_direction("cylinder", eta=eta)
    factors = [(f, Bf, sp.partition(f.lam, Bf).blocks, idx)
               for f, Bf, idx in ((disk, cx * disk.Bx, a), (interval, cz * interval.Bz, b))]
    for p in points:
        assert p.order >= 2, p
        own = []
        for f, Bf, blocks, idx in factors:
            ixs = [ix for ix, *_ in blocks if np.isin(idx[list(p.branches)], ix).any()]
            own.append(np.concatenate([sla.eigvals(np.diag(f.lam[ix]) + 1j * p.g_star
                                                   * Bf[np.ix_(ix, ix)]) for ix in ixs]))
        merging = np.count_nonzero(np.abs(np.add.outer(*own) - p.meta["value"])
                                   <= bp.CLUSTER_RADIUS)
        assert p.order == merging == 2, p
        # a single-branch point has no pair of rows to measure an angle on
        if len(p.branches) == 1:
            assert p.meta["min_principal_angle"] is None, p
        else:
            assert p.meta["min_principal_angle"] >= 0.0, p


def test_cylinder_factor_route_values_are_kron_eigenvalues():
    """The tensor-closure matrix of the two factors, built with np.kron,
    holds the dense cylinder matrix on the basis rows.  Every branch value
    the factor route reports is one of its eigenvalues, and each point's
    value has exactly `order` of its eigenvalues within CLUSTER_RADIUS."""
    m = mx.assemble_cylinder(bas.build_cylinder_basis(40))
    disk, interval, a, b = mx.cylinder_factors(m.basis)
    rows = a * interval.N + b
    n_points = 0
    for eta in (0.0, 0.9, np.pi / 2):
        s, points = bp.cylinder_branch_points(m, eta, 15.0, step=0.5)
        # branch j starts at basis mode j, which pins the pairing (a[j], b[j])
        assert np.array_equal(s.eigenvalues[0], m.lam)
        cx, _, cz = mx.gradient_direction("cylinder", eta=eta)

        def kron(g):
            return (np.kron(disk.bloch_torrey(cx * disk.Bx, g), np.eye(interval.N))
                    + np.kron(np.eye(disk.N), interval.bloch_torrey(cz * interval.Bz, g)))

        B = mx.gradient_matrix(m, eta=eta)
        for g in (2.0, 7.0, 15.0):
            K = kron(g)
            assert np.allclose(K[np.ix_(rows, rows)], m.bloch_torrey(B, g),
                               rtol=0, atol=1e-13)
            w = sla.eigvals(K)
            vals = s.eigenvalues[np.flatnonzero(s.g_grid == g)[0]]
            dist = np.min(np.abs(vals[:, None] - w[None, :]), axis=1)
            assert np.all(dist <= 1e-10 * np.maximum(1.0, np.abs(vals))), (eta, g)
        for p in points:
            w = sla.eigvals(kron(p.g_star))
            assert np.sum(np.abs(w - p.meta["value"]) <= bp.CLUSTER_RADIUS) == p.order, p
        n_points += len(points)
    assert n_points == 12  # disk points 3.76, 9.39, 13.88 (eta = 0) and 6.05


def test_cylinder_pair_members_follow_the_split_rule():
    """On the tuned cylinder of the benchmark (N=200), the disk pair (0, 1)
    splits at 18.4488, just below the interval point at 18.4522.  There the
    disk's branch rows meet the pair's exact conjugates from real values, a
    cost tie, and Im > 0 goes to the lower branch, as in the sweep: the
    interval point's cylinder branches (0, 5) (disk mode 0) carry Im > 0 and
    (1, 6) (disk mode 1) Im < 0."""
    m = mx.operator_for("cylinder", 200)
    _, points = bp.cylinder_branch_points(m, np.deg2rad(78.23931266613657), 19.2,
                                          step=0.1, n_branches=13)
    im = {p.branches: p.meta["value"].imag for p in points}
    assert im[(0, 5)] == pytest.approx(0.0333933, abs=1e-6)
    assert im[(1, 6)] == pytest.approx(-0.0333933, abs=1e-6)


def test_declined_partner_step_raises(monkeypatch):
    """The partner rows of a cylinder point are labelled by the order rules
    alone: where they decline a partner block, cylinder_branch_points raises
    ConvergenceError naming gbar, instead of keeping a nearest label."""
    m = mx.operator_for("cylinder", 40)
    swept, run, by_order = [], bp.run_sweep, sw._by_order

    def counted(*args, **kwargs):
        swept.append(run(*args, **kwargs))
        return swept[-1]
    monkeypatch.setattr(bp, "run_sweep", counted)
    # both factor sweeps are labelled; every later step is declined
    monkeypatch.setattr(sw, "_by_order", lambda target, values: None if len(swept) == 2
                        else by_order(target, values))
    with pytest.raises(ConvergenceError, match="partner rows at gbar="):
        bp.cylinder_branch_points(m, np.deg2rad(45.0), 10.0, step=0.1, n_branches=13)
    assert len(swept) == 2


def test_principal_angle_is_exact_for_small_angles():
    """Two unit vectors at 1e-7 rad, the second times a phase, in classes of
    their own: the class angle, taken from the sine, keeps the angle to
    1e-12 relative, where an arccos of the cosine, rounded near 1, is off by
    about 1%."""
    angle = 1e-7
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.exp(0.7j) * np.array([np.cos(angle), np.sin(angle), 0.0])
    w = np.array([1.0, 2.0])
    assert abs(bp._class_conditioning(w, np.array([a, b]))[1] - angle) <= 1e-12 * angle
    assert abs(bp._class_conditioning(w, np.array([3.0 * b, 2j * a]))[1] - angle) \
        <= 1e-12 * angle
    arccos = np.arccos(min(1.0, abs(np.vdot(a, b))))
    assert abs(arccos - angle) > 1e-3 * angle


def test_class_conditioning_ignores_the_mixture_of_a_class():
    """Any invertible mixture of a degenerate class's rows, as an
    eigensolver may return it, gives the same vv_min and angle."""
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    w = np.array([1.0, 1.0, 1.5])
    ref = bp._class_conditioning(w, X)
    for _ in range(5):
        T = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        Y = np.vstack([T @ X[:2], X[2:]])
        got = bp._class_conditioning(w, Y)
        assert got == pytest.approx(ref, rel=1e-10)
