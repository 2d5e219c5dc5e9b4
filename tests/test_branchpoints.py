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
    B = mx.gradient_matrix_sphere(m, 0.0, 0.0)
    s = sw.run_sweep(m, B, 3.0, step=0.1)
    assert bp.detect(s) == []


def test_order_counts_own_block_cluster(disk60):
    """The order counts the eigenvalues of the point's own blocks within
    CLUSTER_RADIUS of its value; here they are solved with LAPACK directly."""
    m, B = disk60
    s = sw.run_sweep(m, B, 5.0, step=0.05)
    p = bp.find_branch_points(m, B, s)[0]
    blocks = sp._blocks(m.lam, B)
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
    real_refine, real_diagonalize = bp.refine, bp.diagonalize

    def refine(*args, **kwargs):
        solves.append([])
        return real_refine(*args, **kwargs)

    def diagonalize(mat, B, gbar, eigvals_only=False):
        solves[-1].append((mat.N, eigvals_only))
        return real_diagonalize(mat, B, gbar, eigvals_only)

    monkeypatch.setattr(bp, "refine", refine)
    monkeypatch.setattr(bp, "diagonalize", diagonalize)
    points = bp.find_branch_points(m, B, sphere60_sweep13, max_branch=17)
    assert len(points) == len(solves) >= 3
    for p, calls in zip(points, solves):
        size = int(np.sum(np.isin(am, am[list(p.branches)])))
        assert size < m.N
        assert {n for n, _ in calls} == {size}, p
        assert [only for _, only in calls].count(False) == 1, p


def test_crossings_are_not_branch_points(sphere333_sweep):
    sweep, points = sphere333_sweep
    # no detected point near the gbar ~ 9.3 crossing
    for p in points:
        assert abs(p.g_star - 9.3) > 0.3


def test_refine_rejects_transitionless_bracket(interval40, interval_sweep):
    """A bracket real at both ends (below the point at 18.06), and one whose
    lower end is already complex, hold no real-to-complex transition."""
    m, B = interval40
    for lo, hi in ((4.0, 6.0), (18.5, 19.5)):
        fake = bp.BranchPoint(g_star=0.5 * (lo + hi), order=2, branches=(0, 1),
                              bracket=(lo, hi), meta={})
        i_lo = int(np.argmin(np.abs(interval_sweep.g_grid - lo)))
        with pytest.raises(ConvergenceError):
            bp.refine(m, B, fake, ref_eigs=interval_sweep.eigenvalues[i_lo])


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
    interval branch points; the merged first point sits near 18.45 (quoted
    as 18.5 at 3 significant digits).  Checked at tolerance +-0.1."""
    eta = np.arctan(18.06 / 3.76)
    b = bas.build_cylinder_basis(150)
    m = mx.assemble_cylinder(b)
    B = mx.gradient_matrix_cylinder(m, eta)
    s = sw.run_sweep(m, B, 19.2, step=0.1)
    points = bp.find_branch_points(m, B, s, max_branch=13)
    assert points, "no branch point detected below 19.2"
    first = min(p.g_star for p in points)
    assert abs(first - 18.5) < 0.1
    # every point merges branches of one exact block (or of bit-identical
    # twin blocks): branches of decoupled sectors cross, they never merge
    blocks = sp._blocks(m.lam, B)
    for p in points:
        assert p.order >= 2, p
        twins = {blocks[s.block[b]][1] for b in p.branches}
        assert len(twins) == 1, p
    # the order counts the merging eigenvalues of the point's own blocks,
    # here solved block by block with LAPACK directly: each point is one
    # pair, although branches of the decoupled l = 1 and l = 2 sectors merge
    # within 1e-3 of each other near 18.45
    for p in points:
        own = []
        for k in {s.block[b] for b in p.branches}:
            ix = blocks[k][0]
            M = np.diag(m.lam[ix]) + 1j * p.g_star * B[np.ix_(ix, ix)]
            own.append(sla.eigvals(M))
        own = np.concatenate(own)
        merging = int(np.sum(np.abs(own - p.meta["value"]) <= bp.CLUSTER_RADIUS))
        assert p.order == merging == 2, p
        # a single-branch point has no pair of rows to measure an angle on
        if len(p.branches) == 1:
            assert p.meta["min_principal_angle"] is None, p
        else:
            assert p.meta["min_principal_angle"] >= 0.0, p

    # the factor route (disk x interval) finds the same points: the distinct
    # g* values of both routes agree each way within 1e-3 relative
    _, fpts = bp.cylinder_branch_points(m, eta, 19.2, step=0.1, n_branches=13)
    gd = np.unique([p.g_star for p in points])
    gf = np.unique([p.g_star for p in fpts])
    for x, y in ((gd, gf), (gf, gd)):
        assert np.max(np.min(np.abs(x[:, None] - y[None, :]), axis=1) / x) <= 1e-3


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
        cx, cz = mx._cylinder_weights(eta)

        def kron(g):
            return (np.kron(disk.bloch_torrey(cx * disk.Bx, g), np.eye(interval.N))
                    + np.kron(np.eye(disk.N), interval.bloch_torrey(cz * interval.Bz, g)))

        B = mx.gradient_matrix_cylinder(m, eta)
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
