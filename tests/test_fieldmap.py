import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import quadoracle as qo

from btspec import basis as bas
from btspec import fieldmap as fm
from btspec import matrices as mx
from btspec import spectrum as sp
from btspec.errors import DomainError


def normalized(m, B, g):
    return sp.normalize(sp.diagonalize(m, B, g))


def canonical(s):
    """Rows sorted by Re, Im > 0 first inside conjugate pairs."""
    rank = sp.canonical_order(s.eigenvalues)
    return sp.Spectrum(gbar=s.gbar, eigenvalues=s.eigenvalues[rank],
                       X=s.X[rank], vv=s.vv[rank], near_branch=s.near_branch[rank],
                       degenerate_class=s.degenerate_class[rank], normalized=True)


def test_constant_mode_value(sphere60):
    m, B = sphere60
    s = normalized(m, B, 0.0)
    pts = np.array([[0.1, 0.0, 0.3], [0.0, 0.2, -0.5], [0.0, 0.0, 0.0]])
    v = fm.eval_eigenfunction(s.X[0], m.basis, pts)
    assert np.max(np.abs(v - np.sqrt(3 / (4 * np.pi)))) < 1e-12


def test_point_outside_is_masked(sphere60):
    m, B = sphere60
    s = normalized(m, B, 0.0)
    v = fm.eval_eigenfunction(s.X[0], m.basis, np.array([[1.2, 0.0, 0.0]]))
    assert np.isnan(v[0].real)


def test_first_eigenfunction_nearly_constant_at_g1(sphere60):
    # quoted variation 0.489 .. 0.493 at gbar = 1
    m, B = sphere60
    s = canonical(normalized(m, B, 1.0))
    grid = fm.export_projection(s, m.basis, 1, resolution=101)
    mag = np.abs(grid.values[grid.inside])
    assert abs(mag.min() - 0.489) < 0.005
    assert abs(mag.max() - 0.493) < 0.005
    assert mag.max() - mag.min() < 0.006


def test_reflection_symmetry_past_branch_point(sphere60):
    # v2(x) = conj(v1(Rz x)) for the conjugate pair past g1
    m, B = sphere60
    s = canonical(normalized(m, B, 15.0))
    assert s.eigenvalues[0].imag > 0
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.7, 0.7, size=(300, 3))
    pts = pts[np.sum(pts**2, axis=1) < 0.95]
    mirrored = pts.copy()
    mirrored[:, 2] *= -1
    v1m = fm.eval_eigenfunction(s.X[0], m.basis, mirrored)
    v2 = fm.eval_eigenfunction(s.X[1], m.basis, pts)
    assert np.max(np.abs(v2 - np.conj(v1m))) < 1e-6


def test_projection_sidecar_fields(sphere60):
    m, B = sphere60
    s = canonical(normalized(m, B, 2.0))
    grid = fm.export_projection(s, m.basis, 3, resolution=41)
    assert grid.j == 3 and grid.gbar == 2.0
    assert grid.values.shape == (41, 41)
    assert np.isnan(grid.values[~grid.inside].real).all()
    assert grid.eigenvalue == s.eigenvalues[2]
    with pytest.raises(DomainError):
        fm.export_projection(s, m.basis, 0, resolution=11)
    with pytest.raises(DomainError):
        fm.export_projection(s, m.basis, m.N + 1, resolution=11)


def test_single_point_projection():
    b = bas.build_sphere_basis(10)
    m = mx.assemble_sphere(b)
    B = mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)
    s = canonical(normalized(m, B, 0.5))
    grid = fm.export_projection(s, b, 1, resolution=1)
    assert grid.values.shape == (1, 1)
    # the center of the bounding box lies inside the ball
    assert grid.inside[0, 0]
    assert np.isfinite(grid.values[0, 0].real)


def test_bilinear_normalization_by_quadrature(sphere60):
    # integral of v^2 over the ball ~ 1 for unflagged rows
    m, B = sphere60
    s = normalized(m, B, 1.5)
    xr, wr = leggauss(60)
    r = 0.5 * (xr + 1)
    wr = 0.5 * wr
    xx, wx = leggauss(40)
    ph = np.arange(48) * 2 * np.pi / 48
    R, XI, PH = np.meshgrid(r, xx, ph, indexing="ij")
    sin_t = np.sqrt(1 - XI**2)
    pts = np.stack([(R * sin_t * np.cos(PH)).ravel(),
                    (R * sin_t * np.sin(PH)).ravel(),
                    (R * XI).ravel()], axis=1)
    WT = (wr[:, None, None] * wx[None, :, None] * (2 * np.pi / 48) * R**2).ravel()
    for row in (0, 1, 4):
        v = fm.eval_eigenfunction(s.X[row], m.basis, pts)
        integral = np.sum(v**2 * WT)
        assert abs(integral - 1.0) < 1e-3


def test_azimuthal_factor_preserved(sphere60):
    """A z gradient preserves the (m, l) sectors: every normalized row lies in
    one sector, and on a circle of fixed (r, theta) an m = 1 cos row is
    proportional to cos(phi) and its sin twin to sin(phi)."""
    m, B = sphere60
    s = normalized(m, B, 2.0)
    sector = np.array([3 * ix.m + ix.l for ix in m.basis.indices])
    own = sector[np.argmax(np.abs(s.X), axis=1)]
    assert all(not np.any(row[sector != k]) for row, k in zip(s.X, own))
    r_, th_ = 0.6, 1.1
    phis = np.array([0.3, 1.0, 2.2, 4.0])
    pts = np.stack([r_ * np.sin(th_) * np.cos(phis),
                    r_ * np.sin(th_) * np.sin(phis),
                    np.full(4, r_ * np.cos(th_))], axis=1)
    for l, ang in ((1, np.cos), (2, np.sin)):
        v = fm.eval_eigenfunction(s.X[np.flatnonzero(own == 3 + l)[0]], m.basis, pts)
        ratios = v / ang(phis)
        assert abs(ratios[0]) > 0.01
        assert np.max(np.abs(ratios - ratios[0])) < 1e-8


def test_cos_member_of_each_pair_comes_first(sphere60):
    """In each exactly degenerate |m| >= 1 pair of canonical rows the cos
    member (l = 1, even in y) comes first and has a nonzero xz section; the
    sin member vanishes on y = 0."""
    m, B = sphere60
    s = canonical(normalized(m, B, 3.0))
    idx = m.basis.indices
    lead = [idx[i] for i in np.argmax(np.abs(s.X), axis=1)]
    w = s.eigenvalues
    pairs = [j for j in range(16) if w[j] == w[j + 1] and lead[j].m >= 1]
    assert len(pairs) >= 4 and any(lead[j].m % 2 for j in pairs)
    for j in pairs:
        assert (lead[j].l, lead[j + 1].l) == (1, 2) and lead[j].m == lead[j + 1].m
        cos, sin = (fm.export_projection(s, m.basis, k, resolution=41).values
                    for k in (j + 1, j + 2))
        assert np.nanmax(np.abs(cos)) > 0.1
        assert np.nanmax(np.abs(sin)) < 1e-12


def test_neumann_condition_soft(sphere60):
    m, B = sphere60
    s = canonical(normalized(m, B, 2.0))
    h = 1e-3
    dirs = np.array([[0.3, 0.1, 0.94], [0.0, 0.0, -1.0], [0.8, 0.0, 0.6]])
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    inner = fm.eval_eigenfunction(s.X[0], m.basis, dirs * (1 - 2 * h))
    outer = fm.eval_eigenfunction(s.X[0], m.basis, dirs * (1 - h))
    deriv = np.abs(outer - inner) / h
    vmax = 0.6  # magnitude scale of v1 at gbar = 2
    assert np.max(deriv) < 1e-2 * vmax * 10  # soft: truncation-limited


def test_cylinder_corner_localization():
    """High gradient at the tuned angle: the slowest conjugate pair localizes
    at two opposite corners of the xz section, and a middle-of-cap mode
    exists among the low modes (branch labels at high g are convention)."""
    eta = np.arctan(18.06 / 3.76)
    b = bas.build_cylinder_basis(450)
    m = mx.assemble_cylinder(b)
    B = mx.gradient_matrix(m, eta=eta)
    s = canonical(normalized(m, B, 100.0))
    half = b.aspect / 2

    def peak(j):
        grid = fm.export_projection(s, b, j, resolution=61)
        mags = np.where(grid.inside, np.abs(grid.values), 0.0)
        i, k = np.unravel_index(np.argmax(mags), mags.shape)
        return grid.axis1[i], grid.axis2[k]

    x1, z1 = peak(1)
    x2, z2 = peak(2)
    assert abs(x1) > 0.85 and abs(z1) > 0.85 * half   # corner
    assert abs(x2) > 0.85 and abs(z2) > 0.85 * half
    assert np.sign(x1) == -np.sign(x2) and np.sign(z1) == -np.sign(z2)
    # a mode localized at the middle of a cap edge among the first 12
    found = False
    for j in range(3, 13):
        xj, zj = peak(j)
        if abs(xj) < 0.2 and abs(zj) > 0.85 * half:
            found = True
            break
    assert found, "no middle-of-cap mode among the first 12"


def test_interval_and_disk_projections():
    bi = bas.build_interval_basis(12)
    mi = mx.assemble_interval(bi)
    s = canonical(normalized(mi, mx.gradient_matrix(mi), 1.0))
    grid = fm.export_projection(s, bi, 1, resolution=31)
    assert grid.values.shape == (1, 31)
    bd = bas.build_disk_basis(12)
    md = mx.assemble_disk(bd)
    s = canonical(normalized(md, mx.gradient_matrix(md), 1.0))
    grid = fm.export_projection(s, bd, 1, resolution=21, plane="xy")
    assert grid.inside.sum() > 0


ORACLE_CASES = {
    "z_sphere": ("sphere", {}),
    "tilted_sphere": ("sphere", {"theta_g": 0.7, "phi_g": 0.5}),
    "sphere_reduced": ("sphere_reduced", {}),
    "disk": ("disk", {}),
    "cylinder": ("cylinder", {"eta": 1.1}),
    "interval": ("interval", {}),
}


def _oracle_points(half, rng):
    """Random points over and around the domain, the origin, the z axis
    (xi = +-1), points just inside the boundary and points outside."""
    unit = rng.normal(size=(20, 3))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    eps = 1e-12
    special = [[0, 0, 0], [0, 0, 0.3], [0, 0, -0.3], [0, 0, half * (1 - eps)],
               [1 - eps, 0, 0], [0, -(1 - eps), 0.1], [0.3, 0, -half * (1 - eps)],
               [1, 0, 0], [0, 0, 1.5], [0, 0, half], [2, 2, 2]]
    return np.vstack([rng.uniform(-1.2, 1.2, size=(300, 3)), special,
                      unit * (1 - eps), unit * 1.01])


def _oracle_modes(basis, pts):
    """Mode values U[i, p] from quadoracle's eigenfunctions and the explicit
    cosine z-factor, and the inside mask, both computed independently."""
    x, y, z = pts.T
    h = basis.aspect
    g = basis.geometry
    rho, th = np.sqrt(x**2 + y**2), np.arctan2(y, x)
    r = np.sqrt(x**2 + y**2 + z**2)
    if g in ("sphere", "sphere_reduced"):
        xi = np.where(r > 0, z / np.where(r > 0, r, 1.0), 1.0)
        inside = x**2 + y**2 + z**2 < 1
        return np.array([qo._sphere_u(ix, r, xi, th) for ix in basis.indices]), inside
    zfac = [np.sqrt((2.0 - (ix.m == 0)) / h) * np.cos(np.pi * ix.m * (z + h / 2) / h)
            for ix in basis.indices] if g != "disk" else [1.0] * len(basis)
    inside_z = np.abs(z) < h / 2
    if g == "interval":
        return np.array(zfac, dtype=complex), inside_z
    U = np.array([qo._disk_u(ix, rho, th) * zf for ix, zf in zip(basis.indices, zfac)])
    return U, (x**2 + y**2 < 1) & (inside_z if g == "cylinder" else True)


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_eval_matches_per_mode_oracle(name):
    """The factored evaluation equals the per-mode sum of the explicit modes
    to 1e-13 max|v| for every row of a normalized spectrum (all m sectors)
    and a random complex and real row, with the same NaN mask."""
    geometry, kw = ORACLE_CASES[name]
    m = mx.operator_for(geometry, 12 if geometry == "interval" else 40, H=1.3)
    s = normalized(m, mx.gradient_matrix(m, **kw), 3.0)
    rng = np.random.default_rng(11)
    pts = _oracle_points(m.basis.aspect / 2, rng)
    U, inside = _oracle_modes(m.basis, pts)
    random_row = rng.normal(size=m.N) + 1j * rng.normal(size=m.N)
    random_row[::4] = 0
    if geometry == "sphere":
        msup = np.array([ix.m for ix in m.basis.indices])
        assert any(np.abs(row[msup != 0]).max() > 0.1 for row in s.X)
    for row in [*s.X, random_row, random_row.real]:
        v = fm.eval_eigenfunction(row, m.basis, pts)
        assert np.array_equal(np.isnan(v), ~inside)
        ref = row @ U[:, inside]
        assert np.max(np.abs(v[inside] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kw", [{}, {"theta_g": 0.7, "phi_g": 0.5}])
def test_factors_evaluated_once_per_distinct_coordinate(sphere60, monkeypatch, kw):
    """On a 201x201 sphere section, j_n(alpha_nk r) is evaluated once per
    distinct (n, k) and distinct inside radius (plus one value j_n(alpha_nk)
    for its normalization), and P_n^m once per distinct (n, m); the tilted
    row, which has every m, shares each radial factor among its m groups."""
    import scipy.special  # fieldmap imports it at its first evaluation

    m, _ = sphere60
    s = canonical(normalized(m, mx.gradient_matrix(m, **kw), 5.63))
    radial, legendre = [], []

    def spherical_jn(n, x, _f=scipy.special.spherical_jn):
        radial.append(np.size(x))
        return _f(n, x)

    def lpmv(order, degree, x, _f=scipy.special.lpmv):
        legendre.append((degree, order))
        return _f(order, degree, x)
    monkeypatch.setattr(scipy.special, "spherical_jn", spherical_jn)
    monkeypatch.setattr(scipy.special, "lpmv", lpmv)
    grid = fm.export_projection(s, m.basis, 1, resolution=201)
    modes = [m.basis.indices[i] for i in np.flatnonzero(np.abs(s.X[0]) > 0)]
    nk = {(ix.n, ix.k) for ix in modes}
    A1, A2 = np.meshgrid(grid.axis1, grid.axis2, indexing="ij")
    radii = len(np.unique(np.sqrt(A1 * A1 + A2 * A2)[grid.inside]))
    assert radii < grid.inside.sum() // 4
    assert sum(radial) <= len(nk) * (radii + 1)
    assert sorted(legendre) == sorted({(ix.n, ix.m) for ix in modes})
    if kw:
        assert len(modes) > 2 * len(nk)  # radial factors shared by several m
