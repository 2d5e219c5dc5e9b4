import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadoracle as qo
import setuporacle as so
from btspec import basis as bas
from btspec import matrices as mx
from btspec.errors import DomainError, MatrixAssemblyError

QUAD_TOL = 1e-8


@pytest.fixture(scope="module")
def sphere10():
    b = bas.build_sphere_basis(10)
    return b, mx.assemble_sphere(b)


def test_sphere_elements_match_quadrature(sphere10):
    b, m = sphere10
    qx, qy, qz, overlap = qo.sphere_matrices_by_quadrature(b)
    assert np.max(np.abs(m.Bx - qx)) < QUAD_TOL
    assert np.max(np.abs(m.By - qy)) < QUAD_TOL
    assert np.max(np.abs(m.Bz - qz)) < QUAD_TOL
    # the real harmonics are orthonormal under integral(u_a u_b)
    assert np.max(np.abs(overlap - np.eye(len(b)))) < QUAD_TOL


def test_reduced_sphere_elements_match_quadrature():
    m = mx.operator_for("sphere_reduced", 8)
    q = qo.reduced_sphere_matrix_by_quadrature(m.basis)
    assert np.max(np.abs(m.Bz - q)) < 1e-10


def test_disk_elements_match_quadrature():
    b = bas.build_disk_basis(9)
    m = mx.assemble_disk(b)
    qx, qy = qo.disk_matrices_by_quadrature(b)
    assert np.max(np.abs(m.Bx - qx)) < QUAD_TOL
    assert np.max(np.abs(m.By - qy)) < QUAD_TOL


def test_interval_elements_match_quadrature():
    b = bas.build_interval_basis(8)
    m = mx.assemble_interval(b)
    q = qo.interval_matrix_by_quadrature(b)
    assert np.max(np.abs(m.Bz - q)) < QUAD_TOL


def test_cylinder_elements_match_quadrature():
    b = bas.build_cylinder_basis(9)
    m = mx.assemble_cylinder(b)
    qx, qy, qz = qo.cylinder_matrices_by_quadrature(b)
    assert np.max(np.abs(m.Bx - qx)) < QUAD_TOL
    assert np.max(np.abs(m.By - qy)) < QUAD_TOL
    assert np.max(np.abs(m.Bz - qz)) < QUAD_TOL


def test_tall_cylinder_matches_quadrature():
    b = bas.build_cylinder_basis(9, R=1.0, H=2.5)
    m = mx.assemble_cylinder(b)
    qx, qy, qz = qo.cylinder_matrices_by_quadrature(b)
    assert np.max(np.abs(m.Bx - qx)) < QUAD_TOL
    assert np.max(np.abs(m.Bz - qz)) < QUAD_TOL


@pytest.mark.parametrize("N, H", [(60, 1.0), (60, 2.5)])
def test_cylinder_assembly_equals_loop_reference(N, H):
    """The factor-gathered cylinder matrices equal, bit for bit, the
    element-by-element loop they replace."""
    b = bas.build_cylinder_basis(N, R=1.0, H=H)
    m = mx.assemble_cylinder(b)
    idx = b.indices
    al = [so.alpha("dJ", ix.n, ix.k) for ix in idx]
    Bx, By, Bz = (np.zeros((len(b), len(b))) for _ in range(3))
    for i, ia in enumerate(idx):
        for j, ib in enumerate(idx):
            if ia.m == ib.m:
                Bx[i, j], By[i, j] = so.disk_xy(ia, al[i], ib, al[j])
            if (ia.n, ia.k, ia.l) == (ib.n, ib.k, ib.l):
                Bz[i, j] = b.aspect * so.b_element_interval(ia.m, ib.m)
    for got, ref in ((m.Bx, Bx), (m.By, By), (m.Bz, Bz)):
        assert got.tobytes() == ref.tobytes()


def _cylinder_sweep_factors():
    disk, interval, _, _ = mx.cylinder_factors(bas.build_cylinder_basis(200))
    return disk, interval


@pytest.mark.parametrize("make", [
    lambda: (mx.operator_for("disk", 60), mx.operator_for("interval", 12)),
    lambda: (mx.operator_for("disk", 100), mx.operator_for("interval", 40, H=2.5)),
    _cylinder_sweep_factors,
], ids=["N60", "N100", "cylinder_sweep_factors"])
def test_disk_and_interval_assembly_equal_the_scalar_loops(make):
    """The index-array disk and interval matrices equal, bit for bit, the
    loops of disk_xy and b_element_interval over all (a, b) pairs
    (tests/setuporacle.py), also on the factors of the cylinder-sweep
    (N = 200) cylinder."""
    disk, interval = make()
    Bx, By = so.disk_matrices(disk.basis.indices)
    assert disk.Bx.tobytes() == Bx.tobytes() and disk.By.tobytes() == By.tobytes()
    Bz = so.interval_matrix([ix.m for ix in interval.basis.indices], interval.basis.aspect)
    assert interval.Bz.tobytes() == Bz.tobytes()


def test_hermiticity_everywhere():
    mats = [
        mx.assemble_sphere(bas.build_sphere_basis(30)),
        mx.operator_for("sphere_reduced", 20),
        mx.assemble_disk(bas.build_disk_basis(20)),
        mx.assemble_interval(bas.build_interval_basis(15)),
        mx.assemble_cylinder(bas.build_cylinder_basis(25)),
    ]
    for m in mats:
        for B in (m.Bx, m.By, m.Bz):
            if B is not None:
                assert np.max(np.abs(B - np.conj(B.T))) < 1e-14


def test_sphere_component_reality():
    # every basis is real, so every B is a real (float64) symmetric matrix
    mats = [mx.assemble_sphere(bas.build_sphere_basis(30)),
            mx.assemble_disk(bas.build_disk_basis(20)),
            mx.assemble_interval(bas.build_interval_basis(15)),
            mx.assemble_cylinder(bas.build_cylinder_basis(25))]
    for m in mats:
        for B in (m.Bx, m.By, m.Bz):
            if B is not None:
                assert B.dtype == np.float64
                assert np.max(np.abs(B - B.T)) < 1e-15


def test_sphere_sector_couplings(sphere10):
    """B^z keeps (m, l); B^x couples cos to cos and sin to sin, and B^y cos
    to sin, across m' = m +- 1, with no entry at m = m'."""
    b, m = sphere10
    l = np.array([ix.l for ix in b.indices])
    mm = np.array([ix.m for ix in b.indices])
    same_l, dm = l[:, None] == l, np.abs(mm[:, None] - mm)
    assert not np.any(m.Bz[~(same_l & (dm == 0))])
    assert not np.any(m.Bx[~(same_l & (dm == 1))])
    assert not np.any(m.By[~(~same_l & (dm == 1))])
    assert np.any(m.By) and np.all(l[mm == 0] == 1)
    # cos(phi) sin(phi) sin(2 phi) / pi: the sin_1 - cos_2 and cos_1 - sin_2
    # y elements are opposite multiples of their x counterpart
    idx = {(ix.n, ix.k, ix.l, ix.m): i for i, ix in enumerate(b.indices)}
    c1, s1, c2, s2 = idx[1, 0, 1, 1], idx[1, 0, 2, 1], idx[2, 0, 1, 2], idx[2, 0, 2, 2]
    assert m.By[c1, s2] == m.Bx[c1, c2] == m.Bx[s1, s2] == -m.By[s1, c2] != 0


def test_sphere_Bz_restricted_to_m0_equals_reduced(sphere10):
    b, m = sphere10
    m0 = [i for i, ix in enumerate(b.indices) if ix.m == 0]
    sub = m.Bz[np.ix_(m0, m0)]
    red = mx.operator_for("sphere_reduced", len(m0))
    # the reduced basis is the sphere's m = 0 sector, index for index
    assert red.basis.indices == tuple(b.indices[i] for i in m0)
    assert np.array_equal(red.lam, m.lam[m0])
    assert np.array_equal(red.Bz, sub)
    assert red.Bx is None and red.By is None


def test_sphere_diagonal_of_B_vanishes(sphere10):
    _, m = sphere10
    for B in (m.Bx, m.By, m.Bz):
        assert np.max(np.abs(np.diag(B))) == 0.0


def test_interval_entries():
    b = bas.build_interval_basis(6)
    m = mx.assemble_interval(b)
    assert np.max(np.abs(np.diag(m.Bz))) == 0.0
    assert abs(m.Bz[0, 1] - (-2 * np.sqrt(2) / np.pi**2)) < 1e-15
    assert np.max(np.abs(m.Bz)) <= 0.5  # |z| <= 1/2 on the unit interval


def test_disk_cross_sector_zeros():
    b = bas.build_disk_basis(20)
    m = mx.assemble_disk(b)
    for a, ia in enumerate(b.indices):
        for c, ic in enumerate(b.indices):
            if ia.l != ic.l:
                assert m.Bx[a, c] == 0.0
            else:
                assert m.By[a, c] == 0.0


def test_entry_bounds():
    m = mx.assemble_sphere(bas.build_sphere_basis(40))
    for B in (m.Bx, m.By, m.Bz):
        assert np.max(np.abs(B)) <= 1.0
    tall = mx.assemble_cylinder(bas.build_cylinder_basis(30, R=1.0, H=3.0))
    bound = max(1.0, 3.0 / 2.0)
    for B in (tall.Bx, tall.By, tall.Bz):
        assert np.max(np.abs(B)) <= bound


def test_reduced_first_element_value():
    # independently derived: B(00,10) = integral of u_0 z u_1 over the ball
    m = mx.operator_for("sphere_reduced", 4)
    assert abs(m.Bz[0, 1].real - 0.4448045478941) < 1e-10
    assert np.max(np.abs(m.Bz - m.Bz.T)) < 1e-15  # symmetric formula


def test_gradient_matrix_axis_cases(sphere10):
    _, m = sphere10
    assert np.array_equal(mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0), m.Bz)
    Bx = mx.gradient_matrix(m, theta_g=np.pi / 2, phi_g=0.0)
    assert np.max(np.abs(Bx - m.Bx)) < 1e-15
    cyl = mx.assemble_cylinder(bas.build_cylinder_basis(9))
    assert np.array_equal(mx.gradient_matrix(cyl, eta=np.pi / 2), cyl.Bz)
    assert np.array_equal(mx.gradient_matrix(cyl, eta=0.0), cyl.Bx)


def test_gradient_matrix_hermitian_any_direction(sphere10):
    _, m = sphere10
    B = mx.gradient_matrix(m, theta_g=1.1, phi_g=0.7)
    assert np.max(np.abs(B - np.conj(B.T))) < 1e-15


_ANGLE = st.floats(-7.0, 7.0)


@functools.cache
def _operator(geometry):
    return mx.operator_for(geometry, 40)


@settings(max_examples=40, deadline=None)
@given(theta=_ANGLE, phi=_ANGLE, eta=_ANGLE)
@example(theta=np.pi / 2, phi=np.pi / 2, eta=np.pi / 2)
@example(theta=np.pi, phi=0.0, eta=-np.pi / 2)
def test_gradient_matrix_is_weighted_by_gradient_direction(theta, phi, eta):
    """gradient_direction is a unit vector, and gradient_matrix weights the
    B's by it: all three on the sphere, and on the cylinder cos(eta) B^x +
    sin(eta) B^z with rounding residues below 1e-15 dropped."""
    e = mx.gradient_direction("sphere", theta_g=theta, phi_g=phi)
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-15
    m = _operator("sphere")
    want = (np.sin(theta) * np.cos(phi) * m.Bx + np.sin(theta) * np.sin(phi) * m.By
            + np.cos(theta) * m.Bz)
    assert np.array_equal(mx.gradient_matrix(m, theta_g=theta, phi_g=phi), want)

    e = mx.gradient_direction("cylinder", eta=eta)
    assert abs(np.linalg.norm(e) - 1.0) <= 1e-15
    m = _operator("cylinder")
    cx, cz = (0.0 if abs(c) < 1e-15 else c for c in (np.cos(eta), np.sin(eta)))
    assert np.array_equal(mx.gradient_matrix(m, eta=eta), cx * m.Bx + cz * m.Bz)


def test_gradient_direction_defaults():
    assert mx.gradient_direction("sphere") == (0.0, 0.0, 1.0)
    assert mx.gradient_direction("cylinder") == (1.0, 0.0, 0.0)
    assert mx.gradient_direction("disk") == (1.0, 0.0, 0.0)
    assert mx.gradient_direction("interval") == (0.0, 0.0, 1.0)
    assert mx.gradient_direction("sphere_reduced") == (0.0, 0.0, 1.0)
    assert mx.gradient_direction("cylinder", eta=np.pi / 2) == (0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        mx.gradient_direction("cube")


def test_cylinder_block_structure():
    b = bas.build_cylinder_basis(25)
    m = mx.assemble_cylinder(b)
    for a, ia in enumerate(b.indices):
        for c, ic in enumerate(b.indices):
            if ia.m != ic.m:
                assert m.Bx[a, c] == 0.0 and m.By[a, c] == 0.0
            if (ia.n, ia.k, ia.l) != (ic.n, ic.k, ic.l):
                assert m.Bz[a, c] == 0.0


def test_denominator_guard():
    with pytest.raises(MatrixAssemblyError):
        mx._check_denom(2.0, 2.0 + 1e-9)
    # the index-array assembly checks every |n - n'| = 1 pair: give mode
    # (1, 0, 0) the alpha of mode (2, 0, 0), as a corrupted table would
    b = bas.build_sphere_basis(10)
    pos = {(ix.n, ix.k, ix.l, ix.m): i for i, ix in enumerate(b.indices)}
    alpha = b.alpha.copy()
    alpha[pos[1, 0, 1, 0]] = alpha[pos[2, 0, 1, 0]] + 1e-9
    with pytest.raises(MatrixAssemblyError):
        mx.assemble_sphere(replace(b, alpha=alpha))


def test_geometry_mismatch_rejected():
    b = bas.build_disk_basis(5)
    with pytest.raises(DomainError):
        mx.assemble_sphere(b)


@settings(max_examples=20, deadline=None)
@given(geometry=st.sampled_from(["sphere", "sphere_reduced", "disk", "cylinder",
                                 "tall_cylinder"]),
       N=st.integers(1, 400))
@example(geometry="sphere", N=400)
@example(geometry="sphere_reduced", N=400)
def test_set_up_equals_per_order_oracle(geometry, N):
    """Basis and matrices from the multi-order zero scan and the index-array
    sphere assembly equal, bit for bit, the per-order requests and the pair
    loop they replace (tests/setuporacle.py)."""
    h = 2.5 if geometry == "tall_cylinder" else 1.0
    g = "cylinder" if geometry == "tall_cylinder" else geometry
    m = mx.operator_for(g, N, H=h)
    idx, lams, alphas = so.build(g, N, h)
    assert m.basis.indices == idx
    assert m.basis.eigenvalues.tobytes() == lams.tobytes()
    assert m.basis.alpha.tobytes() == alphas.tobytes()
    assert m.lam.tobytes() == lams.tobytes()
    if g == "sphere":
        ref = so.sphere_matrices(idx)
    elif g == "sphere_reduced":
        ref = (None, None, so.sphere_matrices(idx)[2])
    elif g == "disk":
        ref = (*so.disk_matrices(idx), None)
    else:
        ref = so.cylinder_matrices(idx, h)
    for got, want in zip((m.Bx, m.By, m.Bz), ref):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
