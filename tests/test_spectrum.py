import functools

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from btspec import basis as bas
from btspec import branchpoints as bp
from btspec import matrices as mx
from btspec import spectrum as sp
from btspec.errors import NumericalError


def _residual(mat, B, spec) -> float:
    """max_j ||X_j M - lambda_j X_j|| / ||M||, a solver quality metric."""
    M = mat.bloch_torrey(B, spec.gbar)
    R = spec.X @ M - spec.eigenvalues[:, None] * spec.X
    scale = np.linalg.norm(M) or 1.0  # the zero operator (N = 1 at gbar = 0)
    rownorm = np.linalg.norm(R, axis=1) / np.maximum(np.linalg.norm(spec.X, axis=1), 1e-300)
    return float(np.max(rownorm) / scale)


def normalized(m, B, g):
    return sp.normalize(sp.diagonalize(m, B, g))


def test_zero_gradient_reproduces_basis(sphere60):
    m, B = sphere60
    s = sp.diagonalize(m, B, 0.0)
    assert np.max(np.abs(s.eigenvalues.imag)) < 1e-12
    assert np.max(np.abs(np.sort(s.eigenvalues.real) - m.lam)) < 1e-10


def test_paper_eigenvalues_at_g2_and_g15(sphere100):
    m, B = sphere100
    s2 = sp.diagonalize(m, B, 2.0, eigvals_only=True)
    lam1 = s2.eigenvalues[np.argmin(s2.eigenvalues.real)]
    assert abs(lam1 - 0.188) < 2e-3
    s15 = sp.diagonalize(m, B, 15.0, eigvals_only=True)
    lam1 = s15.eigenvalues[np.argmin(s15.eigenvalues.real)]
    assert abs(lam1.real - 4.67) < 0.02
    assert abs(abs(lam1.imag) - 6.68) < 0.02


def test_residuals_are_small(sphere60):
    m, B = sphere60
    for g in (0.0, 2.0, 15.0):
        s = sp.diagonalize(m, B, g)
        assert _residual(m, B, s) < 1e-9


def test_bilinear_orthonormality(sphere60):
    m, B = sphere60
    for g in (0.0, 2.0, 15.0):
        raw = sp.diagonalize(m, B, g)
        s = sp.normalize(raw)
        vv = np.abs(np.diag(raw.X @ raw.X.T))
        assert np.allclose(s.vv, vv, rtol=1e-12, atol=1e-15)
        ok = ~s.near_branch
        G = s.X @ s.X.T
        dev = np.abs(G - np.eye(m.N))[np.ix_(ok, ok)]
        assert dev.max() < 1e-7
        # off-diagonal example quoted for g = 2
        if g == 2.0:
            assert abs(G[0, 2]) < 1e-7


def test_pt_conjugation_closure(sphere60, cylinder60):
    m, B = sphere60
    for g in (3.0, 9.0, 18.0):
        w = sp.diagonalize(m, B, g, eigvals_only=True).eigenvalues
        for v in w[:30]:
            assert np.min(np.abs(w - np.conj(v))) < 1e-8 * max(1.0, abs(v))
    mc = cylinder60
    Bc = mx.gradient_matrix(mc, eta=0.9)
    w = sp.diagonalize(mc, Bc, 7.0, eigvals_only=True).eigenvalues
    for v in w[:30]:
        assert np.min(np.abs(w - np.conj(v))) < 1e-8 * max(1.0, abs(v))


def test_preserved_pair_degeneracy(sphere60):
    # the cos/sin pairs of each m >= 1 stay exactly degenerate under a z gradient
    m, B = sphere60
    for g in (4.0, 15.0):
        w = np.sort_complex(sp.diagonalize(m, B, g, eigvals_only=True).eigenvalues)
        gaps = np.abs(np.diff(w))
        assert np.sum(gaps < 1e-8) >= 10


def _block_case(name, sphere60, cylinder60, disk60):
    """(mat, B, expected number of blocks, (mat, B) of the dense oracle)."""
    m, B = sphere60
    sectors = len({(ix.m, ix.l) for ix in m.basis.indices})
    if name == "sphere_z":
        return m, B, sectors, (m, B)
    if name == "sphere_z_unequal_twins":
        # same Lambda in the m = 1 cos and sin blocks but different B: not twins
        s1 = [i for i, ix in enumerate(m.basis.indices) if (ix.m, ix.l) == (1, 2)]
        Bu = B.copy()
        Bu[np.ix_(s1, s1)] *= 1.5
        return m, Bu, sectors, (m, Bu)
    if name == "sphere_tilted":
        Bt = mx.gradient_matrix(m, theta_g=0.3, phi_g=0.2)
        return m, Bt, 1, (m, Bt)
    if name == "sphere_xz":
        # a gradient in the xz plane keeps the mirror symmetry y -> -y: the
        # cos (even) and sin (odd) modes form two blocks
        Bt = mx.gradient_matrix(m, theta_g=0.3, phi_g=0.0)
        return m, Bt, 2, (m, Bt)
    if name == "sphere_reduced":
        # the m = 0 sector of the full operator is the reduced operator, so
        # its eigenvalues are found in the full dense spectrum
        m0 = [i for i, ix in enumerate(m.basis.indices) if ix.m == 0]
        red = mx.operator_for("sphere_reduced", len(m0))
        return red, mx.gradient_matrix(red), 1, (m, B)
    if name == "cylinder":
        Bc = mx.gradient_matrix(cylinder60, eta=0.9)
        return cylinder60, Bc, 2, (cylinder60, Bc)
    if name == "disk":
        return disk60[0], disk60[1], 2, disk60
    mi = mx.assemble_interval(bas.build_interval_basis(20))
    Bi = mx.gradient_matrix(mi)
    return mi, Bi, 1, (mi, Bi)


@pytest.mark.parametrize("name", ["sphere_z", "sphere_z_unequal_twins",
                                  "sphere_tilted", "sphere_xz", "sphere_reduced",
                                  "cylinder", "disk", "interval"])
def test_block_solve_matches_dense(name, sphere60, cylinder60, disk60):
    m, B, n_blocks, (m_ref, B_ref) = _block_case(name, sphere60, cylinder60, disk60)
    blocks = sp.partition(m.lam, B).blocks
    assert len(blocks) == n_blocks
    label = np.empty(m.N, dtype=int)
    for k, (ix, *_) in enumerate(blocks):
        label[ix] = k
    # the partition is exact: B has no entry between different blocks
    assert np.all(B[label[:, None] != label[None, :]] == 0)
    for g in (0.0, 2.0, 7.0, 11.0, 15.0):
        w = sp.diagonalize(m, B, g, eigvals_only=True).eigenvalues
        pool = sla.eigvals(m_ref.bloch_torrey(B_ref, g))
        d = np.abs(w[:, None] - pool[None, :])
        r, c = linear_sum_assignment(d)
        assert np.all(d[r, c] <= 1e-10 * np.maximum(1.0, np.abs(w[r]))), g
        s = sp.diagonalize(m, B, g)
        assert _residual(m, B, s) < 1e-9
        # every raw row is zero outside its block
        lead = np.argmax(np.abs(s.X), axis=1)
        assert np.all(s.X[label[None, :] != label[lead][:, None]] == 0)
        assert np.array_equal(s.block, label[lead])
        assert np.array_equal(sp.partition(m.lam, B).label, label)
        if name == "sphere_z":
            # the cos and sin sectors of one m are solved once: bit-identical
            # eigenvalues
            ms, ls = (np.array([getattr(ix, q) for ix in m.basis.indices])[lead]
                      for q in "ml")
            for mv in range(1, ms.max() + 1):
                assert np.array_equal(w[(ms == mv) & (ls == 1)], w[(ms == mv) & (ls == 2)])
        # every row normalizes on its own: degenerate cos/sin rows lie in
        # different blocks, so their bilinear product is exactly 0
        sn = sp.normalize(s)
        assert not sn.near_branch.any()
        G = sn.X @ sn.X.T
        assert np.abs(G - np.eye(m.N)).max() < 1e-7


@pytest.mark.parametrize("name", ["sphere_z", "disk", "cylinder", "sphere_tilted"])
def test_own_blocks_restriction_is_exact(name, sphere60, cylinder60, disk60):
    """The operator restricted to the blocks of some modes solves the same
    blocks as the full solve, so its rows equal the full spectrum's rows of
    those blocks bit for bit (compared with ==)."""
    m, B = {"sphere_z": sphere60, "disk": disk60,
            "cylinder": (cylinder60, mx.gradient_matrix(cylinder60, eta=np.pi / 4)),
            "sphere_tilted": (sphere60[0], mx.gradient_matrix(sphere60[0], theta_g=0.3, phi_g=0.2)),
            }[name]
    label = sp.partition(m.lam, B).label
    for modes in ([0], [2], [0, 7]):
        sub, B_sub, ix = sp.own_blocks(m, B, modes)
        keep = np.isin(label, label[modes])
        assert np.array_equal(ix, np.flatnonzero(keep))
        assert np.array_equal(B_sub, B[np.ix_(ix, ix)])
        if name == "sphere_tilted":
            assert sub.N == m.N  # one block: the whole operator
        if name == "sphere_z":
            # a cos or sin sector of one m comes alone, without its twin
            ml = [(q.m, q.l) for q in m.basis.indices]
            assert {ml[i] for i in ix} == {ml[i] for i in modes}
        for g in (2.0, 7.0, 12.0):
            for only in (True, False):
                full = sp.diagonalize(m, B, g, eigvals_only=only)
                part = sp.diagonalize(sub, B_sub, g, eigvals_only=only)
                rows = np.flatnonzero(np.isin(full.block, label[ix]))
                assert np.array_equal(part.eigenvalues, full.eigenvalues[rows])
                if not only:
                    assert np.array_equal(part.X, full.X[np.ix_(rows, ix)])
                    assert np.all(full.X[np.ix_(rows, ~keep)] == 0)


def test_point_with_a_cut_twin_pair_has_its_own_norm(sphere60, sphere60_sweep13):
    """max_branch = 3 keeps one member of the m = 1 cos/sin pair merging at
    11.98: the point has the single branch 2 (the cos member), refined on its
    own block alone, and vv_min is its row's own bilinear self-product."""
    m, B = sphere60
    points = bp.find_branch_points(m, B, sphere60_sweep13, max_branch=3)
    p = next(p for p in points if p.branches == (2,))
    assert (m.basis.indices[2].m, m.basis.indices[2].l) == (1, 1)
    assert abs(p.g_star - 11.98) < 0.01
    assert p.order == 2
    assert p.meta["vv_min"] > 0
    assert p.meta["min_principal_angle"] is None
    _, _, ix = sp.own_blocks(m, B, p.branches)
    assert {m.basis.indices[i].l for i in ix} == {1}


def test_lapack_failure_names_gbar_and_block(sphere60, monkeypatch):
    m, B = sphere60
    size = max(len(ix) for ix, *_ in sp.partition(m.lam, B).blocks)
    assert size < m.N
    geev = sp._geev

    def failing(M, vectors):
        w, vl, info = geev(M, vectors)
        return w, vl, 1 if M.shape[-1] == size else info

    monkeypatch.setattr(sp, "_geev", failing)
    for only in (True, False):
        with pytest.raises(NumericalError,
                           match=rf"gbar=3\.5 on a block of size {size} "):
            sp.diagonalize(m, B, 3.5, eigvals_only=only)


@pytest.mark.parametrize("info", [1, -4], ids=["no_convergence", "illegal_argument"])
def test_nonzero_geev_info_raises(monkeypatch, info):
    """Neither return code of geev passes silently: no convergence (info > 0)
    and an illegal argument (info < 0) both raise NumericalError."""
    monkeypatch.setattr(sp, "_geev", lambda M, vectors: (np.zeros(len(M)), None, info))
    lam, B_b = np.array([1.0, 2.0, 3.0]), np.ones((3, 3))
    for only in (True, False):
        with pytest.raises(NumericalError, match=rf"gbar=2\.0 on a block of size 3 "
                                                 rf"\(LAPACK geev info={info},"):
            sp._solve_block(lam, B_b, 2.0, only)


@settings(max_examples=30, deadline=None)
@given(geometry=st.sampled_from(["sphere", "tilted_sphere", "disk", "interval"]),
       N=st.integers(1, 30), entries=st.integers(1, 400),
       g=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=40))
def test_stacked_block_solve_is_bit_identical_to_scalar_solves(geometry, N, entries, g):
    """On every distinct block, a 1-d array of gbar gives one result per
    gbar, from one _geev call per chunk of at most STACK_ENTRIES entries
    (drawn small, so the arrays span several chunks).  Each eigenvalue row
    is numpy.linalg.eigvals of that one matrix diag(lam_b) + gbar*K, sorted
    by (Re, Im), byte for byte, and each vector stack numpy.linalg.eig's
    columns of that matrix in the same order."""
    m = _small_operator("sphere" if geometry == "tilted_sphere" else geometry, N)
    B = mx.gradient_matrix(m, **({"theta_g": 0.7, "phi_g": 0.4}
                                 if geometry == "tilted_sphere" else {}))
    g = np.array(g)
    shapes, geev, limit = [], sp._geev, sp.STACK_ENTRIES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "STACK_ENTRIES", entries)
        mp.setattr(sp, "_geev", lambda M, vectors: shapes.append(M.shape) or geev(M, vectors))
        for _, _, lam_b, K, _ in sp.partition(m.lam, B).blocks:
            if lam_b is None:
                continue
            n, step = len(lam_b), sp._chunk_len(len(lam_b))
            for only in (True, False):
                shapes.clear()
                W, Z = sp._solve_block(lam_b, K, g, only)
                assert W.shape == (len(g), n) and (Z is None) == only
                assert [s[0] for s in shapes] == [len(g[i:i + step])
                                                  for i in range(0, len(g), step)]
                assert all(s[0] == 1 or np.prod(s) <= entries for s in shapes)
                for i, gi in enumerate(g):
                    M = gi * K
                    np.fill_diagonal(M, lam_b)
                    w = np.linalg.eigvals(M).astype(complex)
                    order = np.lexsort((w.imag, w.real))
                    assert W[i].tobytes() == w[order].tobytes()
                    if not only:
                        w, v = np.linalg.eig(M)
                        assert np.array_equal(Z[i], v.T[np.lexsort((w.imag, w.real))])
    assert sp.STACK_ENTRIES == limit


def test_failed_matrix_of_a_stack_names_its_gbar(sphere60, monkeypatch):
    """A chunk in which one matrix fails is solved again one matrix at a
    time (each a stack of one), and the failing one raises NumericalError
    naming its gbar and the block size; a non-finite gbar in the array is
    refused before any geev call."""
    m, B = sphere60
    lam_b, K = next((b[2], b[3]) for b in sp.partition(m.lam, B).blocks if len(b[0]) == 12)
    g = np.linspace(0.0, 12.0, 241)
    bad = np.diag(lam_b) + g[57] * K
    calls, geev = [], sp._geev

    def failing(M, vectors):
        calls.append(M.shape)
        w, v, info = geev(M, vectors)
        hit = (M.reshape(-1, 12, 12) == bad).all(axis=(1, 2)).any()
        return w, v, 1 if hit else info

    monkeypatch.setattr(sp, "_geev", failing)
    with pytest.raises(NumericalError, match=rf"gbar={g[57]} on a block of size 12 "
                                             rf"\(LAPACK geev info=1,"):
        sp._solve_block(lam_b, K, g, True)
    assert calls[0] == (sp._chunk_len(12), 12, 12) and calls[-1] == (1, 12, 12)
    calls.clear()
    for x in (np.nan, np.inf):
        with pytest.raises(NumericalError, match=f"gbar={x} on a block of size 12: not finite"):
            sp._solve_block(lam_b, K, np.r_[g[:5], x, g[5:]], True)
    assert calls == []


def test_linalg_error_raises_numerical_error(sphere60, monkeypatch):
    """numpy's LinAlgError (geev did not converge) ends in NumericalError,
    with and without vectors, as return code 1 of _geev."""
    def failing(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eig", failing)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    m, B = sphere60
    for only in (True, False):
        with pytest.raises(NumericalError, match=r"gbar=3\.5 on a block of size \d+ "
                                                 r"\(LAPACK geev info=1,"):
            sp.diagonalize(m, B, 3.5, eigvals_only=only)


def test_nan_gbar_raises_numerical_error(sphere60):
    """A NaN gradient strength is an illegal argument to LAPACK (info < 0):
    it raises NumericalError, not scipy's ValueError."""
    m, B = sphere60
    with pytest.raises(NumericalError, match="gbar=nan on a block of size"):
        sp.diagonalize(m, B, float("nan"), eigvals_only=True)


@pytest.mark.parametrize("case", ["gbar_nan", "gbar_inf", "B_inf"])
def test_non_finite_input_never_reaches_lapack(sphere60, capfd, case):
    """A NaN or infinite gbar, or an infinite entry of B, raises
    NumericalError naming the block size before any geev call, so LAPACK's
    xerbla prints nothing to the process's stdout (fd 1)."""
    m, B = sphere60
    g = {"gbar_nan": float("nan"), "gbar_inf": float("inf")}.get(case, 2.0)
    if case == "B_inf":
        B = B.copy()
        B[0, 1] = B[1, 0] = np.inf
    match = "on a block of size" if case == "B_inf" else f"gbar={g} on a block of size"
    for only in (True, False):
        with pytest.raises(NumericalError, match=match):
            sp.diagonalize(m, B, g, eigvals_only=only)
    assert capfd.readouterr().out == ""


def _distinct_blocks(name, sphere60):
    if name == "disk_factor":
        disk = mx.cylinder_factors(bas.build_cylinder_basis(60))[0]
        return disk, np.cos(np.deg2rad(78.23931266613657)) * disk.Bx
    m, B = sphere60
    if name == "sphere_tilted":
        B = mx.gradient_matrix(m, theta_g=0.3, phi_g=0.2)
    return m, B


@pytest.mark.parametrize("name", ["sphere_z", "sphere_tilted", "disk_factor"])
def test_block_solve_is_bit_identical_to_scipy(name, sphere60):
    """On every distinct block's real form diag(lam_b) + gbar*K, at several
    gbar, the block solve gives bit for bit (tolerance 0) the values of
    sla.eigvals without vectors and of sla.eig(left=True, right=False) with
    them, and diagonalize's rows of the block are its rows mapped by
    y = z * d, zero outside the block (the rows themselves are checked by
    test_block_rows_are_left_eigenvectors).  The values agree with the
    complex matrix diag(lam_b) + i*gbar*B_b to 1e-11 relative (at most
    3.7e-13 was measured on random sphere and disk operators)."""
    mat, B = _distinct_blocks(name, sphere60)
    blocks = [(k, blk) for k, blk in enumerate(sp.partition(mat.lam, B).blocks)
              if blk[2] is not None]
    assert len(blocks) > 1 or name == "sphere_tilted"
    for g in (0.0, 0.7, 4.73, 11.98, 25.0):
        spec = sp.diagonalize(mat, B, g)
        for k, (ix, _, lam_b, K, d) in blocks:
            M = np.diag(lam_b) + g * K
            w, Z = sp._solve_block(lam_b, K, g, True)
            ref = sla.eigvals(M, check_finite=False)
            order = np.lexsort((ref.imag, ref.real))
            assert Z is None and np.array_equal(w, ref[order])
            w, Z = sp._solve_block(lam_b, K, g, False)
            ref = sla.eig(M, left=True, right=False, check_finite=False)[0]
            order = np.lexsort((ref.imag, ref.real))
            assert np.array_equal(w, ref[order])
            rows = spec.X[spec.block == k]
            assert np.array_equal(rows[:, ix], Z * d)
            assert np.count_nonzero(rows) == np.count_nonzero(Z)
            pool = sla.eigvals(np.diag(lam_b) + 1j * g * B[np.ix_(ix, ix)])
            assert _multiset_deviation(w, pool) <= 1e-11, (g, k)


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["sphere", "tilted_sphere", "disk", "interval",
                                 "cylinder"]),
       N=st.integers(1, 40), g=st.floats(0.0, 30.0),
       theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_block_rows_are_left_eigenvectors(geometry, N, g, theta, phi):
    """On every distinct block at a random gbar (the z sphere, a sphere
    gradient in a random direction, the disk, the interval and the cylinder
    at a random angle): the values without vectors are bit for bit those of
    sla.eigvals; the rows z * d, from right eigenvectors z of the real form,
    are left eigenvectors of the complex block diag(lam_b) + i*gbar*B_b to
    1e-12 * ||M||; and each row of a well-separated eigenvalue (no other
    within 1e-4 relative) equals, to 1e-9, the row made from the left
    eigenvectors of sla.eig(left=True, right=False), as the block solve made
    it before (conj(vl).T / d), up to a unit factor: both are unit rows,
    and LAPACK makes the largest component real, which picks a sign (a
    phase when two components have one magnitude, as in a pair past its
    branch point).  Bilinear normalization removes that factor up to sign,
    and the sign is fixed after it (spectrum._sign_fix)."""
    m = _small_operator("sphere" if geometry == "tilted_sphere" else geometry, N)
    direction = {"tilted_sphere": {"theta_g": theta, "phi_g": phi},
                 "cylinder": {"eta": theta}}.get(geometry, {})
    B = mx.gradient_matrix(m, **direction)
    for ix, _, lam_b, K, d in sp.partition(m.lam, B).blocks:
        if lam_b is None:
            continue
        M = np.diag(lam_b) + g * K
        w, _ = sp._solve_block(lam_b, K, g, True)
        ref = sla.eigvals(M, check_finite=False)
        assert np.array_equal(w, ref[np.lexsort((ref.imag, ref.real))])
        w, Z = sp._solve_block(lam_b, K, g, False)
        rows = Z * d
        A = np.diag(lam_b) + 1j * g * B[np.ix_(ix, ix)]
        scale = max(np.linalg.norm(M), 1.0)
        assert np.linalg.norm(rows @ A - w[:, None] * rows, axis=1).max() <= 1e-12 * scale
        ref, vl = sla.eig(M, left=True, right=False, check_finite=False)
        old = vl.conj().T[np.lexsort((ref.imag, ref.real))] / d
        gap = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(len(w), np.inf))
        lone = gap.min(axis=1) > 1e-4 * np.maximum(1.0, np.abs(w))
        phase = np.einsum("ij,ij->i", old[lone].conj(), rows[lone])
        assert np.allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-9)
        phase /= np.abs(phase)
        assert np.all(np.abs(rows[lone] - phase[:, None] * old[lone]) <= 1e-9)


def _multiset_deviation(w, pool):
    """Largest |w - pool| / max(1, |pool|) under the best one-to-one pairing."""
    dev = np.abs(w[:, None] - pool[None, :]) / np.maximum(1.0, np.abs(pool))
    r, c = linear_sum_assignment(dev)
    return float(dev[r, c].max())


# Relative agreement of the real form with the complex solve, from 8,000
# random draws per geometry of the property below: at most 3.7e-13 (sphere)
# and 2.9e-13 (disk); the interval reached 2.8e-11, near its branch points,
# where eigenvalues move as the square root of a perturbation.
REAL_FORM_RTOL = {"sphere": 1e-11, "disk": 1e-11, "interval": 1e-9}


@functools.lru_cache(maxsize=None)
def _small_operator(geometry, N):
    return mx.operator_for(geometry, N)


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["sphere", "disk", "interval"]),
       N=st.integers(1, 40), g=st.floats(0.0, 30.0),
       theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_real_form_matches_the_complex_solve(geometry, N, g, theta, phi):
    """At a random gbar and sphere direction, diagonalize (one real geev
    call per distinct block) gives the eigenvalues of the complex matrix
    Lambda + i*gbar*B as a multiset, and its mapped rows are left
    eigenvectors of that complex matrix (_residual < 1e-12)."""
    m = _small_operator(geometry, N)
    B = mx.gradient_matrix(m, theta, phi) if geometry == "sphere" else mx.gradient_matrix(m)
    spec = sp.diagonalize(m, B, g)
    pool = sla.eigvals(m.bloch_torrey(B, g))
    assert _multiset_deviation(spec.eigenvalues, pool) <= REAL_FORM_RTOL[geometry]
    assert _residual(m, B, spec) < 1e-12


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["sphere", "tilted_sphere", "disk", "interval",
                                 "cylinder"]),
       N=st.integers(1, 40), g=st.floats(0.0, 30.0),
       theta=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
def test_non_real_eigenvalues_come_with_their_exact_conjugates(geometry, N, g,
                                                               theta, phi):
    """Every eigenvalue that is not real (spectrum.is_real) has its exact
    conjugate, as often as itself, in its own block: the z sphere, a sphere
    gradient in a random direction, the disk, the interval and the cylinder
    at a random gradient angle."""
    m = _small_operator("sphere" if geometry == "tilted_sphere" else geometry, N)
    direction = {"tilted_sphere": {"theta_g": theta, "phi_g": phi},
                 "cylinder": {"eta": theta}}.get(geometry, {})
    spec = sp.diagonalize(m, mx.gradient_matrix(m, **direction), g, eigvals_only=True)
    for k in np.unique(spec.block):
        w = spec.eigenvalues[spec.block == k]
        z = w[~sp.is_real(w)]
        for v in z:
            assert np.count_nonzero(z == v.conjugate()) == np.count_nonzero(z == v)


def test_block_cache_follows_values_not_identity():
    """An in-place change of B is seen by the next solve: B scaled in place
    after a solve gives, as 2B at gbar = 3, the spectrum of B at gbar = 6,
    bit for bit."""
    m = mx.operator_for("sphere", 60)
    B = mx.gradient_matrix(m).copy()
    want = sp.diagonalize(m, B, 6.0).eigenvalues
    sp.diagonalize(m, B, 3.0)
    B *= 2
    assert sp.diagonalize(m, B, 3.0).eigenvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 0)], [(1, 1)]],
                         ids=["triangle", "diagonal"])
def test_odd_cycle_raises(edges):
    """A B whose nonzero graph has an odd cycle (here a triangle, or a
    nonzero diagonal entry) has no phases that make it real: partition raises
    NumericalError instead of solving a wrong real form."""
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    B = np.zeros((4, 4))
    B[3, 0] = B[0, 3] = 0.5
    for i, j in edges:
        B[i, j] = B[j, i] = 0.25
    with pytest.raises(NumericalError, match="odd cycle"):
        sp.partition(lam, B)


def _reachable_partition(adj):
    """Components by brute force: the rows of the transitive closure of
    adj (with every node reaching itself), as sorted tuples."""
    reach = adj | np.eye(len(adj), dtype=bool)
    while True:
        wider = (reach.astype(int) @ reach.astype(int)) > 0
        if np.array_equal(wider, reach):
            break
        reach = wider
    return sorted({tuple(np.flatnonzero(row)) for row in reach})


@st.composite
def _graphs(draw, bipartite=False):
    """A symmetric boolean adjacency on 1 to 30 nodes; when bipartite, an
    edge only joins nodes of opposite random sides."""
    n = draw(st.integers(1, 30))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    adj = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        if not bipartite or side[i] != side[j]:
            adj[i, j] = adj[j, i] = True
    return adj


@settings(max_examples=100, deadline=None)
@given(adj=_graphs())
def test_components_are_the_reachability_classes(adj):
    """_components partitions the nodes as brute-force reachability does,
    with sorted members and the components ordered by smallest node."""
    comps, _ = sp._components(adj)
    assert [tuple(c) for c in comps] == _reachable_partition(adj)


@settings(max_examples=100, deadline=None)
@given(adj=_graphs(bipartite=True))
def test_components_two_colour_a_bipartite_graph(adj):
    """On a bipartite graph every edge joins nodes of opposite parity, and
    each component's smallest node has parity 0."""
    comps, parity = sp._components(adj)
    i, j = np.nonzero(adj)
    assert np.all(parity[i] != parity[j])
    assert all(parity[c[0]] == 0 for c in comps)


_values = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=_values, rel=st.floats(-3e-8, 3e-8), offset=st.sampled_from([0, 1e-9, 1e-8, 1]))
def test_same_value_is_symmetric_and_makes_the_classes(a, rel, offset):
    """same_value(a, b) == same_value(b, a), and two values form one
    degenerate class exactly when they are the same value."""
    b = a * (1 + rel) + offset * 1j
    same = bool(sp.same_value(a, b))
    assert same == bool(sp.same_value(b, a))
    cid = sp._degenerate_classes(np.array([a, b]))
    assert cid.tolist() == ([0, 0] if same else [-1, -1])


@pytest.mark.parametrize("x", [9.0538445, 9.0538445 + 1e-15])
def test_canonical_order_keeps_a_straddling_family_together(x):
    """Two conjugate pairs whose real parts are two ulps apart are one
    real-part group, also when those parts straddle a multiple of 1e-6
    (x = 9.0538445): the Im > 0 members come first."""
    y = np.nextafter(np.nextafter(x, np.inf), np.inf)
    w = np.array([x + 0.3j, x - 0.3j, y + 0.3j, y - 0.3j])
    assert sp.canonical_order(w).tolist() == [0, 2, 1, 3]


def test_near_branch_point_flagging(sphere60):
    m, B = sphere60
    # refine the first branch point to ~1e-12, where the bilinear norm of the
    # merging pair dips below the flag threshold
    M0 = np.diag(m.lam).astype(complex)
    cnt = lambda g: int(np.sum(sla.eigvals(M0 + 1j * g * B).imag > 1e-6))
    lo, hi = 5.5, 5.75
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if cnt(mid) > 0:
            hi = mid
        else:
            lo = mid
    g_star = 0.5 * (lo + hi)
    s = normalized(m, B, g_star)
    order = np.argsort(s.eigenvalues.real)
    assert s.near_branch[order[0]] and s.near_branch[order[1]]
    assert s.vv[order[0]] < 1e-6
    # away from the branch point nothing is flagged
    s2 = normalized(m, B, 2.0)
    assert not s2.near_branch.any()


def _one_class(rows) -> sp.Spectrum:
    """normalize of a hand-built spectrum whose rows form one degenerate class."""
    rows = np.asarray(rows, dtype=complex)
    s = sp.normalize(sp.Spectrum(gbar=1.0, eigenvalues=np.full(len(rows), 2.0 + 0j),
                                 X=rows))
    assert (s.degenerate_class == 0).all() and not s.near_branch.any()
    return s


def test_normalize_class_trivial_grams():
    # rows with bilinear Gram identity (a complex rotation of real orthonormal
    # rows) are kept, and with Gram 2 * identity are divided by sqrt(2)
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((6, 2)))[0].T
    t = 0.4 + 0.3j
    rows = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]) @ q
    assert np.allclose(rows @ rows.T, np.eye(2))
    for scale in (1.0, np.sqrt(2.0)):
        out = _one_class(scale * rows).X
        for o, v in zip(out, rows):
            assert np.allclose(o, v * sp._sign_fix(v))


def test_normalize_class_random_grams():
    # property: for random rows, re-orthogonalization yields Gram = identity
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        C = rows @ rows.T  # bilinear Gram: transpose, no conjugate
        if abs(np.linalg.det(C)) < 1e-6:
            continue
        X = _one_class(rows).X
        assert np.max(np.abs(X @ X.T - np.eye(2))) < 1e-10


def test_normalize_class_antidiagonal_gram():
    # cos +- i sin (the e^{+-i m phi} harmonics in the real basis) have the
    # bilinear Gram [[0, 2], [2, 0]]
    u1 = np.array([1.0, 1j])
    u2 = np.array([1.0, -1j])
    C = np.array([u1, u2]) @ np.array([u1, u2]).T
    assert np.array_equal(C, [[0, 2], [2, 0]])
    X = _one_class([u1, u2]).X
    assert np.max(np.abs(X @ X.T - np.eye(2))) < 1e-12


def test_normalize_three_row_class():
    """A class of three rows is orthonormalized as one: no pair is left
    with a bilinear product between its rows."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    X = _one_class(rows).X
    assert np.max(np.abs(X @ X.T - np.eye(3))) < 1e-10
    # the rows span the class's eigenspace: X = T rows for an invertible T
    T = np.linalg.lstsq(rows.T, X.T, rcond=None)[0].T
    assert np.allclose(T @ rows, X, rtol=0, atol=1e-12)


def test_sign_fix_ignores_rounding_noise_in_the_real_part():
    """A purely imaginary reference coefficient with a real part of rounding
    noise (+-1e-18, or 0) gets Im > 0, whatever the sign of the noise; this
    holds for X[j, 0] and for the largest-coefficient fallback."""
    for re in (1e-18, -1e-18, 0.0, -0.0):
        for im in (0.347, -0.347):
            for row in ([complex(re, im), 0.5, 0.1], [0, complex(re, im), 0.1]):
                row = np.array(row, dtype=complex)
                assert sp._sign_fix(row) * im > 0
    # a real part above 1e-12 relative still decides
    assert sp._sign_fix(np.array([complex(-1e-11, 0.347), 0.5])) == -1.0


def test_negative_g_spectrum(sphere60):
    m, B = sphere60
    s = normalized(m, B, 7.0)
    sm = sp.spectrum_at_negative_g(s)
    assert sm.gbar == -7.0
    assert np.allclose(sm.eigenvalues, np.conj(s.eigenvalues))
    # reconstructed -g eigenfunctions satisfy the -g eigenproblem
    Mneg = np.diag(m.lam).astype(complex) - 7.0j * B
    R = sm.X @ Mneg - sm.eigenvalues[:, None] * sm.X
    assert np.max(np.abs(R)) < 1e-9 * np.linalg.norm(Mneg)
    # Gamma via conjugation route equals the closed form conj(X) X^T
    G1 = sm.X @ s.X.T
    G2 = np.conj(s.X) @ s.X.T
    assert np.max(np.abs(G1 - G2)) < 1e-8
    # identity at g = 0
    s0 = normalized(m, B, 0.0)
    s0m = sp.spectrum_at_negative_g(s0)
    assert np.allclose(s0m.eigenvalues, s0.eigenvalues)


def test_truncation_robustness():
    # first 17 eigenvalues at g in {2, 15} move by < 1e-4 relative from
    # N=250 to N=333
    b1 = bas.build_sphere_basis(250)
    m1 = mx.assemble_sphere(b1)
    B1 = mx.gradient_matrix(m1, theta_g=0.0, phi_g=0.0)
    b2 = bas.build_sphere_basis(333)
    m2 = mx.assemble_sphere(b2)
    B2 = mx.gradient_matrix(m2, theta_g=0.0, phi_g=0.0)
    for g in (2.0, 15.0):
        w1 = np.sort_complex(sp.diagonalize(m1, B1, g, eigvals_only=True).eigenvalues)
        w2 = sp.diagonalize(m2, B2, g, eigvals_only=True).eigenvalues
        for v in w1[:17]:
            assert np.min(np.abs(w2 - v)) < 1e-4 * max(1.0, abs(v))


def test_sign_convention_reproducible(sphere60):
    m, B = sphere60
    a = normalized(m, B, 3.0)
    b = normalized(m, B, 3.0)
    assert np.array_equal(a.X, b.X)
    ok = ~a.near_branch
    mu = a.X[ok, 0]
    mu = mu[np.abs(mu) > 1e-12]
    # Re mu > 0, or Im mu > 0 where Re mu is rounding noise on an imaginary mu
    tie = np.abs(mu.real) <= 1e-12 * np.abs(mu)
    assert np.all(np.where(tie, mu.imag, mu.real) > 0)
    assert tie.any() and not tie.all()
    # a row whose two largest coefficients agree to rounding with opposite
    # signs, either one the larger by an ulp
    c, c_up = 0.6, np.nextafter(0.6, 1.0)
    for row in ([0, c, -c_up], [0, c_up, -c]):
        row = np.array(row, dtype=complex)
        assert (row[1] * sp._sign_fix(row)).real > 0
    # the rows of a restriction to exact blocks are the full route's rows
    labels = sp.partition(m.lam, B).label
    for k in np.unique(labels):
        sub, B_sub, ix = sp.own_blocks(m, B, [0, np.argmax(labels == k)])
        r = normalized(sub, B_sub, 3.0)
        rows = np.isin(a.block, labels[ix])
        assert np.array_equal(r.eigenvalues, a.eigenvalues[rows])
        assert np.max(np.abs(r.X - a.X[np.ix_(rows, ix)])) <= 1e-12
