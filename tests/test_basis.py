import numpy as np
import pytest

from btspec import basis as bas
from btspec import matrices as mx
from btspec import specfun
from btspec.errors import DomainError

import setuporacle as so

SPHERE_17 = [0.0] + [4.33] * 3 + [11.17] * 5 + [20.19] + [20.38] * 7
CYL_13 = [0.0, 3.39, 3.39, 9.33, 9.33, 9.87, 13.26, 13.26, 14.68,
          17.65, 17.65, 19.20, 19.20]


def test_sphere_constant_mode():
    b = bas.build_sphere_basis(1)
    assert len(b) == 1
    assert b.eigenvalues[0] == 0.0
    ix = b.indices[0]
    assert (ix.n, ix.k, ix.l, ix.m) == (0, 0, 1, 0)


def test_sphere_first_four():
    b = bas.build_sphere_basis(4)
    assert np.allclose(b.eigenvalues, [0.0, 4.333, 4.333, 4.333], atol=5e-4)
    labels = [(ix.n, ix.k, ix.l, ix.m) for ix in b.indices]
    assert labels == [(0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 1), (1, 0, 2, 1)]


def test_sphere_table_of_17():
    b = bas.build_sphere_basis(17)
    assert len(b) == 17
    for lam, ref in zip(b.eigenvalues, SPHERE_17):
        assert abs(lam - ref) <= 0.005
    # (m, l) ordering convention inside each family: m ascending, cos (l = 1)
    # before sin (l = 2)
    fam2 = [(ix.n, ix.m, ix.l) for ix in b.indices[4:9]]
    assert fam2 == [(2, 0, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]


def test_cylinder_table_of_13():
    b = bas.build_cylinder_basis(13)
    assert len(b) == 13
    for lam, ref in zip(b.eigenvalues, CYL_13):
        assert abs(lam - ref) <= 0.005
    # l = 1 before l = 2, and the nklm identities of the table
    labels = [(ix.n, ix.k, ix.l, ix.m) for ix in b.indices]
    assert labels[0] == (0, 0, 1, 0)
    assert labels[1:3] == [(1, 0, 1, 0), (1, 0, 2, 0)]
    assert labels[5] == (0, 0, 1, 1)
    assert labels[8] == (0, 1, 1, 0)
    assert labels[11:13] == [(2, 0, 1, 1), (2, 0, 2, 1)]


def test_cylinder_trivial_and_six():
    assert bas.build_cylinder_basis(1).eigenvalues.tolist() == [0.0]
    b = bas.build_cylinder_basis(6)
    assert np.allclose(b.eigenvalues, [0, 3.39, 3.39, 9.33, 9.33, 9.87], atol=5e-3)


def test_reduced_sphere_first_three():
    b = bas.build_basis("sphere_reduced", 3)
    assert np.allclose(b.eigenvalues, [0.0, 4.333, 11.17], atol=5e-4)
    assert [(ix.n, ix.k) for ix in b.indices] == [(0, 0), (1, 0), (2, 0)]


def test_interval_basis():
    b = bas.build_interval_basis(2)
    assert np.allclose(b.eigenvalues, [0.0, np.pi**2])
    b = bas.build_interval_basis(4, H=2.0)
    assert np.allclose(b.eigenvalues, (np.pi * np.arange(4) / 2.0) ** 2)


def test_disk_basis():
    b = bas.build_disk_basis(3)
    assert np.allclose(b.eigenvalues, [0.0, 3.39, 3.39], atol=5e-3)
    labels = [(ix.n, ix.l) for ix in b.indices]
    assert labels == [(0, 1), (1, 1), (1, 2)]


def test_no_sin_sector_for_n0():
    for b in (bas.build_disk_basis(40), bas.build_cylinder_basis(40)):
        for ix in b.indices:
            if ix.n == 0:
                assert ix.l == 1


def test_sphere_degeneracy_multiplicities():
    b = bas.build_sphere_basis(60)
    from collections import Counter
    fams = Counter((ix.n, ix.k) for ix in b.indices)
    for (n, k), mult in fams.items():
        assert mult == 2 * n + 1


def test_cylinder_degeneracy_multiplicities():
    b = bas.build_cylinder_basis(40)
    from collections import Counter
    fams = Counter((ix.n, ix.k, ix.m) for ix in b.indices)
    for (n, k, m), mult in fams.items():
        assert mult == (2 if n > 0 else 1)


def test_truncation_never_splits_class():
    b = bas.build_sphere_basis(12)
    assert len(b) == 17  # the 20.38 family is 7-fold and must stay whole
    cid = b.class_id
    assert cid[-1] == cid[10]  # entries 11..17 share one class


def test_prefix_property():
    small = bas.build_sphere_basis(20)
    big = bas.build_sphere_basis(80)
    n = len(small)
    assert np.array_equal(small.eigenvalues, big.eigenvalues[:n])
    assert all(a == b for a, b in zip(small.indices, big.indices[:n]))
    small = bas.build_cylinder_basis(15)
    big = bas.build_cylinder_basis(70)
    n = len(small)
    assert np.array_equal(small.eigenvalues, big.eigenvalues[:n])
    assert all(a == b for a, b in zip(small.indices, big.indices[:n]))


def test_build_stability():
    a = bas.build_cylinder_basis(30)
    b = bas.build_cylinder_basis(30)
    assert a.indices == b.indices
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_eigenvalues_nondecreasing_everywhere():
    for geometry in ("sphere", "sphere_reduced", "disk"):
        ev = bas.build_basis(geometry, 50).eigenvalues
        assert np.all(np.diff(ev) >= -1e-12)


def test_bad_arguments():
    with pytest.raises(DomainError):
        bas.build_sphere_basis(0)
    with pytest.raises(DomainError):
        bas.build_cylinder_basis(5, R=-1.0)
    with pytest.raises(DomainError):
        bas.build_basis("torus", 5)


def test_cylinder_aspect_changes_axial_spacing():
    tall = bas.build_cylinder_basis(30, R=1.0, H=2.0)
    assert tall.aspect == 2.0
    # first axial excitation sits at (pi/h)^2 = pi^2/4
    vals = tall.eigenvalues
    assert np.any(np.abs(vals - np.pi**2 / 4) < 1e-9)


@pytest.mark.parametrize("N", [20, 100])
def test_thin_cylinder_basis_is_the_disk_basis(N):
    """At H/R = 1e-6 the first axial mode sits at (pi/h)^2, about 1e13, so
    the first N cylinder modes are the disk's, all with m = 0.  The zero scan
    starts at the disk's cut, not at the 3-D Weyl cut (about 5e5 here),
    where the build did not end within 30 s."""
    c, d = bas.build_cylinder_basis(N, H=1e-6), bas.build_disk_basis(N)
    assert np.array_equal(c.eigenvalues, d.eigenvalues)
    assert all(ix.m == 0 for ix in c.indices)


@pytest.mark.parametrize("geometry, N, calls", [
    ("sphere", 333, {"dj_spherical": 46}),
    ("sphere", 100, {"dj_spherical": 46}),
    ("cylinder", 200, {"dJ": 52}),
    ("sphere_reduced", 700, {"dj_spherical": 46}),
])
def test_cold_set_up_special_function_calls(monkeypatch, geometry, N, calls):
    """A cold basis build plus assembly makes one multi-order zero scan: one
    evaluator call for the starts and one for all grids, one per bisection
    step for all brackets, the Newton steps (dJ only: J_n' and J_n'') and
    three to certify.  The per-order requests they replace made 743, 529,
    846 and 10,629 calls."""
    counts = {}

    def counted(kind, f):
        def call(n, z):
            counts[kind] = counts.get(kind, 0) + 1
            return f(n, z)
        return None if f is None else call
    monkeypatch.setattr(specfun, "_KINDS", {kind: tuple(counted(kind, f) for f in fs)
                                            for kind, fs in specfun._KINDS.items()})
    mx.assemble_operator(bas.build_basis(geometry, N))
    assert counts == calls


def _same_basis(b, ref):
    idx, lams, alphas = ref
    assert b.indices == idx
    assert b.eigenvalues.tobytes() == lams.tobytes()
    assert b.alpha.tobytes() == alphas.tobytes()


@pytest.mark.parametrize("h", [1e-3, 0.3, 1.0, 2.5, 10.0, 469.567, 1e4])
def test_cylinder_basis_equals_every_order_generator(h):
    """Generating at most N axial orders per radial family gives the basis of
    the generator that lists every order under the cut, bit for bit, from
    a thin disk (h = 1e-3) to a tall tube (h = 1e4)."""
    for N in (1, 20, 60, 200):
        _same_basis(bas.build_cylinder_basis(N, H=h), so.cylinder_every_order(N, h))


def test_cylinder_basis_follows_a_class_past_the_order_limit(monkeypatch):
    """With DEGENERACY_RTOL at 1e-6, the first axial orders of the constant
    family of an h = 1e4 cylinder (spacing 9.87e-8 (2m + 1) from m to m + 1)
    are one class, m = 0 to 5, which runs past N = 1 and 2: the order limit
    grows until no order left out could join it, and the basis is still the
    every-order generator's."""
    monkeypatch.setattr(bas, "DEGENERACY_RTOL", 1e-6)
    for N in (1, 2):
        b = bas.build_cylinder_basis(N, H=1e4)
        assert [ix.m for ix in b.indices] == list(range(6))
        _same_basis(b, so.cylinder_every_order(N, 1e4))


def test_tall_cylinder_candidates_are_bounded(monkeypatch):
    """At h = 1e6 the cut holds about 5.9e5 axial orders of each of its
    three radial families; build_cylinder_basis lists at most 5 N
    candidates (N orders of each family, l = 1, 2 for n > 0)."""
    sizes, collect = [], bas._collect

    def counted(generate, N, cut):
        def gen(c):
            out = generate(c)
            sizes.append(len(out))
            return out
        return collect(gen, N, cut)

    monkeypatch.setattr(bas, "_collect", counted)
    b = bas.build_cylinder_basis(20, H=1e6)
    assert len(b) == 20 and [ix.m for ix in b.indices] == list(range(20))
    assert max(sizes) <= 5 * 20
