import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

import besseloracle as bo
import scanoracle as so
from btspec import basis, specfun
from btspec.errors import ConvergenceError, DomainError


def dJ(n, count):
    """First `count` zeros of J_n', from a one-order pass of the scan."""
    return specfun._scan_kind("dJ", [n], count=count)[0]


def dj(n, count):
    """First `count` zeros of j_n', from a one-order pass of the scan."""
    return specfun._scan_kind("dj_spherical", [n], count=count)[0]


def test_j_minus_two_thirds_first_root():
    # root near 1.2430; plugging into sqrt(3)*(27/4)*j^2 must give ~18.06
    j1 = specfun.interval_branch_constants(1)[0]
    assert abs(special.jv(-2.0 / 3.0, j1)) < 1e-10
    assert abs(j1 - 1.2430) < 1e-3
    assert abs(np.sqrt(3.0) * 6.75 * j1**2 - 18.06) < 0.01


def test_interval_constants_against_paper_values():
    j = specfun.interval_branch_constants(2)
    g = np.sqrt(3.0) * 6.75 * j**2
    assert abs(g[0] - 18.06) < 0.01
    assert abs(g[1] - 229.35) < 0.01
    assert j[0] < j[1]


def test_zeros_dJ_table_values():
    assert abs(dJ(1, 1)[0] - 1.8412) < 1e-4
    assert abs(dJ(0, 1)[0] - 3.8317) < 1e-4
    assert abs(dJ(2, 1)[0] - 3.0542) < 1e-4
    # squares quoted in the eigenvalue table
    assert abs(dJ(1, 1)[0] ** 2 - 3.390) < 5e-3
    assert abs(dJ(0, 1)[0] ** 2 - 14.68) < 5e-3
    assert abs(dJ(2, 1)[0] ** 2 - 9.33) < 5e-3


def test_zeros_dj_spherical_table_values():
    assert abs(dj(1, 1)[0] - 2.0816) < 1e-4
    assert abs(dj(2, 1)[0] - 3.3421) < 1e-4
    assert abs(dj(0, 1)[0] - 4.4934) < 1e-4
    assert abs(dj(1, 1)[0] ** 2 - 4.333) < 5e-3
    assert abs(dj(2, 1)[0] ** 2 - 11.17) < 5e-3
    assert abs(dj(0, 1)[0] ** 2 - 20.19) < 5e-3


@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_zeros_dJ_against_scipy(n):
    # independent zero finder in scipy.special as the oracle
    ours = dJ(n, 20)
    ref = special.jnp_zeros(n, 20)
    assert np.max(np.abs(ours - ref)) < 1e-10


@pytest.mark.parametrize("n", [0, 1, 3, 8])
def test_certified_zeros_spherical(n):
    tab = dj(n, 12)
    f = lambda z: special.spherical_jn(n, z, derivative=True)
    h = 1e-6
    for z in tab:
        assert abs(f(z)) < 1e-10
        assert f(z - h) * f(z + h) < 0
    assert np.all(np.diff(tab) > 0)


def test_consecutive_dJ_zero_separation_exceeds_one():
    for n in (0, 1, 4):
        z = dJ(n, 15)
        assert np.all(np.diff(z) > 1.0)


def mcmahon_dJ(n: int, k: int) -> float:
    """Two-term McMahon estimate of the k-th positive zero of J_n'.

    The classical numbering counts the trivial zero of J_0' at the origin,
    so the k-th positive zero is its (k+1)-th for n = 0.
    """
    mu = 4.0 * n * n
    kk = k + 1 if n == 0 else k
    beta = (kk + 0.5 * n - 0.75) * np.pi
    return beta - (mu + 3.0) / (8.0 * beta)


def test_mcmahon_brackets_high_zeros():
    # for k >= 10 the zero lies within +-0.5 of the two-term McMahon estimate
    for n in (0, 2, 6):
        z = dJ(n, 16)
        for k in range(10, 17):
            assert abs(z[k - 1] - mcmahon_dJ(n, k)) < 0.5


def test_airy_constant():
    a1 = specfun.AIRY_DERIV_FIRST_ZERO
    assert abs(a1 - (-1.02)) < 0.005  # 2-decimal agreement with the quoted value
    _, aip, _, _ = special.airy(a1)
    assert abs(aip) < 1e-14


def test_zero_table_invariants():
    with pytest.raises(ValueError):
        specfun.ZeroTable(kind="dJ", order=0.0, zeros=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        specfun.ZeroTable(kind="dJ", order=0.0, zeros=np.array([-1.0, 1.0]))
    with pytest.raises(DomainError):
        specfun.interval_branch_constants(0)


def test_large_order_scan_does_not_pick_underflow_zeros():
    # j_n underflows to 0.0 near the origin for large n; the scanner must not
    # report zeros there
    z = dj(60, 2)
    assert z[0] > 60.0
    z = dJ(40, 2)
    assert z[0] > 40.0
    # the same in a multi-order pass, whose starts are 0.9 n too
    for kind in ("dJ", "dj_spherical"):
        tables = specfun.zeros_upto(kind, 70.0)
        assert len(tables) > 60
        assert all(t[0] > n for n, t in enumerate(tables) if n)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 120), count=st.integers(1, 40))
@example(n=0, count=40)
def test_zero_tables_equal_scalar_scan(n, count):
    # the array scan must reproduce the scalar loop bit for bit; from the
    # n = 0 start 1e-6 the running-sum grid differs from start + i * step
    assert np.array_equal(dJ(n, count), so.zeros_of_order(
        specfun.bessel_jvp, n, count, specfun.bessel_jvpp))
    assert np.array_equal(dj(n, count),
                          so.zeros_of_order(specfun.spherical_jnp, n, count))


def test_J_minus_two_thirds_equals_scalar_scan():
    assert np.array_equal(specfun.zeros_J_minus_two_thirds(12).zeros,
                          so.zeros_J_minus_two_thirds(12))


def test_J_minus_two_thirds_matches_scipy():
    """bessel_jv_frac gives J_{-2/3} and J_{1/3} within 1e-14 absolute of
    scipy.special.jv on [0.05, 200] (6.3e-15 and 9.9e-15 were measured on a
    grid of 2e5 points), and the first 40 zeros lie within 16 ulps (2e-15
    relative) of the same scan on scipy's functions (at most 15 ulps were
    measured, 24 of 40 bit for bit)."""
    nu = -2.0 / 3.0
    z = np.random.default_rng(9).uniform(0.05, 200.0, 5000)
    j, j1 = specfun.bessel_jv_frac(nu, z)
    assert np.max(np.abs(j - special.jv(nu, z))) <= 1e-14
    assert np.max(np.abs(j1 - special.jv(nu + 1, z))) <= 1e-14
    ours = specfun.zeros_J_minus_two_thirds(40).zeros
    ref = specfun._scan_zeros(special.jv, [nu], [0.05], count=40,
                              df=lambda n, z: special.jvp(n, z, 1))[0]
    assert np.all(np.abs(ours - ref) <= 16 * np.spacing(ref))


def test_scan_steps_past_a_grid_point_on_a_zero():
    # 0.5, 0.75, 1.0: the grid of order 0 hits its zero 1.0 exactly, and those
    # of orders 1 and 2 hit 1.25 and 1.5, all in one multi-order pass; each
    # moves on by step/7, and its next zero (2.2 + n) is bracketed on the
    # shifted grid.  Order 3 never hits.  Each row must equal the scalar scan
    # of its order.
    c = np.array([1.0, 1.25, 1.5, 1.1])
    f = lambda n, z: (z - c[n]) * (2.2 + n - z)
    df = lambda n, z: 2.2 + n + c[n] - 2 * z
    orders = np.arange(4)
    tables = specfun._scan_zeros(f, orders, np.full(4, 0.5), count=2, df=df)
    assert [t[0] for t in tables] == c.tolist()
    for n, t in zip(orders, tables):
        ref = so.scan_zeros(lambda z: f(n, z), 2, start=0.5, df=lambda z: df(n, z))
        assert np.array_equal(t, ref)
    # a pass up to a cutoff sees the same grids
    below = specfun._scan_zeros(f, orders, np.full(4, 0.5), upto=3.0, df=df)
    assert all(np.array_equal(b, t[t <= 3.0]) for b, t in zip(below, tables))


def test_scan_beyond_range_raises():
    with pytest.raises(ConvergenceError):
        specfun._scan_zeros(lambda n, z: np.cos(z), [0], [0.1], count=5, max_scan=10.0)


def test_certify_rejects_an_offset_table():
    f = lambda z: special.jvp(3, z, 1)
    z = dJ(3, 6)
    specfun._certify(f, z, 1e-10)
    with pytest.raises(ConvergenceError):
        specfun._certify(f, z + 1e-3, 1e-10)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["dJ", "dj_spherical"]), n=st.integers(0, 120),
       count=st.integers(1, 64))
def test_longer_table_prefix_equals_a_short_scan(kind, n, count):
    # a scan's grid does not depend on how many zeros it is asked for, so the
    # prefix of a longer table equals a scan for exactly `count` zeros
    make = dJ if kind == "dJ" else dj
    assert np.array_equal(make(n, 64)[:count], make(n, count))


def test_order_arrays_equal_per_order_calls():
    # a multi-order pass evaluates each kind with an array of orders; every
    # value must equal the call for its order alone, bit for bit, and be
    # finite (z far below n grows the backward recurrence the most)
    rng = np.random.default_rng(5)
    n, z = rng.integers(0, 130, 5000), rng.uniform(1e-6, 150.0, 5000)
    for f in (specfun.spherical_jnp, specfun.bessel_jvp, specfun.bessel_jvpp):
        one = np.array([f(int(a), float(b)) for a, b in zip(n, z)])
        assert f(n, z).tobytes() == one.tobytes()
        assert np.isfinite(one).all()


def test_evaluators_match_scipy():
    """The recurrences agree with scipy.special to 1e-14 absolute over the
    same random orders and arguments (the values are at most 1)."""
    rng = np.random.default_rng(6)
    n, z = rng.integers(0, 130, 5000), rng.uniform(1e-6, 150.0, 5000)
    for f, ref in ((specfun.spherical_jnp, special.spherical_jn(n, z, derivative=True)),
                   (specfun.bessel_jvp, special.jvp(n, z, 1)),
                   (specfun.bessel_jvpp, special.jvp(n, z, 2))):
        assert np.max(np.abs(f(n, z) - ref)) <= 1e-14


# zeros_upto's cutoffs of the N = 1000 sphere, reduced sphere and cylinder
N1000_CUTOFFS = [("dj_spherical", 24.385786094733813),
                 ("dj_spherical", 89.49860334105779), ("dJ", 26.80061756005056)]


@pytest.mark.parametrize("kind, zmax", N1000_CUTOFFS,
                         ids=["sphere", "sphere_reduced", "cylinder"])
def test_zeros_match_scipy_scans_up_to_the_N1000_cutoffs(kind, zmax):
    """Every zero of a basis up to N = 1000 lies within 4 ulps of the same
    scan on scipy.special's functions: the j_n' zeros are bit for bit
    (above n the forward recurrence is scipy's arithmetic), and at most 2
    ulps were measured on the J_n' zeros (83 of 100 bit for bit)."""
    ref_f = {"dJ": (lambda n, z: special.jvp(n, z, 1), lambda n, z: special.jvp(n, z, 2)),
             "dj_spherical": (lambda n, z: special.spherical_jn(n, z, derivative=True),
                              None)}[kind]
    ours = specfun.zeros_upto(kind, zmax)
    orders = np.arange(len(ours) + 1)
    ref = specfun._scan_zeros(ref_f[0], orders, np.maximum(1e-6, 0.9 * orders),
                              upto=zmax, df=ref_f[1])
    assert not ref[-1].size
    for a, b in zip(ours, ref):
        assert len(a) == len(b)
        assert np.all(np.abs(a - b) <= 4 * np.spacing(b))
        if kind == "dj_spherical":
            assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["dJ", "dj_spherical"]), zmax=st.floats(0.5, 90.0))
@example(kind="dJ", zmax=3.8317059702075125)  # on the first zero of J_0'
@example(kind="dJ", zmax=1.0)  # no zero at all: the evaluators see empty arrays
def test_multi_order_pass_equals_one_order_scans(kind, zmax):
    make = dJ if kind == "dJ" else dj
    tables = specfun.zeros_upto(kind, zmax)
    assert all(t.size for t in tables[1:])
    for n, t in enumerate(tables):
        one = make(n, len(t) + 1)
        assert np.array_equal(t, one[one <= zmax])
    assert make(len(tables), 1)[0] > zmax  # the list ends at the first empty order


# Every evaluator against scipy.special, and its exact value at z = 0 (0
# unless given here), as (ours, scipy's, derivative order, {n: value at 0}).
EVALUATORS = {
    "bessel_j": (specfun.bessel_j, special.jv, 0, {0: 1.0}),
    "bessel_jvp": (specfun.bessel_jvp, lambda n, z: special.jvp(n, z, 1), 1, {1: 0.5}),
    "bessel_jvpp": (specfun.bessel_jvpp, lambda n, z: special.jvp(n, z, 2), 2,
                    {0: -0.5, 2: 0.25}),
    "spherical_j": (specfun.spherical_j, special.spherical_jn, 0, {0: 1.0}),
    "spherical_jnp": (specfun.spherical_jnp,
                      lambda n, z: special.spherical_jn(n, z, derivative=True), 1,
                      {1: 1.0 / 3.0}),
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_at_zero_and_negative_arguments(name):
    """At z = 0 each evaluator gives its exact limit (scipy's value too), at
    z < 0 the parity f(n, -z) = (-1)^(n + d) f(n, z) of the d-th derivative,
    within 1e-14 of scipy, and at a subnormal z (where scipy's spherical_jn
    is NaN) the first term of the power series."""
    f, ref, d, at_zero = EVALUATORS[name]
    n = np.arange(60)
    exact = np.array([at_zero.get(k, 0.0) for k in n])
    for z in (0.0, -0.0):
        assert np.array_equal(f(n, z), exact)
        assert np.array_equal(ref(n, z), exact)
    rng = np.random.default_rng(8)
    n, z = rng.integers(0, 60, 3000), -rng.uniform(1e-6, 60.0, 3000)
    assert np.max(np.abs(f(n, z) - ref(n, z))) <= 1e-14
    assert np.array_equal(f(n, z), (-1.0) ** (n + d) * f(n, -z))
    assert f(0, -1.0) == (-1) ** d * f(0, 1.0)
    tiny = 1e-310
    first = {"bessel_j": (1, tiny / 2), "bessel_jvp": (0, -tiny / 2),
             "bessel_jvpp": (1, -3.0 / 4.0 * (tiny / 2)), "spherical_j": (1, tiny / 3),
             "spherical_jnp": (0, -tiny / 3)}[name]
    assert f(first[0], tiny) == first[1]
    assert f(first[0], -tiny) == (-1) ** (first[0] + d) * first[1]


@functools.cache
def _n1000(geometry):
    """(order, alpha) of every mode of the N = 1000 basis."""
    b = basis.build_basis(geometry, 1000)
    return np.array([ix.n for ix in b.indices]), b.alpha


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["sphere", "sphere_reduced", "disk", "cylinder"]),
       u=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=8))
@example(geometry="sphere", u=[0.0, 1.0])
@example(geometry="disk", u=[0.0, 1e-300, 1e-9, 1.0])
def test_radial_evaluators_match_scipy_on_the_N1000_bases(geometry, u):
    """bessel_j (disk and cylinder) and spherical_j (both spheres) at every
    order n and zero alpha of an N = 1000 basis, at alpha u for u in [0, 1],
    agree with scipy.special to 1e-14 absolute (the values are at most 1, and
    a fieldmap sums them with weights of order 1; 1.7e-15 was measured).
    Subnormal u are left out: scipy's spherical_jn is NaN at a subnormal z,
    and test_evaluators_at_zero_and_negative_arguments pins ours there."""
    n, alpha = _n1000(geometry)
    z = alpha[:, None] * np.array(u)
    f, ref = ((specfun.spherical_j, special.spherical_jn) if "sphere" in geometry
              else (specfun.bessel_j, special.jv))
    assert np.max(np.abs(f(n[:, None], z) - ref(n[:, None], z))) <= 1e-14


def _equals_full_table(n, z):
    """Each evaluator equals the full-table recurrences of besseloracle bit for
    bit at (n, z), and bessel_jv_frac (nu = -2/3 and 1/3) at the z >= _TINY:
    it has no power-series path, and below about 1e-20 its recurrence
    overflows in both routes."""
    for name in ("bessel_j", "bessel_jvp", "bessel_jvpp", "spherical_j", "spherical_jnp"):
        got, ref = getattr(specfun, name)(n, z), getattr(bo, name)(n, z)
        assert np.shape(got) == np.shape(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes(), name
    zf = np.asarray(z, dtype=float).ravel()
    zf = zf[zf >= specfun._TINY]
    for nu in (-2.0 / 3.0, 1.0 / 3.0):
        for got, ref in zip(specfun.bessel_jv_frac(nu, zf), bo.bessel_jv_frac(nu, zf)):
            assert got.tobytes() == ref.tobytes(), nu


@settings(max_examples=60, deadline=None)
@given(nz=st.lists(st.tuples(st.integers(0, 120),
                             st.floats(0.0, 400.0, exclude_min=True)), min_size=1, max_size=60))
@example(nz=[(60, 0.01), (120, 1e-3), (3, 400.0)])  # rescaled columns, see below
@example(nz=[(0, 5e-9), (7, 1e-300), (120, 9.9e-9)])  # below _TINY
@example(nz=[(5, 2.0)])  # one column
def test_recurrences_equal_the_full_table(nz):
    """The chunked recurrences keep only the rows they read; every value is
    the full table's, bit for bit.  Up to 60 columns of start up to about
    480 span several chunks of _CHUNK_ENTRIES entries once there are more
    than about 34 of them.  J_60(0.01) is about 1e-220 against its
    recurrence's start value 1, so that column is scaled by 2^-500 on the
    way down; at (120, 1e-3) it is scaled four times."""
    n, z = (np.array(v) for v in zip(*nz))
    _equals_full_table(n, z)
    _equals_full_table(n, -z)  # parity


def test_recurrences_equal_the_full_table_at_the_edges():
    """z = 0, empty input, a scalar, and one call of 5000 columns whose rows
    span many chunks (5000 columns x at least 12 rows > _CHUNK_ENTRIES)."""
    assert 1e-230 < specfun.bessel_j(60, 0.01) < 1e-210  # the rescaled column
    _equals_full_table(np.arange(121), np.zeros(121))
    _equals_full_table(np.zeros(0, dtype=int), np.zeros(0))
    _equals_full_table(4, 3.5)
    rng = np.random.default_rng(38)
    n, z = rng.integers(0, 121, 5000), rng.uniform(0.0, 400.0, 5000)
    z[:50] = rng.uniform(0.0, 0.05, 50)  # deep recurrences, rescaled
    assert 5000 * 12 > specfun._CHUNK_ENTRIES
    _equals_full_table(n, z)
    _equals_full_table(60, z)  # one order: every column's rows shift with z


@pytest.mark.parametrize("max_order", [10, 60])
def test_spherical_j_memory_does_not_grow_with_the_order(max_order):
    """The tracemalloc peak of spherical_j on 20,000 points stays below 32
    times the input's z.nbytes at either highest order: measured 16.0 at 10
    and 25.4 at 60 (the full tables gave 27.6 and 210.7).  What remains
    grows with the share of columns that take Miller's recurrence, not with
    the order."""
    rng = np.random.default_rng(7)
    n, z = rng.integers(0, max_order + 1, 20_000), rng.uniform(0.0, 50.0, 20_000)
    tracemalloc.start()
    try:
        specfun.spherical_j(n, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * z.nbytes
