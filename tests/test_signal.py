import functools
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btspec import matrices as mx
from btspec import signal as sig
from btspec import spectrum as sp
from btspec.errors import ConfigError, NumericalError


def coeffs_at(m, B, g):
    s = sp.normalize(sp.diagonalize(m, B, g))
    return s, sig.compute_coefficients(s)


def test_pulse_plan_dimensionless_conversion():
    # reference physical parameters give gbar ~ 2 and 15
    plan = sig.PulsePlan(delta=5e-3, D0=2.3e-9, gamma=2.675e8, G=17e-3, R=10e-6)
    assert abs(plan.gbar - 1.9772) < 1e-3
    assert abs(plan.gbar - 2.0) < 0.03
    assert abs(plan.tbar - 2.3e-9 * 5e-3 / 1e-10) < 1e-12
    plan_b = sig.PulsePlan(delta=5e-3, D0=2.3e-9, gamma=2.675e8, G=129e-3, R=10e-6)
    assert abs(plan_b.gbar - 15.0) < 0.01
    d = sig.PulsePlan.dimensionless(3.0, 0.25)
    assert d.gbar == 3.0 and d.tbar == 0.25
    with pytest.raises(ConfigError):
        sig.PulsePlan(delta=-1.0, D0=1.0, gamma=1.0, G=1.0, R=1.0)
    for zero in ({"D0": 0.0}, {"R": 0.0}):  # gbar or tbar would divide by 0
        with pytest.raises(ConfigError):
            replace(d, **zero)


def test_zero_gradient_signal_is_one(sphere60):
    m, B = sphere60
    for tb in (0.01, 0.3, 2.0):
        assert abs(sig.signal_matrix(m, B, 0.0, tb) - 1.0) < 1e-12
    s, co = coeffs_at(m, B, 0.0)
    sm = sp.spectrum_at_negative_g(s)
    assert abs(sig.signal_spectral(s, sm, co, 0.7) - 1.0) < 1e-10
    # only the constant-mode coefficient survives at g = 0
    assert abs(co.C[0, 0] - 1.0) < 1e-12
    off = co.C.copy()
    off[0, 0] = 0.0
    assert np.max(np.abs(off)) < 1e-10


def test_coefficient_reference_values(sphere100):
    m, B = sphere100
    s2, co2 = coeffs_at(m, B, 2.0)
    i1, _ = sp.slowest_pair(s2)
    assert abs(co2.C[i1, i1].real - 1.14) < 0.01
    assert abs(s2.eigenvalues[i1] - 0.188) < 0.002
    s15, co15 = coeffs_at(m, B, 15.0)
    i1, i2 = sp.slowest_pair(s15)
    lam1 = s15.eigenvalues[i1]
    assert abs(lam1.real - 4.67) < 0.02 and abs(lam1.imag - 6.68) < 0.02
    assert abs(co15.C[i1, i1].real - 1.12) < 0.01
    C12 = co15.C[i1, i2]
    assert abs(C12.real - (-0.46)) < 0.01 and abs(C12.imag - 0.18) < 0.01


def test_coefficient_matrix_is_conjugate_symmetric(sphere60):
    m, B = sphere60
    _, co = coeffs_at(m, B, 7.0)
    assert np.max(np.abs(co.C - np.conj(co.C.T))) < 1e-10


def test_sum_of_coefficients_is_one(sphere60, cylinder60):
    m, B = sphere60
    for g in (2.0, 15.0):
        _, co = coeffs_at(m, B, g)
        assert abs(np.sum(co.C) - 1.0) < 1e-4
    mc = cylinder60
    Bc = mx.gradient_matrix(mc, eta=np.pi / 4)
    _, co = coeffs_at(mc, Bc, 5.0)
    assert abs(np.sum(co.C) - 1.0) < 1e-4


def test_route_agreement(sphere60, cylinder60):
    m, B = sphere60
    mc = cylinder60
    Bc = mx.gradient_matrix(mc, eta=np.pi / 4)
    for mat, Bdir in ((m, B), (mc, Bc)):
        for g in (0.0, 2.0, 15.0):
            s, co = coeffs_at(mat, Bdir, g)
            sm = sp.spectrum_at_negative_g(s)
            for tb in (0.01, 0.1, 0.5, 1.0):
                Sm = sig.signal_matrix(mat, Bdir, g, tb)
                Ss = sig.signal_spectral(s, sm, co, tb)
                if abs(Sm) > 1e-10:
                    assert abs(Ss - Sm) / abs(Sm) < 1e-6


def _signal_full_expm(mat, B, g, tb):
    """The (0,0) entry of the two-pulse evolution with expm of the full matrix."""
    M = mat.bloch_torrey(B, g)
    Ep = sla.expm(-tb * M)
    Em = sla.expm(-tb * (2 * np.diag(mat.lam) - M))
    return complex((Ep @ Em)[0, 0])


@pytest.mark.parametrize("g", [2.0, 15.0])
@pytest.mark.parametrize("case", ["sphere-z", "sphere-tilted", "cylinder-eta0.9"])
def test_signal_matrix_block_matches_full_expm(case, g, sphere60, cylinder60):
    """signal_matrix takes expm on the block of the constant mode only; the
    full-matrix expm is the oracle."""
    if case == "sphere-z":
        mat, B = sphere60
    elif case == "sphere-tilted":
        mat = sphere60[0]
        B = mx.gradient_matrix(mat, theta_g=0.3, phi_g=0.2)
    else:
        mat = cylinder60
        B = mx.gradient_matrix(mat, eta=0.9)
    label = sp.partition(mat.lam, B).label
    size = int(np.sum(label == label[0]))
    # a tilted sphere gradient couples everything into one block
    assert (size == mat.N) == (case == "sphere-tilted")
    for tb in (0.05, 0.2, 1.0):
        ref = _signal_full_expm(mat, B, g, tb)
        assert abs(sig.signal_matrix(mat, B, g, tb) - ref) <= 1e-13 * abs(ref)


def test_signal_magnitude_bounded(sphere60):
    m, B = sphere60
    for g in (0.5, 5.0, 20.0):
        for tb in (0.01, 0.2, 1.0):
            assert abs(sig.signal_matrix(m, B, g, tb)) <= 1.0 + 1e-12


def test_one_mode_trivials():
    assert sig.signal_one_mode(0.0, 1.0, 0.7) == 1.0
    vals = [sig.signal_one_mode(0.188, 1.14, tb).real for tb in (0.2, 0.5, 1.0, 2.0)]
    assert np.all(np.diff(vals) < 0)


def test_two_mode_collapse_to_real():
    # Im lam1 = 0 and real C12 reduce to 2 exp(-2 t lam)(C11 + C12)
    val = sig.signal_two_mode(0.5 + 0j, 1.1, -0.3 + 0j, 0.4)
    assert abs(val - 2 * np.exp(-2 * 0.4 * 0.5) * (1.1 - 0.3)) < 1e-14


def test_two_mode_matches_explicit_four_term_sum(sphere100):
    m, B = sphere100
    s, co = coeffs_at(m, B, 15.0)
    i1, i2 = sp.slowest_pair(s)
    lam1, lam2 = s.eigenvalues[i1], s.eigenvalues[i2]
    for tb in (0.1, 0.3, 0.8):
        two = sig.signal_two_mode(lam1, co.C[i1, i1].real, co.C[i1, i2], tb)
        s4 = (co.C[i1, i1] * np.exp(-tb * (np.conj(lam1) + lam1))
              + co.C[i2, i2] * np.exp(-tb * (np.conj(lam2) + lam2))
              + co.C[i1, i2] * np.exp(-tb * (np.conj(lam1) + lam2))
              + co.C[i2, i1] * np.exp(-tb * (np.conj(lam2) + lam1)))
        assert abs(two - s4) < 1e-12


def test_two_mode_oscillation_period(sphere100):
    # the oscillating factor has period pi / Im(lam1) in tbar
    m, B = sphere100
    s, co = coeffs_at(m, B, 15.0)
    i1, i2 = sp.slowest_pair(s)
    lam1 = s.eigenvalues[i1]
    period = np.pi / lam1.imag
    tb = 0.2
    a = sig.signal_two_mode(lam1, co.C[i1, i1].real, co.C[i1, i2], tb)
    b = sig.signal_two_mode(lam1, co.C[i1, i1].real, co.C[i1, i2], tb + period)
    # same oscillation phase, amplitude scaled by the real decay
    ratio = b / a if abs(a) > 0 else 0.0
    expected = np.exp(-2 * period * lam1.real) * (
        1.0)  # bracket identical at t and t + period
    bracket_a = a / (2 * np.exp(-2 * tb * lam1.real))
    bracket_b = b / (2 * np.exp(-2 * (tb + period) * lam1.real))
    assert abs(bracket_a - bracket_b) < 1e-12


def test_imaginary_part_approaches_gR_slowly(reduced700):
    # Im(lambda_1)/gbar at gbar = 200; frozen from a converged run (0.7912),
    # documenting the O(g^{-1/3}) approach to the leading behavior g*R
    m, B = reduced700
    s = sp.diagonalize(m, B, 200.0, eigvals_only=True)
    lam1 = s.eigenvalues[np.argmin(s.eigenvalues.real)]
    assert abs(abs(lam1.imag) / 200.0 - 0.7912) < 0.002


def test_lambda1_asymptotic_structure():
    # leading term |a1'| g^(2/3) / 2; the next term is relatively O(g^(-1/6))
    a1 = abs(sig.AIRY_DERIV_FIRST_ZERO)
    ratios = [sig.lambda1_asymptotic(g) / (a1 / 2 * g ** (2.0 / 3.0))
              for g in (1e6, 1e9, 1e12)]
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    assert ratios[2] - 1.0 < 0.02
    with pytest.raises(ValueError):
        sig.lambda1_asymptotic(0.0)


def test_asymptotic_error_decreases(reduced700):
    m, B = reduced700
    errs = []
    for g in (50.0, 200.0, 1000.0):
        s = sp.diagonalize(m, B, g, eigvals_only=True)
        lam1 = s.eigenvalues[np.argmin(s.eigenvalues.real)]
        errs.append(abs(lam1.real - sig.lambda1_asymptotic(g)) / lam1.real)
    assert errs[0] > errs[1] > errs[2]


def test_small_gradient_quadratic_law(sphere60):
    m, B = sphere60
    tb = 0.1
    gbars = np.array([0.125, 0.25, 0.5])
    lnS = np.array([-np.log(sig.signal_matrix(m, B, g, tb).real) for g in gbars])
    slope = np.polyfit(np.log(gbars), np.log(lnS), 1)[0]
    assert abs(slope - 2.0) < 0.05


def test_signal_smooth_across_branch_point_with_diverging_coefficients(sphere60):
    m, B = sphere60
    # locate the first branch point precisely
    M0 = np.diag(m.lam).astype(complex)
    cnt = lambda g: int(np.sum(sla.eigvals(M0 + 1j * g * B).imag > 1e-6))
    lo, hi = 5.5, 5.75
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if cnt(mid) > 0:
            hi = mid
        else:
            lo = mid
    g1 = 0.5 * (lo + hi)
    # individually diverging coefficients close to the branch point
    s, co = coeffs_at(m, B, g1 - 1e-4)
    i1, i2 = int(np.argsort(s.eigenvalues.real)[0]), int(np.argsort(s.eigenvalues.real)[1])
    assert not s.near_branch[i1]
    assert co.C[i1, i1].real > 1e3
    assert co.C[i1, i2].real < -1e3
    assert abs(g1 - 1e-4 - 5.622) < 0.01  # within the quoted window
    # while the signal stays smooth through the point
    gs = np.arange(g1 - 0.06, g1 + 0.06, 0.0025)
    S = np.array([sig.signal_matrix(m, B, g, 0.2).real for g in gs])
    assert np.max(np.abs(np.diff(S, 2))) < 1e-6


@functools.cache
def _own_block(geometry, N):
    """The constant mode's exact block (Lambda, B) of a z gradient (the
    tilted sphere's is the whole operator)."""
    kw = {"theta_g": 0.7, "phi_g": 0.5} if geometry == "tilted_sphere" else {}
    mat = mx.operator_for(geometry.replace("tilted_", ""), N, H=1.3)
    sub, B_sub, _ = sp.own_blocks(mat, mx.gradient_matrix(mat, **kw), [0])
    return sub, B_sub


def _expm_mp(A: np.ndarray, dps: int = 40) -> np.ndarray:
    """exp(A) from mpmath at dps digits, rounded to complex doubles."""
    with mpmath.workdps(dps):
        E = mpmath.expm(mpmath.matrix(A.tolist()))
        return np.array(E.tolist(), dtype=complex)


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["sphere", "tilted_sphere", "sphere_reduced", "disk",
                                 "cylinder", "interval"]),
       gbar=st.floats(0.0, 25.0), norm=st.floats(0.05, 100.0))
@example(geometry="sphere", gbar=5.0, norm=1.0)  # on theta_13, to rounding
# scipy is off by 3.0e-14 and 9.2e-14 of max|exp| here, _expm by 8.3e-14 and 3.3e-14
@example(geometry="sphere", gbar=5.875, norm=59.0)
@example(geometry="cylinder", gbar=4.0, norm=60.0)
def test_expm_matches_scipy_on_own_blocks(geometry, gbar, norm):
    """The numpy expm of -tbar (Lambda + i gbar B) on the constant mode's
    block equals scipy.linalg.expm to 1e-13 of max|exp| entrywise (2.9e-14 was
    measured), with tbar set so that the 1-norm is `norm` times theta_13:
    below it the Pade approximant alone, above it up to 7 squarings.  Near
    norm 60 each method's own error can approach the bound, so where the two
    differ by more, _expm is held to it against a 40-digit mpmath reference."""
    sub, B_sub = _own_block(geometry, 12 if geometry == "interval" else 60)
    M = sub.bloch_torrey(B_sub, gbar)
    A = -(norm * sig._THETA13 / np.linalg.norm(M, 1)) * M
    ref = sla.expm(A)
    if np.max(np.abs(sig._expm(A) - ref)) > 1e-13 * np.max(np.abs(ref)):
        ref = _expm_mp(A)
    assert np.max(np.abs(sig._expm(A) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_expm_failure_raises_numerical_error(sphere60, monkeypatch):
    """A non-finite matrix, or a singular Pade denominator, is a
    numpy.linalg.LinAlgError in _expm and a NumericalError (exit 4) from
    signal_matrix."""
    m, B = sphere60
    with pytest.raises(np.linalg.LinAlgError):
        sig._expm(np.full((3, 3), np.nan))
    with pytest.raises(NumericalError):
        sig.signal_matrix(m, B, 2.0, np.nan)

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError):
        sig.signal_matrix(m, B, 2.0, 0.1)
