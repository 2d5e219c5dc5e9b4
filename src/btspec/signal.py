"""Pulsed-gradient spin-echo signal through the truncated operator matrices.

Three routes are implemented and kept deliberately independent so they can
cross-check each other:

* signal_matrix: S = [exp(-tbar (Lambda + i gbar B)) exp(-tbar (Lambda - i gbar B))]_{0,0}
  via scaling-and-squaring matrix exponentials on the exact block of the
  constant mode (no eigendecomposition);
* signal_spectral: the double sum over eigenmode pairs with coefficients
  C_{jj'} = mu_j^(-g) Gamma_{jj'} mu_j'^(g) from a normalized Spectrum;
* one-mode / two-mode closed forms for the slowest branch.

mu_j = X[j, 0] is zero outside the exact block of the constant mode, so the
spectral route and the closed forms need only that block's rows: btspec
signal normalizes the spectrum of spectrum.own_blocks(mat, B, [0]), and the
slowest row there is the slowest row that carries weight (C_11 != 0).

All quantities are dimensionless: gbar = gamma*G/D0 * R^3, tbar = D0*delta/R^2,
eigenvalues R^2*lambda.  PulsePlan converts SI inputs once at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .matrices import OperatorMatrices
from .spectrum import Spectrum, own_blocks

# First zero of Ai'(z); leading constant of the high-gradient asymptotics.
from .specfun import AIRY_DERIV_FIRST_ZERO


@dataclass(frozen=True)
class PulsePlan:
    """Physical PGSE parameters for two back-to-back opposite pulses of
    duration delta each; derived dimensionless gbar and tbar are properties.

    Units: delta [s], D0 [m^2/s], gamma [rad/T/s], G [T/m], R [m].
    """

    delta: float
    D0: float
    gamma: float
    G: float
    R: float

    def __post_init__(self):
        if min(self.delta, self.D0, self.gamma, self.R) < 0 or self.G < 0:
            raise ConfigError("pulse plan requires non-negative physical inputs")

    @property
    def gbar(self) -> float:
        return self.gamma * self.G / self.D0 * self.R**3

    @property
    def tbar(self) -> float:
        return self.D0 * self.delta / self.R**2

    @classmethod
    def dimensionless(cls, gbar: float, tbar: float) -> "PulsePlan":
        """Plan with R = D0 = 1 so that G = gbar and delta = tbar directly."""
        return cls(delta=tbar, D0=1.0, gamma=1.0, G=gbar, R=1.0)


@dataclass(frozen=True)
class SignalCoefficients:
    """mu_j (constant-mode projections), Gamma overlap matrix, and the signal
    coefficients C_{jj'} = conj(mu_j) Gamma_{jj'} mu_j'."""

    mu: np.ndarray
    Gamma: np.ndarray
    C: np.ndarray


def compute_coefficients(spec: Spectrum) -> SignalCoefficients:
    """Signal coefficients from a normalized spectrum at +gbar.

    Uses mu_j = X[j, 0], Gamma = conj(X) X^T, and the conjugation identity
    mu^(-g) = conj(mu^(g)); rows flagged near a branch point yield divergent
    coefficients and should be interpreted with care.
    """
    if spec.X is None or not spec.normalized:
        raise ValueError("compute_coefficients needs a normalized spectrum")
    X = spec.X
    mu = X[:, 0].copy()
    Gamma = np.conj(X) @ X.T
    C = np.conj(mu)[:, None] * Gamma * mu[None, :]
    return SignalCoefficients(mu=mu, Gamma=Gamma, C=C)


def signal_matrix(mat: OperatorMatrices, B: np.ndarray, gbar: float,
                  tbar: float) -> complex:
    """Exact truncated-matrix signal: (0,0) entry of the two-pulse evolution.

    The first pulse applies exp(-tbar(Lambda + i gbar B)) to the uniform
    state, the second exp(-tbar(Lambda - i gbar B)); with row-vector evolution
    the signal is the (0,0) entry of their product in pulse order.

    Lambda is diagonal and B is exactly zero between its exact blocks, so
    both exponentials are block-diagonal and the (0,0) entry only involves
    the block of the constant mode (basis mode 0; the m = 0 block of the
    z-gradient sphere, 35 of 333 modes).  The two expm are taken on that
    block alone (spectrum.own_blocks); a matrix with one block (tilted
    sphere) keeps its full size.  This is still the expm route: it uses the
    block partition of B but no eigendecomposition, so it stays independent
    of the eigensolver it cross-checks.
    """
    import scipy.linalg as sla  # loaded by the commands that take a signal

    sub, B_sub, _ = own_blocks(mat, B, [0])
    M = sub.bloch_torrey(B_sub, gbar)
    try:
        Ep = sla.expm(-tbar * M)
        Em = sla.expm(-tbar * (2 * np.diag(sub.lam) - M))  # Lambda - i g B
    except (ValueError, sla.LinAlgError) as exc:  # pragma: no cover
        raise NumericalError(
            f"matrix exponential failed (gbar={gbar}, tbar={tbar}, "
            f"norm={np.linalg.norm(M):.3e})") from exc
    return complex(Ep[0] @ Em[:, 0])


def signal_spectral(spec_plus: Spectrum, spec_minus: Spectrum,
                    coeffs: SignalCoefficients, tbar: float) -> complex:
    """Spectral expansion S = sum_{jj'} C_{jj'} exp(-tbar (lam_j^(-g) + lam_j'^(g))).

    spec_minus supplies the -g eigenvalues (conjugates of spec_plus for the
    symmetric geometries here).
    """
    em = np.exp(-tbar * spec_minus.eigenvalues)
    ep = np.exp(-tbar * spec_plus.eigenvalues)
    return complex(em @ coeffs.C @ ep)


def signal_one_mode(lam1: complex, C11: complex, tbar: float) -> complex:
    """One-mode approximation C_11 exp(-2 tbar lam1); valid for a real simple
    slowest eigenvalue away from its branch point.

    It is exactly the (1, 1) term T_11 of the spectral sum
    S = sum_jk T_jk, T_jk = C_jk exp(-tbar (conj(lam_j) + lam_k)), so its
    error is the sum of the dropped terms.  They decay relative to it like
    exp(-tbar gap), gap = Re lam_2 - Re lam1 with lam_2 the next eigenvalue
    by real part: a long-time form, tbar gap >> 1.  It is in its regime at a
    tolerance eps when sum_{jk != 11} |T_jk| < eps |T_11|."""
    return complex(C11 * np.exp(-2.0 * tbar * lam1))


def signal_two_mode(lam1: complex, C11: complex, C12: complex,
                    tbar: float) -> complex:
    """Two-mode approximation for a complex-conjugate slowest pair:
    2 exp(-2 tbar Re lam1) [C11 + Re(C12 exp(2 i tbar Im lam1))].

    It is exactly the 2x2 block of the spectral sum S = sum_jk T_jk on the
    pair (T_jk as in signal_one_mode), so its error is the sum of the
    dropped terms.  They decay relative to it like exp(-tbar gap),
    gap = Re lam_3 - Re lam1 with lam_3 the first eigenvalue outside the pair
    by real part: a long-time form, tbar gap >> 1.  It is in its regime at a
    tolerance eps when the dropped |T_jk| sum to less than eps times the
    pair's |T_jk|; the pair's own sum can pass through zero as it oscillates,
    so the comparison is with its absolute terms."""
    osc = C12 * np.exp(2j * tbar * np.imag(lam1))
    return complex(2.0 * np.exp(-2.0 * tbar * np.real(lam1)) * (C11 + np.real(osc)))


def lambda1_asymptotic(gbar: float, R: float = 1.0) -> float:
    """Three-term high-gradient asymptotic of Re(lambda_1) (in units 1/R^2
    when R = 1): |a1'|/(2 lg^2) + 1/(sqrt(R) lg^(3/2)) - sqrt(3)/(4 |a1'| R lg)
    with lg = gbar^(-1/3).

    The first two terms are the real parts of the Airy boundary-layer term
    |a1'| gbar^(2/3) exp(-i pi/3) and of the two-curvature oscillator
    sqrt(2 gbar/R) exp(-i pi/4) at the pole.  Their imaginary parts give the
    counterpart for |Im lambda_1|, derived and checked in acceptance
    criterion 9 (_im_lambda1_asymptotic in tests/test_acceptance.py)."""
    if gbar <= 0:
        raise ValueError("gbar must be positive")
    lg = gbar ** (-1.0 / 3.0)
    a1 = abs(AIRY_DERIV_FIRST_ZERO)
    return a1 / (2.0 * lg**2) + 1.0 / (np.sqrt(R) * lg**1.5) \
        - np.sqrt(3.0) / (4.0 * a1 * R * lg)
