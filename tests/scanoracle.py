"""Scalar reference for the zero tables of btspec.specfun.

The sign-change scan and bisection + Newton polish as plain Python loops,
one scalar call of the evaluator per grid point and per bisection step.  It
is the slow, obviously sequential route that the array scan in specfun must
match bit for bit (tests/test_specfun.py), given the same evaluator.
"""

import numpy as np

from btspec import specfun

SCAN_STEP = 0.25
BISECT_TOL = 1e-13


def refine_zero(f, a, b, fa, fb, df=None):
    """Bisection to ~1e-13 followed by a few clipped Newton steps."""
    assert fa * fb < 0
    while b - a > BISECT_TOL * max(1.0, abs(b)):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            a = b = m
            break
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    if df is not None:
        for _ in range(3):
            d = df(x)
            if d == 0.0:
                break
            y = x - f(x) / d
            if not (a - 1e-9 <= y <= b + 1e-9):
                break
            x = y
    return x


def scan_zeros(f, count, start, step=SCAN_STEP, df=None):
    """First `count` zeros of f by sign changes on start, start + step, ..."""
    zeros = []
    a = start
    fa = f(a)
    while fa == 0.0:
        a += step / 7.0
        fa = f(a)
    while len(zeros) < count:
        b = a + step
        fb = f(b)
        if fb == 0.0:
            b += step / 7.0
            fb = f(b)
        if fa * fb < 0:
            zeros.append(refine_zero(f, a, b, fa, fb, df=df))
        a, fa = b, fb
    return np.array(zeros)


def zeros_of_order(f, n, count, df=None):
    """First `count` zeros of f(n, z) (df its z-derivative, or None) from the
    start max(1e-6, 0.9 n) of specfun's scans of J_n' and j_n'."""
    return scan_zeros(lambda z: f(n, z), count, start=max(1e-6, 0.9 * n),
                      df=None if df is None else lambda z: df(n, z))


def zeros_J_minus_two_thirds(count):
    """First `count` zeros of specfun's J_{-2/3} (d = 0) from its scan start
    0.05, polished with its J_{-2/3}' = (nu / z) J_nu - J_{nu+1} (d = 1)."""
    nu = -2.0 / 3.0

    def f(z, d=0):
        j, j1 = specfun.bessel_jv_frac(nu, np.array([z]))
        return float((nu / z * j - j1 if d else j)[0])
    return scan_zeros(f, count, start=0.05, df=lambda z: f(z, 1))
