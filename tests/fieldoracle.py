"""All-at-once reference for the grid evaluation of btspec.fieldmap.

_eval_inside as it was written before the evaluation dropped its per-point
arrays one at a time: it copies the inside points out of the full point
array and keeps them, every coordinate the factors read and every inverse
map alive until the last angular group is summed.  It is the plain route
that fieldmap's evaluation must match bit for bit (tests/test_fieldmap.py).
The 1-D factors themselves are fieldmap's own (_mode_factors, _factor).
"""

from collections import Counter

import numpy as np

from btspec.fieldmap import _factor, _mode_factors, inside_mask


def eval_eigenfunction(x_row, basis, points):
    """v(x) = sum_k X_row[k] u_k(x) at points (P, 3); NaN outside the domain."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _eval_inside(x_row, basis, pts, inside_mask(basis, pts))


def _eval_inside(x_row, basis, pts, mask):
    """eval_eigenfunction at the points pts (P, 3) whose inside_mask is mask."""
    x, y, z = pts[mask].T
    r = np.sqrt(x * x + y * y + z * z)
    raw = {  # coordinates, each computed only when a factor reads it
        "r": lambda: r, "z": lambda: z, "rho": lambda: np.sqrt(x * x + y * y),
        "phi": lambda: np.arctan2(y, x),
        "xi": lambda: np.where(r > 0, z / np.maximum(r, 1e-300), 1.0)}
    groups: dict[tuple, dict] = {}  # angular factors -> {radial factor: coefficient}
    for i in np.flatnonzero(np.abs(x_row) > 0):
        radial, *angular = _mode_factors(basis, i)
        groups.setdefault(tuple(angular), {})[radial] = x_row[i]
    uses = Counter(f for angular, terms in groups.items() for f in (*angular, *terms))
    # coordinate -> (distinct values, index of each inside point into them)
    coords = {c: np.unique(raw[c](), return_inverse=True) for c in {c for c, _ in uses}}
    kept: dict[tuple, np.ndarray] = {}

    def factor(f):  # at the distinct values; kept until its last use
        vals = kept.pop(f) if f in kept else _factor(*f, coords[f[0]][0])
        uses[f] -= 1
        if uses[f]:
            kept[f] = vals
        return vals
    inner = np.zeros(len(r), dtype=complex)
    for angular, terms in groups.items():
        (coord, _), *_ = terms
        term = sum((c * factor(f) for f, c in terms.items()), 0j)[coords[coord][1]]
        for f in angular:
            term *= factor(f)[coords[f[0]][1]]
        inner += term
    out = np.full(len(pts), np.nan + 1j * np.nan)
    out[mask] = inner
    return out


def section(x_row, basis, ax1, ax2, plane):
    """(values, inside) of the plane section on the axes, as export_projection
    built it: the full (n1, n2, 3) point array kept through the evaluation."""
    pts = np.zeros((ax1.size, ax2.size, 3))
    pts[..., 0], pts[..., 2 if plane == "xz" else 1] = ax1[:, None], ax2
    inside = inside_mask(basis, pts)
    vals = _eval_inside(x_row, basis, pts.reshape(-1, 3), inside.reshape(-1))
    return vals.reshape(inside.shape), inside
