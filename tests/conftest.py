"""Shared fixtures; the expensive session-scoped objects are built lazily."""

import numpy as np
import pytest

from btspec import basis as bas
from btspec import branchpoints as bp
from btspec import matrices as mx
from btspec import sweep as sw


@pytest.fixture(scope="session")
def sphere60():
    b = bas.build_sphere_basis(60)
    m = mx.assemble_sphere(b)
    return m, mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)


@pytest.fixture(scope="session")
def sphere60_sweep13(sphere60):
    """z-gradient sweep to gbar = 13, past the m = +-1 point at 11.98."""
    m, B = sphere60
    return sw.run_sweep(m, B, 13.0, step=0.05)


@pytest.fixture(scope="session")
def sphere100():
    b = bas.build_sphere_basis(100)
    m = mx.assemble_sphere(b)
    return m, mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)


@pytest.fixture(scope="session")
def sphere333():
    b = bas.build_sphere_basis(333)
    m = mx.assemble_sphere(b)
    return m, mx.gradient_matrix(m, theta_g=0.0, phi_g=0.0)


@pytest.fixture(scope="session")
def sphere333_sweep(sphere333):
    """Production-scale sweep to gbar = 25 with refined branch points (~3 min)."""
    m, B = sphere333
    sweep = sw.run_sweep(m, B, 25.0, step=0.05)
    points = bp.find_branch_points(m, B, sweep, max_branch=17)
    return sweep, points


@pytest.fixture(scope="session")
def reduced700():
    m = mx.operator_for("sphere_reduced", 700)
    return m, mx.gradient_matrix(m)


@pytest.fixture(scope="session")
def cylinder60():
    b = bas.build_cylinder_basis(60)
    m = mx.assemble_cylinder(b)
    return m


@pytest.fixture(scope="session")
def disk60():
    b = bas.build_disk_basis(60)
    m = mx.assemble_disk(b)
    return m, mx.gradient_matrix(m)


def nearest_match_distance(target: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """For each target value, distance to the nearest pool value."""
    return np.array([np.min(np.abs(pool - t)) for t in target])
