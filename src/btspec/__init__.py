"""btspec: spectral analysis of the Bloch-Torrey operator -Delta + i*g*x.

Computes eigenvalue branches, branch (exceptional) points, eigenfunction
maps and pulsed-gradient spin-echo signals for restricted diffusion in a
sphere, a capped cylinder, and their building blocks (disk, interval),
via dense matrix representations in the truncated Laplacian eigenbasis.
"""

__version__ = "0.1.0"

from .basis import (
    BasisIndex,
    BasisSet,
    build_basis,
    build_cylinder_basis,
    build_disk_basis,
    build_interval_basis,
    build_sphere_basis,
)
from .branchpoints import (
    BranchPoint,
    cylinder_branch_points,
    detect,
    find_branch_points,
    interval_branch_points_analytic,
    refine,
)
from .fieldmap import FieldGrid, eval_eigenfunction, export_projection
from .matrices import (
    OperatorMatrices,
    assemble_cylinder,
    assemble_disk,
    assemble_interval,
    assemble_operator,
    assemble_sphere,
    cylinder_factors,
    gradient_matrix,
    gradient_matrix_cylinder,
    gradient_matrix_sphere,
    operator_for,
)
from .montecarlo import WalkConfig, mc_signal
from .signal import (
    PulsePlan,
    SignalCoefficients,
    compute_coefficients,
    lambda1_asymptotic,
    signal_matrix,
    signal_one_mode,
    signal_spectral,
    signal_two_mode,
)
from .specfun import (
    AIRY_DERIV_FIRST_ZERO,
    ZeroTable,
    interval_branch_constants,
)
from .spectrum import (
    Spectrum,
    canonical_order,
    diagonalize,
    normalize,
    own_blocks,
    spectrum_at_negative_g,
)
from .sweep import BranchSweep, match_step, run_sweep
