"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DomainError -> 3,
numerical failures (ConvergenceError, NumericalError) -> 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DomainError(ValueError):
    """Arguments outside the supported domain (orders, indices, geometry)."""


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed to converge or certify."""


class MatrixAssemblyError(RuntimeError):
    """Matrix elements could not be assembled (e.g. corrupted zero table)."""


class NumericalError(RuntimeError):
    """Generic numerical failure propagated with diagnostics."""
