"""Exception taxonomy shared by the whole package, and its finite-value check.

The CLI maps these onto process exit codes, so keep the hierarchy flat and
stable: ConfigError -> 2, ValidityError -> 3, SimulationError -> 4.
"""

from __future__ import annotations

import numpy as np


class EitmemError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(EitmemError):
    """Scenario file or parameter-set construction problem."""


def require_finite(name: str, value) -> None:
    """Raise ConfigError naming `name` unless value is finite.

    value may be real, complex, or a sequence of either; NaN and infinities
    slip through the usual `x <= 0` range tests, so constructors call this
    first.
    """
    if not np.all(np.isfinite(value)):
        shown = value if np.ndim(value) == 0 else "a non-finite entry"
        raise ConfigError(f"{name} must be finite, got {shown}")


class ValidityError(EitmemError):
    """Physics regime checks failed and the run was not forced."""


class SimulationError(EitmemError):
    """Numerical failure while integrating or post-processing."""


class DomainOverflowError(SimulationError):
    """Transported pulse support reached the edge of the periodic z-domain."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"pulse support reached the domain edge at t = {t:.6e} s")


class AmplificationOverflowError(SimulationError):
    """Modal gain since t = 0 passed the bound past which modes could overflow (badly off-resonant scenario)."""


class QuadratureError(SimulationError):
    """Adaptive quadrature failed to meet its tolerance."""


class UntrackableFieldError(SimulationError):
    """Field amplitude everywhere below the tracking floor."""


class SingularParametersError(EitmemError):
    """Coefficient-law denominator collapsed or a value overflowed (cannot occur for a physical medium)."""


class InvalidComparisonError(EitmemError):
    """Reference and adiabatic runs do not describe the same scenario."""
