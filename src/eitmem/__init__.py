"""Pulse storage in three-level ensembles via control-driven slow light.

The spectral engine evolves the dark collective mode under the adiabatic
evolution law; an independent reduced-system integrator exists to check it.
"""

from .analysis import (
    DesignLimits,
    DistortionReport,
    PulseTrack,
    check_low_intensity,
    design_limits,
    fit_decay,
    fit_velocity,
    measure_distortion,
    predict_output,
    track_pulse,
)
from .coefficients import (
    CoefficientSample,
    exponent_integrand,
    max_transit_time,
    v_g_min,
)
from .control import ControlSchedule, omega_from_theta, theta_from_omega
from .errors import (
    ConfigError,
    EitmemError,
    SimulationError,
    ValidityError,
)
from .grids import FieldGrid, GridSpec, gaussian_field
from .model import MediumParams, PulseSpec, ValidityReport, check_regime
from .oracle import OracleConfig, OracleState, compare_to_adiabatic, integrate_reduced
from .scenario import Scenario, default_scenario, load_scenario, save_scenario
from .solver import SimulationResult, Snapshot, simulate

__all__ = [
    "CoefficientSample",
    "ConfigError",
    "ControlSchedule",
    "DesignLimits",
    "DistortionReport",
    "EitmemError",
    "FieldGrid",
    "GridSpec",
    "MediumParams",
    "OracleConfig",
    "OracleState",
    "PulseSpec",
    "PulseTrack",
    "Scenario",
    "SimulationError",
    "SimulationResult",
    "Snapshot",
    "ValidityError",
    "ValidityReport",
    "check_low_intensity",
    "check_regime",
    "compare_to_adiabatic",
    "default_scenario",
    "design_limits",
    "exponent_integrand",
    "fit_decay",
    "fit_velocity",
    "gaussian_field",
    "integrate_reduced",
    "load_scenario",
    "max_transit_time",
    "measure_distortion",
    "omega_from_theta",
    "predict_output",
    "save_scenario",
    "simulate",
    "theta_from_omega",
    "track_pulse",
    "v_g_min",
]

__version__ = "0.1.0"
