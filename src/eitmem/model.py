"""Medium parameters, derived constants, and regime validity checks.

Everything downstream (coefficient algebra, spectral solver, reference
integrator, analysis) reads its physical constants from MediumParams so a
scenario is defined in exactly one place. The validity checker quantifies the
assumptions behind the adiabatic evolution law: high atomic density, adiabatic
pulse/switching scales, and the low-intensity (weak probe) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, require_finite

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .control import ControlSchedule

C_VACUUM = 2.99792458e8  # m/s

# Reading of "much greater/smaller than" used by every validity check:
# ratio >= 10 passes, >= 100 is reported as a strong pass. Smallness checks
# mirror this as <= 0.1 and <= 0.01.
PASS_FACTOR = 10.0
STRONG_PASS_FACTOR = 100.0

# Checks that gate a run. Adiabaticity-of-transport checks are advisory: the
# spectral engine integrates its evolution law exactly either way, and how
# faithfully that law tracks the underlying three-field dynamics is measured
# directly by the reference-integrator comparison. The gate blocks only on
# conditions the model itself is built on.
BLOCKING_CHECKS = ("high_density", "low_intensity", "adiabatic_parameter")


@dataclass(frozen=True)
class MediumParams:
    """Atomic-ensemble and field constants for one scenario."""

    g: float  # vacuum Rabi frequency, rad/s
    n_atoms: float  # atom count in the interaction volume
    length: float  # cell length, m
    cell_diameter: float  # m, volume bookkeeping only
    nu_p: float  # probe carrier angular frequency, rad/s
    gamma_ba: float  # optical coherence decay rate, rad/s
    gamma_bc: float  # lower-level coherence decay rate, rad/s
    delta: float = 0.0  # one-photon detuning, rad/s
    delta_p: float = 0.0  # two-photon detuning, rad/s
    c: float = C_VACUUM  # light speed, m/s; adjustable for scaled runs

    def __post_init__(self):
        for f in fields(self):
            require_finite(f.name, getattr(self, f.name))
        if self.g <= 0:
            raise ConfigError(f"g must be positive, got {self.g}")
        if self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be at least 1, got {self.n_atoms}")
        if self.length <= 0:
            raise ConfigError(f"length must be positive, got {self.length}")
        if self.cell_diameter <= 0:
            raise ConfigError(f"cell_diameter must be positive, got {self.cell_diameter}")
        if self.nu_p <= 0:
            raise ConfigError(f"nu_p must be positive, got {self.nu_p}")
        if self.gamma_ba <= 0:
            raise ConfigError(f"gamma_ba must be positive, got {self.gamma_ba}")
        if self.gamma_bc < 0:
            raise ConfigError(f"gamma_bc must be nonnegative, got {self.gamma_bc}")
        if self.c <= 0:
            raise ConfigError(f"c must be positive, got {self.c}")

    @property
    def g2n(self) -> float:
        """Collective coupling g^2 N, rad^2/s^2. Single source for all modules."""
        return self.g * self.g * self.n_atoms

    @property
    def g_root_n(self) -> float:
        """g sqrt(N), rad/s."""
        return self.g * math.sqrt(self.n_atoms)

    def coherence_factors(self) -> tuple[complex, complex]:
        """Complex decay factors (i(delta+delta_p)+gamma_ba, i*delta_p+gamma_bc)."""
        d_ba = complex(self.gamma_ba, self.delta + self.delta_p)
        d_bc = complex(self.gamma_bc, self.delta_p)
        return d_ba, d_bc

    def is_resonant(self) -> bool:
        return self.delta == 0.0 and self.delta_p == 0.0


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian information pulse: amplitude * exp(-((z-center)/width)^2)."""

    amplitude: complex  # dimensionless polariton amplitude
    center_z: float  # m
    width: float  # m, 1/e half-width
    l_p: float | None = None  # pulse length in the medium, m; defaults to 2*width

    def __post_init__(self):
        for name in ("amplitude", "center_z", "width"):
            require_finite(name, getattr(self, name))
        if self.l_p is not None:
            require_finite("l_p", self.l_p)
        if self.width <= 0:
            raise ConfigError(f"pulse width must be positive, got {self.width}")
        if self.l_p is not None and self.l_p <= 0:
            raise ConfigError(f"l_p must be positive, got {self.l_p}")
        if abs(self.amplitude) == 0:
            raise ConfigError("pulse amplitude must be nonzero")

    @property
    def pulse_length(self) -> float:
        return self.l_p if self.l_p is not None else 2.0 * self.width


@dataclass(frozen=True)
class ValidityReport:
    """Quantified regime assumptions with per-check pass flags.

    Ratios are oriented so that bigger is better except adiabatic_parameter
    and low_intensity_ratio, which must be small.
    """

    high_density_ratio: float  # collective coupling vs decoherence product
    adiabatic_length_ratio: float  # pulse length vs adiabatic length scale
    adiabatic_time_ratio: float  # switching time vs adiabatic time scale
    adiabatic_parameter: float  # 1/(g sqrt(N) T), must be << 1
    low_intensity_ratio: float  # max probe Rabi scale over min control Rabi
    checks: dict[str, bool] = field(default_factory=dict)
    strong: dict[str, bool] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    @property
    def blocking_pass(self) -> bool:
        return all(self.checks[name] for name in BLOCKING_CHECKS)

    def failed(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def warnings(self) -> list[str]:
        """Non-blocking failures, phrased for run logs."""
        msgs = []
        for name in self.failed():
            if name not in BLOCKING_CHECKS:
                msgs.append(
                    f"advisory check '{name}' failed; adiabatic evolution law may "
                    f"deviate from the underlying three-field dynamics"
                )
        return msgs

    def to_dict(self) -> dict:
        return {
            "high_density_ratio": self.high_density_ratio,
            "adiabatic_length_ratio": self.adiabatic_length_ratio,
            "adiabatic_time_ratio": self.adiabatic_time_ratio,
            "adiabatic_parameter": self.adiabatic_parameter,
            "low_intensity_ratio": self.low_intensity_ratio,
            "checks": dict(self.checks),
            "strong": dict(self.strong),
            "notes": list(self.notes),
        }


def _resonant_group_velocity(theta: float, params: MediumParams) -> float:
    """Group-velocity scale c(cos^2 + gamma_bc gamma_ba sin^4/g2n), m/s."""
    s2 = math.sin(theta) ** 2
    c2 = 1.0 - s2
    return params.c * (c2 + params.gamma_bc * params.gamma_ba * s2 * s2 / params.g2n)


def check_regime(
    params: MediumParams,
    pulse: PulseSpec,
    schedule: "ControlSchedule",
    extra_notes: tuple[str, ...] = (),
) -> ValidityReport:
    """Evaluate every regime assumption; reports, never raises on physics.

    The switching duration is the schedule's own ControlSchedule.turn_time().
    """
    from .coefficients import bright_ratio  # local import, avoids a cycle

    d_ba, d_bc = params.coherence_factors()
    decoherence = abs(d_ba * d_bc)
    high_density = params.g2n / decoherence if decoherence > 0 else math.inf

    adiab_length_scale = math.sqrt(params.gamma_ba * params.c * params.length / params.g2n)
    adiab_length = pulse.pulse_length / adiab_length_scale

    sample = schedule.eval(params, schedule.sample_times())
    v_g0 = _resonant_group_velocity(float(sample.theta[0]), params)
    adiab_time_scale = (params.gamma_ba / params.g2n) * (v_g0 / params.c)  # s
    turn_time = schedule.turn_time()
    adiab_time = turn_time / adiab_time_scale if adiab_time_scale > 0 else math.inf

    pulse_duration = pulse.pulse_length / v_g0  # s
    t_char = min(turn_time, pulse_duration)
    adiab_parameter = 1.0 / (params.g_root_n * t_char)

    # Pre-run probe-intensity estimate: the probe amplitude tracks
    # |cos(theta) + sin(theta) f| |Psi| where f is the adiabatic bright/dark
    # ratio, and the probe Rabi scale is g |E| (calibrated against the
    # post-run check in the analysis module).
    theta = sample.theta
    f = bright_ratio(theta, params)
    e_est = abs(pulse.amplitude) * np.abs(np.cos(theta) + np.sin(theta) * f)
    worst = float(np.max(params.g * e_est / sample.omega))

    checks = {
        "high_density": high_density >= PASS_FACTOR,
        "adiabatic_length": adiab_length >= PASS_FACTOR,
        "adiabatic_time": adiab_time >= PASS_FACTOR,
        "adiabatic_parameter": adiab_parameter <= 1.0 / PASS_FACTOR,
        "low_intensity": worst <= 1.0 / PASS_FACTOR,
    }
    strong = {
        "high_density": high_density >= STRONG_PASS_FACTOR,
        "adiabatic_length": adiab_length >= STRONG_PASS_FACTOR,
        "adiabatic_time": adiab_time >= STRONG_PASS_FACTOR,
        "adiabatic_parameter": adiab_parameter <= 1.0 / STRONG_PASS_FACTOR,
        "low_intensity": worst <= 1.0 / STRONG_PASS_FACTOR,
    }
    return ValidityReport(
        high_density_ratio=high_density,
        adiabatic_length_ratio=adiab_length,
        adiabatic_time_ratio=adiab_time,
        adiabatic_parameter=adiab_parameter,
        low_intensity_ratio=worst,
        checks=checks,
        strong=strong,
        notes=tuple(extra_notes),
    )
