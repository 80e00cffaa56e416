"""Medium parameters, derived constants, and regime validity checks.

Everything downstream (coefficient algebra, spectral solver, reference
integrator, analysis) reads its physical constants from MediumParams so a
scenario is defined in exactly one place. The validity checker quantifies the
assumptions behind the adiabatic evolution law: high atomic density, adiabatic
pulse/switching scales, and the low-intensity (weak probe) limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ValidityError, require_finite
from .grids import ROOT_DBL_MAX, GridSpec

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
        if self.gamma_ba <= 0:
            raise ConfigError(f"gamma_ba must be positive, got {self.gamma_ba}")
        if self.gamma_bc < 0:
            raise ConfigError(f"gamma_bc must be nonnegative, got {self.gamma_bc}")
        if self.c <= 0:
            raise ConfigError(f"c must be positive, got {self.c}")
        if self.g2n == 0 or math.isinf(self.g2n):
            raise ConfigError(
                f"g^2 N must neither underflow to 0 nor overflow, "
                f"got g = {self.g} and n_atoms = {self.n_atoms}"
            )

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


def coupling_matrix(params: MediumParams, omega: np.ndarray) -> np.ndarray:
    """Balanced generator of the local atomic block, one per control value.

    The block acting on (E, sigma_ba, sigma_bc) is
    M = [[0, i g N, 0], [i g, -d_ba, i Omega], [0, i Omega*, -d_bc]].
    Returned is D M D^-1 with D = diag(1, sqrt N, sqrt N): both field
    couplings become i g sqrt N, which cuts the norm by a factor of about
    sqrt N and with it the squarings expm needs.
    """
    omega = np.asarray(omega)
    d_ba, d_bc = params.coherence_factors()
    m = np.zeros(omega.shape + (3, 3), dtype=complex)
    m[..., 0, 1] = m[..., 1, 0] = 1j * params.g_root_n
    m[..., 1, 1] = -d_ba
    m[..., 1, 2] = 1j * omega
    m[..., 2, 1] = 1j * np.conj(omega)
    m[..., 2, 2] = -d_bc
    return m


def theta_from_omega(omega: float, g: float, n_atoms: float) -> float:
    """Mixing angle arctan(g sqrt(N)/Omega), in (0, pi/2)."""
    if omega <= 0:
        raise ConfigError(
            f"omega must be positive (got {omega}); the control field is never "
            f"turned fully off"
        )
    return math.atan2(g * math.sqrt(n_atoms), omega)


def omega_from_theta(theta, g: float, n_atoms: float):
    """Inverse of theta_from_omega on (0, pi/2), elementwise for arrays."""
    if not np.all((0.0 < theta) & (theta < 0.5 * math.pi)):
        raise ConfigError(f"theta must lie in (0, pi/2), got {theta}")
    return g * math.sqrt(n_atoms) / np.tan(theta)


def dark_modes(params: MediumParams, omega: float, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per wavenumber in k, the dark eigenvalue and balanced eigenvector of coupling_matrix at omega plus -i c k on E.

    The dark one of three is nearest (cos theta, 0, -sin theta), theta = theta_from_omega(omega); the slowest-decaying is the photon branch on
    most modes of a stored pulse. Scaled so that cos theta E - sin theta sqrt(N) sigma_bc = 1. Fleischhauer & Lukin, PRA 65, 022314 (2002).
    """
    k = np.asarray(k, dtype=float)
    m = np.repeat(coupling_matrix(params, omega)[None], len(k), axis=0)
    m[:, 0, 0] = -1j * params.c * k
    lam, vecs = np.linalg.eig(m)
    theta = theta_from_omega(omega, params.g, params.n_atoms)
    dark = math.cos(theta) * vecs[:, 0] - math.sin(theta) * vecs[:, 2]
    rows, pick = np.arange(len(k)), np.argmax(np.abs(dark), axis=-1)
    return lam[rows, pick], vecs[rows, :, pick] / dark[rows, pick][:, None]


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian information pulse: amplitude * exp(-((z-center)/width)^2)."""

    amplitude: complex  # dimensionless polariton amplitude
    center_z: float  # m
    width: float  # m, 1/e half-width

    def __post_init__(self):
        for name in ("amplitude", "center_z", "width"):
            require_finite(name, getattr(self, name))
        if self.width <= 0:
            raise ConfigError(f"pulse width must be positive, got {self.width}")
        if abs(self.amplitude) == 0:
            raise ConfigError("pulse amplitude must be nonzero")

    @property
    def pulse_length(self) -> float:
        """The pulse's 1/e length, 2 * width."""
        return 2.0 * self.width


# Anti-wraparound margin: the periodic domain must be at least this many
# pulse lengths long.
DOMAIN_PADDING_FACTOR = 4.0

# Fewest grid spacings per pulse width. The Gaussian's mode at the grid's
# Nyquist wavenumber pi/dz is exp(-(pi width / (2 dz))^2) of its peak, which
# is 2^-52 at this width, so a narrower pulse is not resolved by the grid.
# The rule also keeps ((z - center)/width)^2 below (n_points/3.8)^2, so
# gaussian_field cannot overflow.
MIN_WIDTH_SPACINGS = 2.0 / math.pi * math.sqrt(52.0 * math.log(2.0))

# A pulse's support is the samples where |psi| is at least this times its
# peak. check_pulse_fits admits a Gaussian only where its support passes
# support_clear, and the spectral engine stops a row where the moved one fails.
SUPPORT_FLOOR = 1e-6


def support_clear(first, last, n_points: int):
    """Whether a support from sample position first to last, fractional or arrays, misses samples 0, 1, n-2 and n-1."""
    return (first > 1) & (last < n_points - 2)


def check_pulse_fits(grid: GridSpec, pulse: PulseSpec):
    """Raise ConfigError unless the grid is long enough for the pulse, resolves it, holds its support clear of the edges, and keeps its modes' squares finite.

    The support is gaussian_field's, in closed form: its sampled peak lies within dz/2 of the center, so no
    sample farther than hypot(width sqrt(-ln SUPPORT_FLOOR), dz/2) from it reaches the floor; the radius is
    widened by the rounding of z and of the exponent.
    """
    if grid.length < DOMAIN_PADDING_FACTOR * pulse.pulse_length:
        raise ConfigError(
            f"domain length {grid.length} m is below {DOMAIN_PADDING_FACTOR}x the "
            f"pulse length {pulse.pulse_length} m; enlarge the grid to keep the periodic "
            f"boundary out of play"
        )
    if pulse.width < MIN_WIDTH_SPACINGS * grid.dz:
        raise ConfigError(
            f"pulse width {pulse.width} m is below {MIN_WIDTH_SPACINGS:.4f} grid spacings "
            f"(z_max - z_min) / n_points = {grid.dz} m, so the grid does not resolve the pulse"
        )
    radius = math.hypot(pulse.width * math.sqrt(-math.log(SUPPORT_FLOOR)), 0.5 * grid.dz)
    radius += 1e-13 * max(abs(grid.z_min), abs(grid.z_max), radius)
    first = (pulse.center_z - radius - grid.z_min) / grid.dz
    last = (pulse.center_z + radius - grid.z_min) / grid.dz
    if not support_clear(first, last, grid.n_points):
        raise ConfigError(
            f"pulse support, {radius:.6g} m either side of the center {pulse.center_z} m where |psi| is at "
            f"least {SUPPORT_FLOOR:g} of its peak, reaches sample 0, 1, n-2 or n-1 of the domain "
            f"[z_min, z_max] = [{grid.z_min}, {grid.z_max}]"
        )
    # No mode passes |amplitude| times the pulse's sample sum, sqrt(pi) width / dz + 1 at most.
    largest_mode = abs(pulse.amplitude) * (math.sqrt(math.pi) * pulse.width / grid.dz + 1.0)
    if largest_mode > ROOT_DBL_MAX / grid.n_points:
        raise ConfigError(
            f"pulse amplitude {pulse.amplitude} gives modes up to {largest_mode:.3e}, past sqrt(DBL_MAX) / n_points "
            f"= {ROOT_DBL_MAX / grid.n_points:.3e}, where squared norms overflow"
        )


# The regime checks, in report order: (check name, key of its ratio in the
# JSON artifacts, whether the ratio must be small rather than large).
REGIME_CHECKS = (
    ("high_density", "high_density_ratio", False),  # collective coupling vs decoherence
    ("adiabatic_length", "adiabatic_length_ratio", False),  # pulse vs adiabatic length
    ("adiabatic_time", "adiabatic_time_ratio", False),  # switching vs adiabatic time
    ("adiabatic_parameter", "adiabatic_parameter", True),  # 1/(g sqrt(N) T)
    ("low_intensity", "low_intensity_ratio", True),  # max probe Rabi over min control Rabi
)


@dataclass(frozen=True)
class ValidityReport:
    """Quantified regime assumptions; pass flags follow from the ratios."""

    ratios: dict[str, float]  # by check name, one entry per REGIME_CHECKS row

    def _passes(self, factor: float) -> dict[str, bool]:
        return {
            name: self.ratios[name] <= 1.0 / factor if small else self.ratios[name] >= factor
            for name, _, small in REGIME_CHECKS
        }

    @property
    def checks(self) -> dict[str, bool]:
        return self._passes(PASS_FACTOR)

    @property
    def strong(self) -> dict[str, bool]:
        return self._passes(STRONG_PASS_FACTOR)

    @property
    def all_pass(self) -> bool:
        return all(self.checks.values())

    @property
    def blocking_pass(self) -> bool:
        return all(self.checks[name] for name in BLOCKING_CHECKS)

    def failed(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def gate(self) -> None:
        """Raise ValidityError naming every failed blocking check; the one rule that blocks a run."""
        if not self.blocking_pass:
            blocking = [name for name in self.failed() if name in BLOCKING_CHECKS]
            raise ValidityError("blocking regime checks failed: " + ", ".join(blocking))

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

    def keyed_ratios(self) -> dict[str, float]:
        """The ratios by their JSON keys."""
        return {key: self.ratios[name] for name, key, _ in REGIME_CHECKS}

    def to_dict(self) -> dict:
        return {
            **self.keyed_ratios(),
            "checks": self.checks,
            "strong": self.strong,
        }


def check_regime(
    params: MediumParams,
    pulse: PulseSpec,
    schedule: "ControlSchedule",
    horizon: float,
) -> ValidityReport:
    """Evaluate every regime assumption over the run's span [0, horizon]; reports, never raises on physics.

    The schedule is scanned at its sample_times(horizon), whose first, t = 0, gives theta(0), and timed by its turn_time(horizon).
    """
    from .coefficients import exponent_integrand, weak_probe_ratio  # local import, avoids a cycle

    require_finite("horizon", horizon)
    d_ba, d_bc = params.coherence_factors()
    decoherence = abs(d_ba * d_bc)
    high_density = params.g2n / decoherence if decoherence > 0 else math.inf

    adiab_length_scale = math.sqrt(params.gamma_ba * params.c * params.length / params.g2n)
    adiab_length = pulse.pulse_length / adiab_length_scale

    # Pre-run probe-intensity estimate at the pulse's amplitude. It comes
    # first, so an overflowing law is named by its bright ratio.
    sample = schedule.eval(params, schedule.sample_times(horizon))
    worst = float(np.max(weak_probe_ratio(params, sample.theta, sample.omega, abs(pulse.amplitude))))

    # The adiabatic scales take the resonant group velocity, which is positive
    # for theta below pi/2; a two-photon detuning can turn the detuned one negative.
    resonant = replace(params, delta=0.0, delta_p=0.0)
    v_g0 = float(exponent_integrand(float(sample.theta[0]), 0.0, resonant).v_g)
    adiab_time_scale = (params.gamma_ba / params.g2n) * (v_g0 / params.c)  # s
    turn_time = schedule.turn_time(horizon)
    adiab_time = turn_time / adiab_time_scale if adiab_time_scale > 0 else math.inf

    pulse_duration = pulse.pulse_length / v_g0  # s
    t_char = min(turn_time, pulse_duration)
    adiab_parameter = 1.0 / (params.g_root_n * t_char)

    ratios = {
        "high_density": high_density,
        "adiabatic_length": adiab_length,
        "adiabatic_time": adiab_time,
        "adiabatic_parameter": adiab_parameter,
        "low_intensity": worst,
    }
    return ValidityReport(ratios=ratios)
