"""Spectral engine for the adiabatic polariton evolution.

The polariton field is evolved exactly in k-space: each interval contributes
integrals I_s and I_w of the closed-form coefficients, and every mode is
multiplied by exp(-I_s - i k I_w). Reconstruction of the bright state, the
probe field, and the lower-level coherence from the dark field is pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSample, bright_ratio, exponent_integrand
from .control import ControlSchedule
from .errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    QuadratureError,
    SimulationError,
    ValidityError,
)
from .grids import FieldGrid, GridSpec, field_columns, gaussian_field, write_csv
from .model import BLOCKING_CHECKS, MediumParams, PulseSpec, ValidityReport, check_regime

# Per-interval cap on log modal gain; a detuned run that amplifies any mode
# by more than e^50 within one snapshot interval is numerically meaningless.
LOG_GAIN_GUARD = 50.0

# Anti-wraparound margin: the periodic domain must be at least this many
# pulse lengths long, and the pulse must start clear of the edges.
DOMAIN_PADDING_FACTOR = 4.0

# The wraparound monitor looks at a low-passed view of the field so that
# broadband amplified floor noise in far-detuned runs does not mask where
# the physical pulse actually is. Cutoff in units of 2*pi/pulse_length.
WRAPAROUND_LOWPASS_HARMONICS = 32.0
WRAPAROUND_SUPPORT_FLOOR = 1e-6  # relative to the full-field peak


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive Simpson controls for the coefficient time integrals."""

    abs_tol: float = 1e-10  # absolute, per component of (I_s, I_w)
    max_depth: int = 48

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ConfigError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_depth < 4:
            raise ConfigError(f"max_depth must be at least 4, got {self.max_depth}")


def adaptive_simpson(f, a: float, b: float, spec: QuadratureSpec) -> np.ndarray:
    """Integrate a vector-valued complex function over [a, b].

    Classic adaptive Simpson with Richardson extrapolation; the local
    acceptance test runs on the worst component so every component meets
    spec.abs_tol. Raises QuadratureError with the achieved estimate when the
    depth budget runs out before the tolerance is met.
    """
    if b < a:
        raise ConfigError(f"integration interval reversed: [{a}, {b}]")
    if b == a:
        probe = np.asarray(f(a))
        return np.zeros_like(probe)
    fa = np.asarray(f(a))
    fm = np.asarray(f(0.5 * (a + b)))
    fb = np.asarray(f(b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    failures: list[float] = []
    value = _simpson_recurse(f, a, b, fa, fm, fb, whole, spec.abs_tol, 0, spec.max_depth, failures)
    if failures:
        raise QuadratureError(
            f"quadrature did not converge on [{a}, {b}]: worst local error "
            f"estimate {max(failures):.3e} exceeds tolerance {spec.abs_tol:.1e} "
            f"at depth {spec.max_depth}"
        )
    return value


def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth, max_depth, failures):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = np.asarray(f(lm))
    frm = np.asarray(f(rm))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    err = float(np.max(np.abs(delta)))
    if err <= 15.0 * tol or depth >= max_depth:
        if err > 15.0 * tol:
            failures.append(err / 15.0)
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _simpson_recurse(
        f, a, m, fa, flm, fm, left, half, depth + 1, max_depth, failures
    ) + _simpson_recurse(f, m, b, fm, frm, fb, right, half, depth + 1, max_depth, failures)


@dataclass(frozen=True)
class SpectralState:
    """Mode amplitudes plus the exponent bookkeeping accumulated so far."""

    grid: GridSpec
    k_grid: np.ndarray  # rad/m
    modes: np.ndarray  # complex
    accumulated_s: complex = 0.0 + 0.0j  # dimensionless
    accumulated_w: complex = 0.0 + 0.0j  # m
    max_log_gain: float = 0.0  # diagnostic from the latest evolution step


def forward_transform(f: FieldGrid) -> SpectralState:
    """Discrete transform of a field; checked against Parseval at construction."""
    n = f.grid.n_points
    modes = np.fft.fft(f.values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=f.grid.dz)
    lhs = float(np.sum(np.abs(f.values) ** 2))
    rhs = float(np.sum(np.abs(modes) ** 2)) / n
    scale = max(lhs, rhs, 1e-300)
    if abs(lhs - rhs) > 1e-10 * scale:
        raise SimulationError(
            f"Parseval mismatch at transform construction: {lhs} vs {rhs}"
        )
    return SpectralState(grid=f.grid, k_grid=k, modes=modes)


def inverse_transform(state: SpectralState) -> FieldGrid:
    return FieldGrid(state.grid, np.fft.ifft(state.modes))


def accumulate_exponent(
    params: MediumParams,
    schedule: ControlSchedule,
    t0: float,
    t1: float,
    quad: QuadratureSpec | None = None,
    trace: list[CoefficientSample] | None = None,
) -> tuple[complex, complex]:
    """Integrate (s_part, w_part) over [t0, t1].

    Re(I_w) is exactly the pulse displacement over the interval. The
    integration interval is split at the schedule's breakpoints so the
    quadrature never straddles a switch. When a trace list is supplied,
    every integrand evaluation is recorded into it.
    """
    if t1 < t0:
        raise ConfigError(f"time interval reversed: [{t0}, {t1}]")
    if t1 == t0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    quad = quad or QuadratureSpec()

    def integrand(t: float) -> np.ndarray:
        theta, theta_dot, _ = schedule.eval(params, t)
        cs = exponent_integrand(theta, theta_dot, params, t=t)
        if trace is not None:
            trace.append(cs)
        return np.array([cs.s_part, cs.w_part])

    cuts = [t0] + [b for b in schedule.breakpoints() if t0 < b < t1] + [t1]
    total = np.zeros(2, dtype=complex)
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += adaptive_simpson(integrand, a, b, quad)
    return complex(total[0]), complex(total[1])


def apply_evolution(
    state: SpectralState,
    i_s: complex,
    i_w: complex,
    overflow_guard: float = LOG_GAIN_GUARD,
) -> SpectralState:
    """Multiply every mode by exp(-I_s - i k I_w) and update the accumulators.

    A nonzero Im(I_w) makes the magnitude k-dependent: one spectral wing is
    amplified, the other attenuated. That gain is the distortion mechanism
    for detuned runs, so the largest log modal gain of the step is kept as a
    diagnostic and guarded against overflow.
    """
    log_gain = -i_s.real + state.k_grid * i_w.imag
    max_gain = float(np.max(log_gain))
    if max_gain > overflow_guard:
        raise AmplificationOverflowError(
            f"modal log gain {max_gain:.2f} exceeds guard {overflow_guard:.0f} in one "
            f"interval; the scenario is too far off resonance for a meaningful run"
        )
    factor = np.exp(-i_s - 1j * state.k_grid * i_w)
    return SpectralState(
        grid=state.grid,
        k_grid=state.k_grid,
        modes=state.modes * factor,
        accumulated_s=state.accumulated_s + i_s,
        accumulated_w=state.accumulated_w + i_w,
        max_log_gain=max_gain,
    )


def reconstruct(
    psi: FieldGrid, theta: float, theta_dot: float, params: MediumParams
) -> tuple[FieldGrid, FieldGrid, FieldGrid]:
    """Bright field, probe field, and lower-level coherence from the dark field.

    theta_dot is accepted alongside theta because callers sample both from
    the schedule; the zeroth-order bright ratio itself does not depend on it.
    Inverting the dark/bright superposition on (Psi, Phi) returns the probe
    and coherence exactly, so the round trip back to (Psi, Phi) is identity.
    """
    ratio = bright_ratio(theta, params)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    root_n = math.sqrt(params.n_atoms)
    phi = FieldGrid(psi.grid, ratio * psi.values)
    e_field = FieldGrid(psi.grid, (cos_t + sin_t * ratio) * psi.values)
    sigma_bc = FieldGrid(psi.grid, -((sin_t - cos_t * ratio) / root_n) * psi.values)
    return phi, e_field, sigma_bc


@dataclass(frozen=True)
class Snapshot:
    t: float  # s
    psi: FieldGrid
    phi: FieldGrid
    e_field: FieldGrid
    sigma_bc: FieldGrid


@dataclass(frozen=True)
class SimulationResult:
    snapshots: tuple[Snapshot, ...]
    coefficient_trace: tuple[CoefficientSample, ...]
    validity: ValidityReport
    params: MediumParams
    grid: GridSpec
    pulse: PulseSpec
    schedule: ControlSchedule

    def snapshot_at(self, t: float) -> Snapshot:
        """The snapshot closest to time t."""
        best = min(self.snapshots, key=lambda s: abs(s.t - t))
        return best


def check_pulse_fits(grid: GridSpec, pulse: PulseSpec):
    support = pulse.pulse_length
    if grid.length < DOMAIN_PADDING_FACTOR * support:
        raise ConfigError(
            f"domain length {grid.length} m is below {DOMAIN_PADDING_FACTOR}x the "
            f"pulse length {support} m; enlarge the grid to keep the periodic "
            f"boundary out of play"
        )
    if not (grid.z_min + support <= pulse.center_z <= grid.z_max - support):
        raise ConfigError(
            f"pulse center {pulse.center_z} m sits within one pulse length of the "
            f"domain edge [{grid.z_min}, {grid.z_max}]"
        )


def _check_wraparound(psi: FieldGrid, pulse: PulseSpec, t: float):
    n = psi.grid.n_points
    spectrum = np.fft.fft(psi.values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=psi.grid.dz)
    cutoff = WRAPAROUND_LOWPASS_HARMONICS * 2.0 * np.pi / pulse.pulse_length
    lowpassed = np.abs(np.fft.ifft(np.where(np.abs(k) <= cutoff, spectrum, 0.0)))
    # The floor is relative to the full field, not the low-passed one: a run
    # whose high-k modes were amplified into garbage leaves ~1e-16 * garbage
    # of transform roundoff in every retained mode, and measuring support
    # against the tiny smooth remnant would abort sweeps whose whole point
    # is to report that garbage as a distorted verdict.
    peak = psi.peak()
    if peak == 0.0:
        return
    support = lowpassed >= WRAPAROUND_SUPPORT_FLOOR * peak
    if support[0] or support[1] or support[-2] or support[-1]:
        raise DomainOverflowError(
            t, f"pulse support reached the domain edge at t = {t:.6e} s"
        )


def simulate(
    params: MediumParams,
    grid: GridSpec,
    pulse: PulseSpec,
    schedule: ControlSchedule,
    horizon: float,
    snapshot_dt: float,
    quad: QuadratureSpec | None = None,
    force: bool = False,
    initial_field: FieldGrid | None = None,
    extra_notes: tuple[str, ...] = (),
) -> SimulationResult:
    """Run the spectral evolution and reconstruct all fields per snapshot.

    The initial dark field comes from the pulse spec unless initial_field
    overrides it (same grid required); the override exists for linearity and
    translation checks where the initial shape is not a fresh Gaussian.
    Regime checks run first and block the run unless force is set.
    """
    if horizon <= 0:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if snapshot_dt <= 0:
        raise ConfigError(f"snapshot_dt must be positive, got {snapshot_dt}")
    n_steps = int(round(horizon / snapshot_dt))
    if n_steps < 1 or abs(n_steps * snapshot_dt - horizon) > 1e-9 * horizon:
        raise ConfigError(
            f"snapshot_dt {snapshot_dt} must divide the horizon {horizon} evenly"
        )
    if initial_field is None:
        check_pulse_fits(grid, pulse)
        psi0 = gaussian_field(grid, pulse.amplitude, pulse.center_z, pulse.width)
    else:
        if initial_field.grid != grid:
            raise ConfigError("initial_field grid does not match the run grid")
        psi0 = initial_field

    validity = check_regime(params, pulse, schedule, schedule.turn_time(), extra_notes)
    if not validity.blocking_pass and not force:
        blocking = [name for name in validity.failed() if name in BLOCKING_CHECKS]
        raise ValidityError("regime checks failed: " + ", ".join(blocking))

    quad = quad or QuadratureSpec()
    trace: list[CoefficientSample] = []
    state = forward_transform(psi0)

    def take_snapshot(t: float, psi: FieldGrid) -> Snapshot:
        theta, theta_dot, _ = schedule.eval(params, t)
        phi, e_field, sigma_bc = reconstruct(psi, theta, theta_dot, params)
        return Snapshot(t=t, psi=psi, phi=phi, e_field=e_field, sigma_bc=sigma_bc)

    snapshots = [take_snapshot(0.0, psi0)]
    for i in range(1, n_steps + 1):
        t_prev = (i - 1) * snapshot_dt
        t_now = i * snapshot_dt if i < n_steps else horizon
        i_s, i_w = accumulate_exponent(params, schedule, t_prev, t_now, quad, trace)
        state = apply_evolution(state, i_s, i_w)
        psi = inverse_transform(state)
        _check_wraparound(psi, pulse, t_now)
        snapshots.append(take_snapshot(t_now, psi))

    by_time = {cs.t: cs for cs in trace}
    ordered = tuple(by_time[t] for t in sorted(by_time))
    return SimulationResult(
        snapshots=tuple(snapshots),
        coefficient_trace=ordered,
        validity=validity,
        params=params,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
    )


def write_snapshots_csv(result: SimulationResult, path, stride: int = 1):
    """Dump every snapshot as rows of t, z, and Re/Im/abs of each field."""
    z = result.grid.z_array()
    header = (
        "t,z,re_psi,im_psi,abs_psi,re_phi,im_phi,abs_phi,"
        "re_e,im_e,abs_e,re_sigma_bc,im_sigma_bc,abs_sigma_bc\n"
    )
    tables = (
        field_columns(
            snap.t, z, (snap.psi.values, snap.phi.values, snap.e_field.values, snap.sigma_bc.values)
        )
        for snap in result.snapshots
    )
    write_csv(path, header, tables, stride)


def write_coefficient_csv(trace, path):
    """Coefficient trace rows: t, alpha1, alpha2, beta, v_g."""
    names = ("t", "alpha1", "alpha2", "beta", "v_g")
    columns = [[getattr(cs, name) for cs in trace] for name in names]
    write_csv(path, ",".join(names) + "\n", [columns])
