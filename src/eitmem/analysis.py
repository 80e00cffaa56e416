"""Measurement and design-limit layer on top of simulation output.

Pulls quantitative observables (peak trajectory, decay rate, group velocity,
distortion) out of snapshot series, evaluates the closed-form output
predictor, and computes the detuning/bandwidth/transit design bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import alpha1_slow_light, max_transit_time, v_g_min
from .control import ControlSchedule
from .errors import ConfigError, InvalidComparisonError, UntrackableFieldError, require_finite
from .grids import FieldGrid
from .model import MediumParams
from .solver import SimulationResult, accumulate_exponent, adaptive_simpson

TRACK_AMPLITUDE_FLOOR = 1e-12
DISTORTION_THRESHOLD = 0.1  # aligned_l2 above this reads as destroyed
HIGH_K_BANDWIDTH_FACTOR = 3.0  # spectral energy beyond this many input widths
DECAY_FIT_RMS_LIMIT = 0.05  # log-amplitude residual above which a decay fit reads as poor
PROBE_CONTROL_LIMIT = 0.1  # max tolerated probe/control Rabi ratio

# Prefactor of the detuning and bandwidth bounds. Kept as a named constant:
# it encodes "distortion stays negligible", not a derived quantity.
BOUND_PREFACTOR = 0.01


def quadratic_peak(z: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    """Sub-cell peak location and amplitude from a parabola through the maximum."""
    i = int(np.argmax(a))
    if i == 0 or i == len(a) - 1:
        return float(z[i]), float(a[i])
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    if denom == 0.0:
        return float(z[i]), float(a[i])
    offset = 0.5 * (a[i - 1] - a[i + 1]) / denom
    dz = z[1] - z[0]
    amp = a[i] - 0.25 * (a[i - 1] - a[i + 1]) * offset
    return float(z[i] + offset * dz), float(amp)


def interpolated_peak(field: FieldGrid) -> tuple[float, float]:
    """(peak position, peak amplitude) of |field| with quadratic refinement."""
    a = np.abs(field.values)
    if float(np.max(a)) < TRACK_AMPLITUDE_FLOOR:
        raise UntrackableFieldError(
            f"field peak {float(np.max(a)):.3e} lies below the tracking floor "
            f"{TRACK_AMPLITUDE_FLOOR:.0e}"
        )
    return quadratic_peak(field.grid.z_array(), a)


@dataclass(frozen=True)
class PulseTrack:
    """Peak trajectory and shape diagnostics over the snapshot series.

    The fits read the peaks alone; a track of only the snapshots a fit
    reads leaves the shape diagnostics empty.
    """

    times: tuple[float, ...]  # s
    peak_z: tuple[float, ...]  # m
    peak_amp: tuple[float, ...]
    width: tuple[float, ...] = ()  # m, second-moment width of |f|^2
    imag_fraction: tuple[float, ...] = ()  # max|Im| / max|abs| per snapshot


def track_pulse(result: SimulationResult) -> PulseTrack:
    """Follow the |psi| peak across snapshots.

    Raises when psi falls below the amplitude floor at any snapshot.
    """
    if len(result.snapshots) < 2:
        raise ConfigError("tracking needs at least 2 snapshots")
    z = result.grid.z_array()
    times, peak_z, peak_amp, width, imag_frac = [], [], [], [], []
    for snap in result.snapshots:
        values = snap.psi.values
        a = np.abs(values)
        top = float(np.max(a))
        if top < TRACK_AMPLITUDE_FLOOR:
            raise UntrackableFieldError(
                f"field 'psi' fell below the tracking floor at t = {snap.t:.6e} s"
            )
        pz, pa = quadratic_peak(z, a)
        power = a * a
        total = float(np.sum(power))
        centroid = float(np.sum(power * z)) / total
        second = float(np.sum(power * (z - centroid) ** 2)) / total
        times.append(snap.t)
        peak_z.append(pz)
        peak_amp.append(pa)
        width.append(2.0 * math.sqrt(second))
        imag_frac.append(float(np.max(np.abs(values.imag))) / top)
    return PulseTrack(
        times=tuple(times),
        peak_z=tuple(peak_z),
        peak_amp=tuple(peak_amp),
        width=tuple(width),
        imag_fraction=tuple(imag_frac),
    )


def _window(track: PulseTrack, t0: float, t1: float) -> np.ndarray:
    times = np.asarray(track.times)
    return np.nonzero((times >= t0) & (times <= t1))[0]


def fit_velocity(track: PulseTrack, t0: float, t1: float) -> tuple[float, float]:
    """Least-squares velocity of the peak over [t0, t1] and its residual rms."""
    idx = _window(track, t0, t1)
    if len(idx) < 2:
        raise ConfigError(f"velocity fit needs at least 2 samples in [{t0}, {t1}]")
    t = np.asarray(track.times)[idx]
    zpk = np.asarray(track.peak_z)[idx]
    slope, intercept = np.polyfit(t, zpk, 1)
    resid = zpk - (slope * t + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))


def fit_decay(track: PulseTrack, t0: float, t1: float) -> tuple[float, float]:
    """Exponential decay rate of the peak amplitude over [t0, t1] (1/s) and its fit residual.

    The residual is the rms of the log-linear fit; above DECAY_FIT_RMS_LIMIT
    the window likely spans a switch or a distorted stretch, and callers
    report that instead of failing.
    """
    idx = _window(track, t0, t1)
    t = np.asarray(track.times)[idx]
    amp = np.asarray(track.peak_amp)[idx]
    if len(t) < 3:
        raise ConfigError(f"decay fit needs at least 3 samples in [{t0}, {t1}]")
    if np.any(amp <= 0):
        raise UntrackableFieldError("peak amplitude hit zero inside the fit window")
    log_amp = np.log(amp)
    slope, intercept = np.polyfit(t, log_amp, 1)
    resid = log_amp - (slope * t + intercept)
    return float(-slope), float(np.sqrt(np.mean(resid**2)))


def predict_output(
    params: MediumParams,
    schedule: ControlSchedule,
    input_field: FieldGrid,
    t0_duration: float,
) -> tuple[FieldGrid, FieldGrid, float]:
    """Closed-form output after storage time T0 from t = 0: shifted and damped input.

    The input is displaced once, by the integral of the group velocity, and
    damped two ways: by the uniform factor exp(-gamma_bc T0) (simple), and
    by the integrated resonant damping rate including the switching term
    (exact). Returns the simple field, the exact field and the predicted
    output peak position.
    """
    if not params.is_resonant():
        raise ConfigError("output prediction is for resonant media only; detunings are set")
    if t0_duration < 0:
        raise ConfigError(f"storage duration must be nonnegative, got {t0_duration}")
    _, i_w = accumulate_exponent(params, schedule, 0.0, t0_duration)
    displacement = i_w.real

    def integrand(t: np.ndarray) -> np.ndarray:
        theta, theta_dot, _ = schedule.eval(params, t)
        return alpha1_slow_light(theta, theta_dot, params)

    exact_exponent = adaptive_simpson(integrand, 0.0, t0_duration, schedule.breakpoints())
    k = input_field.grid.k_array()
    shifted = np.fft.ifft(np.fft.fft(input_field.values) * np.exp(-1j * k * displacement))
    z_in, _ = interpolated_peak(input_field)
    return (
        FieldGrid(input_field.grid, math.exp(-params.gamma_bc * t0_duration) * shifted),
        FieldGrid(input_field.grid, math.exp(-float(exact_exponent)) * shifted),
        z_in + displacement,
    )


@dataclass(frozen=True)
class DistortionReport:
    aligned_l2: float  # residual after optimal shift and complex scale, / input norm
    high_k_fraction: float  # output energy beyond 3x the input bandwidth
    phase_shift: float  # rad, argument of the optimal complex scale
    shift: float  # m, the aligning displacement
    verdict: str  # clean | distorted

    def to_dict(self) -> dict:
        return {
            "aligned_l2": self.aligned_l2,
            "high_k_fraction": self.high_k_fraction,
            "phase_shift": self.phase_shift,
            "shift": self.shift,
            "verdict": self.verdict,
        }


def measure_distortion(input_field: FieldGrid, output_field: FieldGrid) -> DistortionReport:
    """Best-case mismatch between output and a shifted, rescaled input.

    The optimal circular shift comes from the cross-correlation peak with
    sub-cell refinement, the optimal complex scale from least squares; what
    remains is genuine shape change. high_k_fraction flags spectral content
    the input never had.
    """
    if input_field.grid != output_field.grid:
        raise InvalidComparisonError("input and output live on different grids")
    vin = input_field.values
    vout = output_field.values
    norm_in = float(np.linalg.norm(vin))
    if norm_in == 0.0 or float(np.max(np.abs(vin))) < TRACK_AMPLITUDE_FLOOR:
        raise ConfigError("input field is zero; nothing to compare against")
    n = input_field.grid.n_points
    dz = input_field.grid.dz
    f_in = np.fft.fft(vin)
    f_out = np.fft.fft(vout)
    corr = np.abs(np.fft.ifft(f_out * np.conj(f_in)))
    m0 = int(np.argmax(corr))
    before = corr[(m0 - 1) % n]
    here = corr[m0]
    after = corr[(m0 + 1) % n]
    denom = before - 2.0 * here + after
    frac = 0.0 if denom == 0.0 else 0.5 * (before - after) / denom
    shift_cells = m0 + frac
    if shift_cells > n / 2:
        shift_cells -= n  # report the short way around the periodic domain
    shift = shift_cells * dz
    k = input_field.grid.k_array()
    vin_shift = np.fft.ifft(f_in * np.exp(-1j * k * shift))
    scale = np.vdot(vin_shift, vout) / np.vdot(vin_shift, vin_shift)
    aligned_l2 = float(np.linalg.norm(vout - scale * vin_shift)) / norm_in
    power_in = np.abs(f_in) ** 2
    total_in = float(np.sum(power_in))
    k_mean = float(np.sum(power_in * k)) / total_in
    k_width = math.sqrt(float(np.sum(power_in * (k - k_mean) ** 2)) / total_in)
    outside = np.abs(k - k_mean) > HIGH_K_BANDWIDTH_FACTOR * k_width
    power_out = np.abs(f_out) ** 2
    total_out = float(np.sum(power_out))
    high_k = float(np.sum(power_out[outside])) / total_out if total_out > 0 else 0.0
    return DistortionReport(
        aligned_l2=aligned_l2,
        high_k_fraction=high_k,
        phase_shift=math.atan2(scale.imag, scale.real),
        shift=shift,
        verdict="distorted" if aligned_l2 > DISTORTION_THRESHOLD else "clean",
    )


@dataclass(frozen=True)
class DesignLimits:
    delta_p_max: float  # rad/s, two-photon detuning bound
    delta_max: float  # rad/s, one-photon detuning bound
    bw_limit: float  # rad/s, per-laser bandwidth bound
    bw_mismatch_limit: float  # rad/s, bound on the bandwidth difference
    t_transit_max: float  # s, storage ceiling from the residual drift
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "delta_p_max": self.delta_p_max,
            "delta_max": self.delta_max,
            "bw_limit": self.bw_limit,
            "bw_mismatch_limit": self.bw_mismatch_limit,
            "t_transit_max": self.t_transit_max,
            "notes": list(self.notes),
        }


def design_limits(params: MediumParams, l_p: float, t0: float) -> DesignLimits:
    """Detuning, bandwidth, and transit bounds for a pulse of length l_p stored for t0.

    The two-photon detuning and the laser-bandwidth mismatch carry the tight
    bound (optical-coherence decay in the denominator); the one-photon
    detuning and the individual bandwidths carry the loose one. The transit
    ceiling is how long the residual drift takes to cross the cell.
    """
    require_finite("l_p", l_p)
    require_finite("t0", t0)
    if l_p <= 0 or t0 <= 0:
        raise ConfigError(f"l_p and t0 must be positive, got {l_p}, {t0}")
    base = BOUND_PREFACTOR * params.g2n * l_p / (params.c * math.pi * t0)
    tight = base / params.gamma_ba
    loose = base / params.gamma_bc if params.gamma_bc > 0 else math.inf
    return DesignLimits(
        delta_p_max=tight,
        delta_max=loose,
        bw_limit=loose,
        bw_mismatch_limit=tight,
        t_transit_max=max_transit_time(params),
        notes=(
            f"evaluated for pulse length {l_p} m and storage time {t0} s",
            "each laser bandwidth must stay under bw_limit and the two "
            "bandwidths must differ by less than bw_mismatch_limit",
        ),
    )


@dataclass(frozen=True)
class LowIntensityReport:
    times: tuple[float, ...]  # s
    probe_rabi: tuple[float, ...]  # rad/s
    control_rabi: tuple[float, ...]  # rad/s
    worst_ratio: float
    flagged_times: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "worst_ratio": self.worst_ratio,
            "flagged_times": list(self.flagged_times),
            "passed": self.passed,
        }


def check_low_intensity(
    result: SimulationResult, params: MediumParams, schedule: ControlSchedule
) -> LowIntensityReport:
    """Probe-vs-control Rabi ratio per snapshot.

    The probe Rabi scale is g * max|E|; the run respects the weak-probe
    assumption when that stays well under the control Rabi frequency at
    every snapshot.
    """
    times, probe, control, flagged = [], [], [], []
    worst = 0.0
    omegas = schedule.eval(params, np.array([snap.t for snap in result.snapshots])).omega
    for snap, omega_c in zip(result.snapshots, omegas.tolist()):
        omega_p = params.g * float(np.max(np.abs(snap.e_field.values)))
        ratio = omega_p / omega_c
        worst = max(worst, ratio)
        times.append(snap.t)
        probe.append(omega_p)
        control.append(omega_c)
        if ratio > PROBE_CONTROL_LIMIT:
            flagged.append(snap.t)
    return LowIntensityReport(
        times=tuple(times),
        probe_rabi=tuple(probe),
        control_rabi=tuple(control),
        worst_ratio=worst,
        flagged_times=tuple(flagged),
        passed=not flagged,
    )


def stored_window(schedule: ControlSchedule) -> tuple[float, float] | None:
    """Where the off-window fits run: [t1, t2] of a tanh switch, less 3/steepness at each end.

    The margin keeps both switching transients out. Other schedules have no
    stored window and give None.
    """
    if schedule.kind != "tanh_profile":
        return None
    margin = 3.0 / schedule.steepness
    return schedule.t1 + margin, schedule.t2 - margin


def assemble_summary(result: SimulationResult, output_time: float | None = None) -> dict:
    """Measured-vs-predicted digest of one run, JSON-compatible.

    Velocity windows are derived from the schedule when it is the tanh
    switch; otherwise only the whole-run velocity is reported.
    """
    params = result.params
    schedule = result.schedule
    snaps = result.snapshots
    horizon = snaps[-1].t
    if output_time is None:
        output_time = horizon
    track = track_pulse(result)
    summary: dict = {
        "validity": result.validity.to_dict(),
        "low_intensity": check_low_intensity(result, params, schedule).to_dict(),
    }

    off_window = stored_window(schedule)
    if off_window is not None:
        windows = {"v_g_on": (0.0, schedule.t1), "v_g_off": off_window}
    else:
        windows = {"v_g_overall": (snaps[0].t, snaps[-1].t)}
    fits = {}
    for name, (t0, t1) in windows.items():
        try:
            fits[name] = fit_velocity(track, t0, t1)
        except ConfigError:
            summary[name] = None
    if "v_g_off" in fits:
        try:
            rate, rms = fit_decay(track, *off_window)
            summary["decay_rate"] = {
                "measured": rate,
                "fit_residual_rms": rms,
                "predicted": params.gamma_bc,
            }
        except (ConfigError, UntrackableFieldError):
            summary["decay_rate"] = None

    # One quadrature pass covers every fitted velocity window and the
    # output-peak window. The predicted velocity is the model's mean over
    # the same window, so switch curvature does not masquerade as
    # disagreement.
    out_snap = result.snapshot_at(output_time)
    spans = [windows[name] for name in fits] + [(snaps[0].t, out_snap.t)]
    i_s, i_w = accumulate_exponent(params, schedule, *np.array(spans).T)
    for j, (name, (v, resid)) in enumerate(fits.items()):
        t0, t1 = windows[name]
        summary[name] = {"measured": v, "fit_residual_rms": resid, "predicted": i_w[j].real / (t1 - t0)}
    _, peak0 = interpolated_peak(snaps[0].psi)
    _, peak_out = interpolated_peak(out_snap.psi)
    predicted_peak = peak0 * math.exp(-i_s[-1].real)
    output = {
        "t": out_snap.t,
        "measured_peak": peak_out,
        "predicted_peak": predicted_peak,
    }
    if params.is_resonant():
        field_simple, field_exact, _ = predict_output(params, schedule, snaps[0].psi, out_snap.t)
        output["predicted_peak_simple"] = interpolated_peak(field_simple)[1]
        output["predicted_peak_exact"] = interpolated_peak(field_exact)[1]
    summary["output_peak"] = output
    summary["distortion"] = measure_distortion(snaps[0].psi, out_snap.psi).to_dict()
    summary["v_g_floor"] = v_g_min(params)
    return summary
