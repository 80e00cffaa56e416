"""Measurement and design-limit layer on top of simulation output.

Pulls quantitative observables (peak trajectory, decay rate, group velocity,
distortion) out of snapshot series, evaluates the closed-form output
predictor, and computes the detuning/bandwidth/transit design bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coefficients import alpha1_slow_light, max_transit_time, v_g_min, weak_probe_ratio
from .control import ControlSchedule
from .errors import ConfigError, InvalidComparisonError, UntrackableFieldError, require_finite
from .grids import FieldGrid, squared_norm
from .model import PASS_FACTOR, MediumParams
from .solver import SimulationResult, Snapshot, accumulate_exponent, adaptive_simpson, mode_factor

TRACK_AMPLITUDE_FLOOR = 1e-12
DISTORTION_THRESHOLD = 0.1  # aligned_l2 above this reads as destroyed
HIGH_K_BANDWIDTH_FACTOR = 3.0  # spectral energy beyond this many input widths
DECAY_FIT_RMS_LIMIT = 0.05  # log-amplitude residual above which a decay fit reads as poor

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
    """Peak trajectory over a snapshot series; NaN where psi is below the tracking floor."""

    times: tuple[float, ...]  # s
    peak_z: tuple[float, ...]  # m
    peak_amp: tuple[float, ...]


def track_sample(z: np.ndarray, snap: Snapshot) -> tuple[float, float, float]:
    """(t, peak position, peak amplitude) of one snapshot's |psi|; NaN position and amplitude below the tracking floor.

    Only a reported number that reads such a sample raises (_check_tracked).
    """
    if snap.peak < TRACK_AMPLITUDE_FLOOR:
        return snap.t, math.nan, math.nan
    return (snap.t,) + quadratic_peak(z, np.abs(snap.psi.values))


def track_pulse(result: SimulationResult) -> PulseTrack:
    """Follow the |psi| peak across snapshots."""
    if len(result.snapshots) < 2:
        raise ConfigError("tracking needs at least 2 snapshots")
    z = result.grid.z_array()
    return PulseTrack(*zip(*(track_sample(z, snap) for snap in result.snapshots)))


def _check_tracked(track: PulseTrack, idx) -> None:
    """Raise at the first sample of track in idx where psi was below the tracking floor."""
    faint = np.isnan(np.asarray(track.peak_amp)[idx])
    if np.any(faint):
        t = track.times[idx[int(np.argmax(faint))]]
        raise UntrackableFieldError(f"field 'psi' fell below the tracking floor at t = {t:.6e} s")


def _window(track: PulseTrack, t0: float, t1: float, least: int, fit: str) -> np.ndarray:
    """Indices of the samples of track in [t0, t1]: at least `least` of them, each tracked."""
    times = np.asarray(track.times)
    idx = np.nonzero((times >= t0) & (times <= t1))[0]
    if len(idx) < least:
        raise ConfigError(f"{fit} fit needs at least {least} samples in [{t0}, {t1}]")
    _check_tracked(track, idx)
    return idx


def fit_velocity(track: PulseTrack, t0: float, t1: float) -> tuple[float, float]:
    """Least-squares velocity of the peak over [t0, t1] and its residual rms."""
    idx = _window(track, t0, t1, 2, "velocity")
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
    idx = _window(track, t0, t1, 3, "decay")
    t = np.asarray(track.times)[idx]
    amp = np.asarray(track.peak_amp)[idx]
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
) -> tuple[float, float]:
    """Closed-form output peak after storage time T0 from t = 0: the input's peak, damped.

    The law moves the input without changing its shape, so the output peak
    is the input's interpolated peak times a damping factor, taken two
    ways: the uniform exp(-gamma_bc T0) (simple), and exp(-integral of
    alpha1 dt), the resonant damping rate with the switching term (exact).
    Returns (simple, exact).
    """
    if not params.is_resonant():
        raise ConfigError("output prediction is for resonant media only; detunings are set")
    if t0_duration < 0:
        raise ConfigError(f"storage duration must be nonnegative, got {t0_duration}")

    def integrand(t: np.ndarray, _) -> np.ndarray:
        theta, theta_dot, _ = schedule.eval(params, t)
        return alpha1_slow_light(theta, theta_dot, params)

    exact_exponent = adaptive_simpson(integrand, 0.0, t0_duration, schedule.breakpoints())
    _, peak = interpolated_peak(input_field)
    return peak * math.exp(-params.gamma_bc * t0_duration), peak * math.exp(-float(exact_exponent))


@dataclass(frozen=True)
class DistortionReport:
    aligned_l2: float  # residual after optimal shift and complex scale, / input norm
    high_k_fraction: float  # output energy beyond 3x the input bandwidth
    phase_shift: float  # rad, argument of the optimal complex scale
    shift: float  # m, the aligning displacement
    verdict: str  # clean | distorted


def _correlation_shift(corr: np.ndarray) -> float:
    """Circular shift in cells, refined below a cell, at the peak of |cross-correlation| corr.

    Shifts past half the domain are reported the short way around.
    """
    n = corr.size
    m0 = int(np.argmax(corr))
    before = corr[(m0 - 1) % n]
    here = corr[m0]
    after = corr[(m0 + 1) % n]
    denom = before - 2.0 * here + after
    frac = 0.0 if denom == 0.0 else 0.5 * (before - after) / denom
    shift_cells = m0 + frac
    return shift_cells - n if shift_cells > n / 2 else shift_cells


def measure_distortion(input_field: FieldGrid, output_fields: list[FieldGrid]) -> list[DistortionReport]:
    """Best-case mismatch between each output and a shifted, rescaled input.

    The optimal circular shift comes from the cross-correlation peak with
    sub-cell refinement, the optimal complex scale from least squares; what
    remains is genuine shape change. high_k_fraction flags spectral content
    the input never had. The input's spectrum and bandwidth are taken once
    per call; the outputs' spectra and cross-correlations are each one
    transform of an (outputs x n) array, in place, which along the last
    axis equals the row-by-row transforms bit for bit. Scale and residual
    are computed on spectra, row by row: by Parseval, the shifted input's
    modes are the input's times exp(-i k shift), so no shifted field is
    transformed back. Every sum is a numpy pairwise sum, which does not
    depend on the BLAS thread count. Returns one report per output, in order.
    """
    grid = input_field.grid
    vin = input_field.values
    if float(np.max(np.abs(vin))) < TRACK_AMPLITUDE_FLOOR:
        raise ConfigError("input field is zero; nothing to compare against")
    k = grid.k_array()
    f_in = np.fft.fft(vin)
    power_in = np.abs(f_in) ** 2
    total_in = float(np.sum(power_in))
    k_mean = float(np.sum(power_in * k)) / total_in
    k_width = math.sqrt(float(np.sum(power_in * (k - k_mean) ** 2)) / total_in)
    outside = np.abs(k - k_mean) > HIGH_K_BANDWIDTH_FACTOR * k_width
    del power_in  # freed before the outputs' spectra are built, for a lower peak RSS
    if any(output_field.grid != grid for output_field in output_fields):
        raise InvalidComparisonError("input and output live on different grids")
    spectra = np.array([output_field.values for output_field in output_fields], dtype=complex).reshape(-1, vin.size)
    np.fft.fft(spectra, axis=-1, out=spectra)
    # conj(f_in) is the left operand: numpy's complex product need not
    # round the same with its operands swapped.
    corr = np.conj(f_in) * spectra
    np.fft.ifft(corr, axis=-1, out=corr)
    shifts = [_correlation_shift(np.abs(row)) * grid.dz for row in corr]
    del corr  # freed before the residuals are built, for a lower peak RSS
    reports = []
    for f_out, shift in zip(spectra, shifts):
        residual = mode_factor(k, 0.0, shift)
        residual *= f_in  # the shifted input's modes
        scale = complex(np.sum(np.conj(residual) * f_out)) / total_in
        residual *= scale
        residual -= f_out  # in place, so that an output holds few spectra at once
        aligned_l2 = math.sqrt(squared_norm(residual) / total_in)
        power_out = np.abs(f_out) ** 2
        total_out = float(np.sum(power_out))
        # The out-of-band sum and the total are separate pairwise sums, so
        # when nearly all power is out of band their ratio can round past 1.
        high_k = min(float(np.sum(power_out[outside])) / total_out, 1.0) if total_out > 0 else 0.0
        reports.append(
            DistortionReport(
                aligned_l2=aligned_l2,
                high_k_fraction=high_k,
                phase_shift=math.atan2(scale.imag, scale.real),
                shift=shift,
                verdict="distorted" if aligned_l2 > DISTORTION_THRESHOLD else "clean",
            )
        )
    return reports


@dataclass(frozen=True)
class DesignLimits:
    delta_p_max: float  # rad/s, two-photon detuning bound
    delta_max: float  # rad/s, one-photon detuning bound
    bw_limit: float  # rad/s, per-laser bandwidth bound
    bw_mismatch_limit: float  # rad/s, bound on the bandwidth difference
    t_transit_max: float  # s, storage ceiling from the residual drift
    notes: tuple[str, ...] = ()


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
    worst_ratio: float
    flagged_times: tuple[float, ...]
    passed: bool


def check_low_intensity(result: SimulationResult) -> LowIntensityReport:
    """Worst probe-vs-control Rabi ratio over the snapshots of a run, on its own medium and schedule.

    Each snapshot's ratio is weak_probe_ratio at its max|psi|, so no probe
    field is built; a snapshot whose ratio passes 1 / PASS_FACTOR is flagged.
    """
    snaps = result.snapshots
    times = np.array([snap.t for snap in snaps])
    omegas = result.schedule.eval(result.params, times).omega
    thetas = np.array([snap.theta for snap in snaps])
    ratios = weak_probe_ratio(result.params, thetas, omegas, np.array([snap.peak for snap in snaps]))
    flagged = tuple(times[ratios > 1.0 / PASS_FACTOR].tolist())
    return LowIntensityReport(worst_ratio=float(np.max(ratios, initial=0.0)), flagged_times=flagged, passed=not flagged)


def stored_window(schedule: ControlSchedule) -> tuple[float, float] | None:
    """Where the off-window fits run: [t1, t2] of a tanh switch, less 3/steepness at each end.

    The margin keeps both switching transients out. Other schedules have no
    stored window and give None.
    """
    if schedule.kind != "tanh_profile":
        return None
    margin = 3.0 / schedule.steepness
    return schedule.t1 + margin, schedule.t2 - margin


def output_index(times, output_time: float) -> int:
    """Index of the time in times nearest output_time; on a tie, the first."""
    return min(range(len(times)), key=lambda i: abs(times[i] - output_time))


@dataclass(frozen=True)
class Measured:
    """The numbers a report reads off one pulse track."""

    windows: dict[str, tuple[float, float]]  # velocity window name -> (t0, t1), s
    velocity: dict[str, tuple[float, float]]  # fitted window name -> (v, residual rms)
    decay: tuple[float, float] | None  # stored-window decay rate (1/s) and residual rms
    out: int  # index of the output sample in the track
    output_peak: float


def measured(track: PulseTrack, schedule: ControlSchedule, output_time: float) -> Measured:
    """The velocity and decay fits and the output peak of one track, as every report reads them.

    The velocity windows are the tanh switch's on and stored windows, or
    else the track from its first sample to the output sample, the one
    nearest output_time; a window with too few samples, or a decay fit
    over the stored window that fails, is left out. A sample read below
    the tracking floor raises UntrackableFieldError.
    """
    out = output_index(track.times, output_time)
    off_window = stored_window(schedule)
    if off_window is not None:
        windows = {"v_g_on": (0.0, schedule.t1), "v_g_off": off_window}
    else:
        windows = {"v_g_overall": (track.times[0], track.times[out])}
    velocity = {}
    for name, (t0, t1) in windows.items():
        try:
            velocity[name] = fit_velocity(track, t0, t1)
        except ConfigError:
            pass
    decay = None
    if "v_g_off" in velocity:
        try:
            decay = fit_decay(track, *off_window)
        except (ConfigError, UntrackableFieldError):
            pass
    _check_tracked(track, [0, out])
    return Measured(windows, velocity, decay, out, track.peak_amp[out])


def assemble_summary(result: SimulationResult, output_time: float | None = None) -> dict:
    """Measured-vs-predicted digest of one run, JSON-compatible.

    The measured numbers come from `measured` on the track of every
    snapshot, so a number `sweep` reports for a medium is the one here, and
    a sample below the tracking floor raises the error `run` exits 4 with.
    Velocity windows are derived from the schedule when it is the tanh
    switch; otherwise only the whole-run velocity is reported. Each
    predicted output peak is the first snapshot's peak times exp(-damping):
    of the exponent integral Re I_s, and, in a resonant medium only, of
    gamma_bc T0 and of the integral of alpha1 (predict_output). The
    tracking floor applies to the measured samples, not to the predictions.
    """
    params = result.params
    schedule = result.schedule
    snaps = result.snapshots
    if output_time is None:
        output_time = snaps[-1].t
    track = track_pulse(result)
    summary: dict = {
        "validity": result.validity.to_dict(),
        "low_intensity": asdict(check_low_intensity(result)),
    }
    m = measured(track, schedule, output_time)
    summary |= dict.fromkeys(m.windows)
    if "v_g_off" in m.velocity:
        summary["decay_rate"] = None if m.decay is None else {
            "measured": m.decay[0],
            "fit_residual_rms": m.decay[1],
            "predicted": params.gamma_bc,
        }

    # One quadrature pass covers every fitted velocity window and the
    # output-peak window. The predicted velocity is the model's mean over
    # the same window, so switch curvature does not masquerade as
    # disagreement.
    out_snap = snaps[m.out]
    spans = [m.windows[name] for name in m.velocity] + [(snaps[0].t, out_snap.t)]
    i_s, i_w = accumulate_exponent([params], schedule, *np.array(spans).T)[:, 0]
    for j, (name, (v, resid)) in enumerate(m.velocity.items()):
        t0, t1 = m.windows[name]
        summary[name] = {"measured": v, "fit_residual_rms": resid, "predicted": i_w[j].real / (t1 - t0)}
    output = {
        "t": out_snap.t,
        "measured_peak": m.output_peak,
        "predicted_peak": track.peak_amp[0] * math.exp(-i_s[-1].real),
    }
    if params.is_resonant():
        output["predicted_peak_simple"], output["predicted_peak_exact"] = predict_output(params, schedule, snaps[0].psi, out_snap.t)
    summary["output_peak"] = output
    summary["distortion"] = asdict(measure_distortion(snaps[0].psi, [out_snap.psi])[0])
    summary["v_g_floor"] = v_g_min(params)
    return summary
