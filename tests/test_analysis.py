from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from eitmem.analysis import (
    DECAY_FIT_RMS_LIMIT,
    DISTORTION_THRESHOLD,
    TRACK_AMPLITUDE_FLOOR,
    PulseTrack,
    assemble_summary,
    check_low_intensity,
    design_limits,
    fit_decay,
    fit_velocity,
    measure_distortion,
    predict_output,
    quadratic_peak,
    stored_window,
    track_pulse,
)
from eitmem.coefficients import max_transit_time
from eitmem.control import ConstantSchedule
from eitmem.errors import ConfigError, InvalidComparisonError, UntrackableFieldError
from eitmem.grids import ROOT_DBL_MAX, FieldGrid, GridSpec, gaussian_field
from eitmem.model import PASS_FACTOR, MediumParams
from eitmem.oracle import OracleState, compare_to_adiabatic
from eitmem.solver import simulate

from conftest import medium_with, probe_fields

SEED = 6021


def test_quadratic_peak_resolves_subcell_centers():
    grid = GridSpec(-10e-3, 10e-3, 256)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        center = rng.uniform(-5e-3, 5e-3)
        field = gaussian_field(grid, amplitude=0.37, center_z=center, width=1e-3)
        z, amp = quadratic_peak(grid.z_array(), np.abs(field.values))
        assert abs(z - center) < 0.01 * grid.dz
        assert abs(amp - 0.37) / 0.37 < 1e-4


@pytest.mark.parametrize("at", [0, -1])
def test_a_peak_on_the_first_or_last_sample_is_that_sample(at):
    z = np.linspace(0.0, 1.0, 8)
    a = np.linspace(1.0, 2.0, 8)[:: 1 if at else -1]
    assert quadratic_peak(z, a) == (z[at], 2.0)


def test_track_pulse_recovers_width_and_rejects_bad_fields(default_result):
    track = track_pulse(default_result)
    assert len(track.times) == len(default_result.snapshots)
    assert track.peak_z[0] == pytest.approx(-2e-3, abs=0.01 * default_result.grid.dz)
    assert track.peak_amp[0] == pytest.approx(0.2, rel=1e-4)
    one_snapshot = dataclasses.replace(default_result, snapshots=default_result.snapshots[:1])
    with pytest.raises(ConfigError, match="at least 2 snapshots"):
        track_pulse(one_snapshot)


def synthetic_track(n: int = 13) -> PulseTrack:
    t = np.linspace(0.0, 120e-6, n)
    z = -2e-3 + 3.7 * t
    amp = 0.2 * np.exp(-437.0 * t)
    return PulseTrack(times=tuple(t), peak_z=tuple(z), peak_amp=tuple(amp))


def test_velocity_fit_is_exact_on_linear_track():
    track = synthetic_track()
    v, resid = fit_velocity(track, 0.0, 120e-6)
    assert v == pytest.approx(3.7, rel=1e-10)
    assert resid < 1e-12
    with pytest.raises(ConfigError, match="at least 2"):
        fit_velocity(track, 1.0, 2.0)


def test_decay_fit_is_exact_on_exponential_track():
    track = synthetic_track()
    rate, rms = fit_decay(track, 0.0, 120e-6)
    assert rate == pytest.approx(437.0, rel=1e-10)
    assert rms < 1e-12
    with pytest.raises(ConfigError, match="at least 3"):
        fit_decay(track, 0.0, 1e-6)


def test_decay_fit_exclusion_windows_drop_corrupt_samples():
    track = synthetic_track()
    amp = list(track.peak_amp)
    amp[9] *= 5.0  # a switching transient late in the window
    corrupted = PulseTrack(times=track.times, peak_z=track.peak_z, peak_amp=tuple(amp))
    # the corrupt sample shows in the residual, which callers report
    biased, biased_rms = fit_decay(corrupted, 0.0, 120e-6)
    assert abs(biased - 437.0) > 1.0
    assert biased_rms > DECAY_FIT_RMS_LIMIT
    # a window that ends before the corrupt sample fits the clean rate
    clean, clean_rms = fit_decay(corrupted, 0.0, track.times[8])
    assert clean == pytest.approx(437.0, rel=1e-10)
    assert clean_rms < 1e-12


def test_decay_fit_rejects_zero_amplitude():
    track = synthetic_track()
    amp = list(track.peak_amp)
    amp[3] = 0.0
    dead = PulseTrack(times=track.times, peak_z=track.peak_z, peak_amp=tuple(amp))
    with pytest.raises(UntrackableFieldError, match="zero"):
        fit_decay(dead, 0.0, 120e-6)


def test_distortion_identity_is_clean():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    report = measure_distortion(field, [field])[0]
    assert report.aligned_l2 < 1e-12
    assert abs(report.shift) < 1e-9
    assert abs(report.phase_shift) < 1e-9
    assert report.verdict == "clean"


def test_distortion_factors_out_shift_scale_and_phase():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    moved = FieldGrid(grid, 0.55 * np.exp(0.3j) * np.roll(field.values, 37))
    report = measure_distortion(field, [moved])[0]
    assert report.shift == pytest.approx(37 * grid.dz, rel=1e-6)
    assert report.phase_shift == pytest.approx(0.3, abs=1e-9)
    assert report.aligned_l2 < 1e-10
    assert report.verdict == "clean"
    # shifts past the halfway mark report the short way around
    back = FieldGrid(grid, np.roll(field.values, -50))
    assert measure_distortion(field, [back])[0].shift == pytest.approx(-50 * grid.dz, rel=1e-6)


def test_distortion_flags_high_k_ripple():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    z = grid.z_array()
    ripple = FieldGrid(
        grid, field.values * (1.0 + 0.4 * np.cos(2.0 * np.pi * z / (40.0 * grid.dz)))
    )
    clean_baseline = measure_distortion(field, [field])[0].high_k_fraction
    report = measure_distortion(field, [ripple])[0]
    assert report.verdict == "distorted"
    assert report.aligned_l2 > DISTORTION_THRESHOLD
    assert report.high_k_fraction > 10.0 * clean_baseline


def test_distortion_error_paths():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    other = gaussian_field(GridSpec(-10e-3, 10e-3, 1024), 0.2, -2e-3, 1e-3)
    with pytest.raises(InvalidComparisonError, match="grids"):
        measure_distortion(field, [other])
    with pytest.raises(ConfigError, match="zero"):
        measure_distortion(FieldGrid(grid, np.zeros(2048, dtype=complex)), [field])


def spatial_distortion(input_field: FieldGrid, output_field: FieldGrid) -> tuple[float, float, float, float]:
    """(aligned_l2, high_k_fraction, phase_shift, shift) by the spatial-domain algorithm.

    The shifted input is transformed back to samples and the scale and
    residual are taken there, with BLAS inner products and norms.
    """
    vin = input_field.values
    vout = output_field.values
    n = input_field.grid.n_points
    f_in = np.fft.fft(vin)
    f_out = np.fft.fft(vout)
    corr = np.abs(np.fft.ifft(f_out * np.conj(f_in)))
    m0 = int(np.argmax(corr))
    before, here, after = corr[(m0 - 1) % n], corr[m0], corr[(m0 + 1) % n]
    denom = before - 2.0 * here + after
    shift_cells = m0 + (0.0 if denom == 0.0 else 0.5 * (before - after) / denom)
    if shift_cells > n / 2:
        shift_cells -= n
    shift = shift_cells * input_field.grid.dz
    k = input_field.grid.k_array()
    vin_shift = np.fft.ifft(f_in * np.exp(-1j * k * shift))
    scale = np.vdot(vin_shift, vout) / np.vdot(vin_shift, vin_shift)
    aligned_l2 = float(np.linalg.norm(vout - scale * vin_shift)) / float(np.linalg.norm(vin))
    power_in = np.abs(f_in) ** 2
    k_mean = float(np.sum(power_in * k)) / float(np.sum(power_in))
    k_width = math.sqrt(float(np.sum(power_in * (k - k_mean) ** 2)) / float(np.sum(power_in)))
    power_out = np.abs(f_out) ** 2
    outside = np.abs(k - k_mean) > 3.0 * k_width
    high_k = float(np.sum(power_out[outside])) / float(np.sum(power_out))
    return aligned_l2, high_k, math.atan2(scale.imag, scale.real), shift


def distortion_outputs(field: FieldGrid) -> list[FieldGrid]:
    """Shifted, sub-cell shifted, scaled, broadened and rippled copies of a Gaussian."""
    grid = field.grid
    z = grid.z_array()
    ripple = 1.0 + 0.4 * np.cos(2.0 * np.pi * z / (40.0 * grid.dz))
    return [
        field,
        FieldGrid(grid, 0.55 * np.exp(0.3j) * np.roll(field.values, 37)),
        FieldGrid(grid, np.roll(field.values, -50)),
        gaussian_field(grid, 0.07 * np.exp(-2.1j), 1.3e-3 + 0.3 * grid.dz, 1e-3),
        gaussian_field(grid, 0.2j, -2.5e-3, 1.05e-3),
        FieldGrid(grid, field.values * ripple),
    ]


def test_spectral_distortion_matches_the_spatial_algorithm():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    outputs = distortion_outputs(field)
    reports = measure_distortion(field, outputs)
    assert [r.verdict for r in reports] == ["clean"] * 5 + ["distorted"]
    for out, report in zip(outputs, reports):
        aligned_l2, high_k, phase_shift, shift = spatial_distortion(field, out)
        assert report.shift == shift
        assert report.high_k_fraction == pytest.approx(high_k, rel=1e-14, abs=0.0)
        assert report.aligned_l2 == pytest.approx(aligned_l2, rel=1e-11, abs=1e-15)
        assert report.phase_shift == pytest.approx(phase_shift, rel=1e-11, abs=1e-15)


@pytest.mark.parametrize("fraction", [0.25, 0.5, 0.73])
def test_shift_and_peak_resolve_a_subcell_displacement(fraction):
    # Checked against the displacement the fields were built with, not
    # against another spelling of the vertex formula: with the vertex
    # forced to 0 both readings are off by a quarter cell or more.
    grid = GridSpec(-2.0, 2.0, 1024)
    moved = (37 + fraction) * grid.dz
    field = gaussian_field(grid, 0.2, -0.5, 0.1)
    output = gaussian_field(grid, 0.2, -0.5 + moved, 0.1)
    shift = measure_distortion(field, [output])[0].shift
    z = grid.z_array()
    peak_shift = quadratic_peak(z, np.abs(output.values))[0] - quadratic_peak(z, np.abs(field.values))[0]
    assert abs(shift - moved) <= 1e-3 * grid.dz
    assert abs(peak_shift - moved) <= 1e-3 * grid.dz


def test_distortion_of_a_list_equals_one_call_per_output():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    outputs = distortion_outputs(field)[1:4]
    assert measure_distortion(field, outputs) == [measure_distortion(field, [out])[0] for out in outputs]
    assert measure_distortion(field, []) == []


def _bits(report) -> list:
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


@pytest.mark.parametrize("n_points", [1024, 16384])
def test_distortion_of_each_output_does_not_depend_on_the_block(n_points):
    grid = GridSpec(-10e-3, 10e-3, n_points)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    outputs = distortion_outputs(field)
    reports = measure_distortion(field, outputs)
    for out, report in zip(outputs, reports):
        assert _bits(report) == _bits(measure_distortion(field, [out])[0])


def test_distortion_of_an_output_at_the_amplification_bound_is_finite():
    # the amplification limit stops a run before any mode passes sqrt(DBL_MAX) / n,
    # so an output's spectrum, its squares and their sums stay finite
    # unscaled; the suite turns any overflow warning into an error.
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    for out in distortion_outputs(field):
        largest = ROOT_DBL_MAX / grid.n_points
        peak = FieldGrid(grid, out.values * (largest / np.max(np.abs(np.fft.fft(out.values)))))
        report = measure_distortion(field, [peak])[0]
        assert all(math.isfinite(v) for v in dataclasses.astuple(report)[:4])
        assert report.verdict == "distorted"


def test_distortion_of_a_subnormal_output_is_measured_as_it_is():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    small = distortion_outputs(field)[1:]
    tiny = measure_distortion(field, [FieldGrid(grid, 1e-310 * small[0].values)])[0]
    assert tiny.shift == measure_distortion(field, small[:1])[0].shift
    assert tiny.aligned_l2 < 1e-300


def test_distortion_and_oracle_comparison_call_no_blas_reduction(monkeypatch, default_result):
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS level-1 reduction called")

    monkeypatch.setattr(np, "vdot", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    snaps = default_result.snapshots
    reports = measure_distortion(snaps[0].psi, [snap.psi for snap in snaps[:3]])
    assert reports[0].aligned_l2 < 1e-12
    fields = probe_fields(default_result)
    states = [
        OracleState(e_field=FieldGrid(e.grid, 1.01 * e.values), sigma_ba=s.psi, sigma_bc=s.psi, t=t)
        for s, (t, e) in zip(snaps, fields)
    ]
    report = compare_to_adiabatic(states, fields, default_result.validity)
    assert report.max_l2 == pytest.approx(0.01 / 1.01, rel=1e-12)


def test_predict_output_with_zero_storage_is_identity(default_result):
    snap = default_result.snapshots[0]
    assert snap.s == 0j
    simple, exact = predict_output(default_result.params, snap, 0.2)
    assert simple == 0.2
    assert exact == 0.2


@pytest.mark.parametrize("delta_p", [0.0, 200.0])
def test_the_exact_prediction_damps_by_the_laws_own_exponent(default_sc, delta_p):
    sc = default_sc
    medium = medium_with(sc.medium, delta_p=delta_p)
    out = simulate(medium, sc.grid, sc.pulse, sc.schedule, 165e-6, sc.snapshot_dt).snapshots[-1]
    _, exact = predict_output(medium, out, 0.2)
    assert exact == 0.2 * math.exp(-out.s.real)


def test_predict_output_amplitude(default_sc, default_result):
    snap = default_result.snapshots[5]
    assert snap.t == pytest.approx(75e-6, rel=1e-12)
    simple, exact = predict_output(default_sc.medium, snap, 0.2)
    assert simple == pytest.approx(0.2 * math.exp(-default_sc.medium.gamma_bc * 75e-6), rel=1e-12)
    # the law's departure from gamma_bc T0 is parts-per-million here
    assert exact == pytest.approx(simple, rel=1e-5)


def test_design_limits_frozen_reference(default_sc):
    limits = design_limits(default_sc.medium, l_p=1e-3, t0=53e-6)
    assert limits.delta_p_max == pytest.approx(200.33348901419416, rel=1e-9)
    assert limits.delta_max == pytest.approx(2003334.8901419416, rel=1e-9)
    assert limits.bw_limit == limits.delta_max
    assert limits.bw_mismatch_limit == limits.delta_p_max
    assert limits.t_transit_max == max_transit_time(default_sc.medium)


def test_design_limits_scaling_laws(default_sc):
    p = default_sc.medium
    base = design_limits(p, 1e-3, 53e-6)
    assert design_limits(p, 2e-3, 53e-6).delta_p_max == pytest.approx(
        2.0 * base.delta_p_max, rel=1e-12
    )
    assert design_limits(p, 1e-3, 106e-6).delta_p_max == pytest.approx(
        0.5 * base.delta_p_max, rel=1e-12
    )
    assert base.delta_max / base.delta_p_max == pytest.approx(
        p.gamma_ba / p.gamma_bc, rel=1e-12
    )
    no_spin_decay = medium_with(p, gamma_bc=0.0)
    assert math.isinf(design_limits(no_spin_decay, 1e-3, 53e-6).delta_max)
    with pytest.raises(ConfigError, match="positive"):
        design_limits(p, 0.0, 53e-6)
    with pytest.raises(ConfigError, match="l_p must be finite"):
        design_limits(p, math.nan, 53e-6)
    with pytest.raises(ConfigError, match="t0 must be finite"):
        design_limits(p, 1e-3, math.inf)
    assert dataclasses.asdict(base)["delta_p_max"] == base.delta_p_max


def test_low_intensity_check_passes_default_run(default_sc, default_result):
    report = check_low_intensity(default_result)
    assert report.passed
    assert report.flagged_times == ()
    assert 1e-5 < report.worst_ratio < 0.01
    # the probe scale is g * max|E|, not g * polariton amplitude: in the
    # slow-light window the polariton is almost entirely spin coherence
    snaps = default_result.snapshots
    omegas = default_sc.schedule.eval(default_sc.medium, np.array([s.t for s in snaps])).omega
    scale = default_sc.medium.g / omegas
    e_peaks = np.array([np.max(np.abs(e.values)) for _, e in probe_fields(default_result)])
    assert report.worst_ratio == pytest.approx(np.max(scale * e_peaks), rel=1e-12)
    assert np.max(scale * np.array([s.peak for s in snaps])) > 10 * report.worst_ratio


def test_low_intensity_check_flags_hot_probe(default_sc):
    hot_pulse = dataclasses.replace(default_sc.pulse, amplitude=1e3)
    result = simulate(
        default_sc.medium,
        default_sc.grid,
        hot_pulse,
        default_sc.schedule,
        horizon=15e-6,
        snapshot_dt=15e-6,
        force=True,
    )
    report = check_low_intensity(result)
    assert not report.passed
    assert report.worst_ratio > 1.0 / PASS_FACTOR
    assert report.flagged_times != ()
    # the report reads no probe field; the fields built here must agree with it
    snaps = result.snapshots
    omegas = default_sc.schedule.eval(default_sc.medium, np.array([s.t for s in snaps])).omega
    ratios = default_sc.medium.g * np.array([np.max(np.abs(e.values)) for _, e in probe_fields(result)]) / omegas
    assert report.flagged_times == tuple(s.t for s, r in zip(snaps, ratios) if r > 1.0 / PASS_FACTOR)
    assert report.worst_ratio == pytest.approx(np.max(ratios), rel=1e-12)


def test_summary_digest_of_default_run(default_sc, default_result):
    summary = assemble_summary(default_result)
    assert set(summary) == {
        "validity",
        "low_intensity",
        "v_g_on",
        "v_g_off",
        "decay_rate",
        "output_peak",
        "distortion",
        "v_g_floor",
    }
    on = summary["v_g_on"]
    assert on["measured"] == pytest.approx(on["predicted"], rel=0.02)
    off = summary["v_g_off"]
    assert off["measured"] == pytest.approx(off["predicted"], rel=0.05)
    decay = summary["decay_rate"]
    assert decay["measured"] == pytest.approx(decay["predicted"], rel=0.02)
    out = summary["output_peak"]
    assert out["measured_peak"] == pytest.approx(out["predicted_peak"], rel=1e-6)
    assert "predicted_peak_simple" in out and "predicted_peak_exact" in out
    assert summary["distortion"]["verdict"] == "clean"
    assert summary["v_g_floor"] == pytest.approx(2.99792458, rel=1e-12)
    json.dumps(summary)  # digest must survive serialization as-is


def test_summary_fits_the_stored_window(default_sc, default_result):
    sch = default_sc.schedule
    window = stored_window(sch)
    assert window == (sch.t1 + 3.0 / sch.steepness, sch.t2 - 3.0 / sch.steepness)
    assert stored_window(ConstantSchedule(omega=1e9)) is None
    # the summary's off-window fits run over exactly that window
    track = track_pulse(default_result)
    summary = assemble_summary(default_result)
    v, resid = fit_velocity(track, *window)
    assert (summary["v_g_off"]["measured"], summary["v_g_off"]["fit_residual_rms"]) == (v, resid)
    assert summary["decay_rate"]["measured"] == fit_decay(track, *window)[0]


def _faint_copy(sc, result, amplitude):
    """The run of sc with the pulse amplitude set, from the linearity of the evolution in psi."""
    scale = amplitude / sc.pulse.amplitude
    snapshots = tuple(
        dataclasses.replace(s, psi=FieldGrid(s.psi.grid, scale * s.psi.values), peak=scale * s.peak)
        for s in result.snapshots
    )
    return dataclasses.replace(result, snapshots=snapshots)


def test_summary_tests_the_floor_only_where_a_report_reads(default_sc, default_result):
    # At 5.6e-12 only the last snapshot, which no report reads, is below the floor.
    sc = dataclasses.replace(default_sc, pulse=dataclasses.replace(default_sc.pulse, amplitude=5.6e-12))
    faint = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    assert [s.t for s in faint.snapshots if s.peak < TRACK_AMPLITUDE_FLOOR] == [sc.horizon]
    summary = assemble_summary(faint, sc.output_time)
    reference = assemble_summary(default_result, default_sc.output_time)
    for name in ("v_g_on", "v_g_off", "decay_rate"):
        assert summary[name]["measured"] == pytest.approx(reference[name]["measured"], rel=1e-9)
    track = track_pulse(faint)
    assert math.isnan(track.peak_amp[-1]) and math.isnan(track.peak_z[-1])
    # At 2.3e-12 the stored window's last sample is below it, at 4e-12 the output one.
    for amplitude, t in ((2.3e-12, "9.000000e-05"), (4e-12, "1.650000e-04")):
        with pytest.raises(UntrackableFieldError, match=f"tracking floor at t = {t} s$"):
            assemble_summary(_faint_copy(default_sc, default_result, amplitude), default_sc.output_time)


def test_summary_handles_constant_schedule():
    from conftest import scaled_pass_scenario

    sc = scaled_pass_scenario()
    result = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    summary = assemble_summary(result)
    assert "v_g_overall" in summary
    assert "v_g_on" not in summary
    v = summary["v_g_overall"]
    assert v["measured"] == pytest.approx(v["predicted"], rel=0.02)


def test_the_on_window_of_a_run_that_ends_before_the_switch_ends_with_the_run(default_sc):
    # a 15 us run ends before t1 = 30 us: the model's mean velocity is taken over the run, as the fit is
    sc = dataclasses.replace(default_sc, horizon=15e-6, snapshot_dt=15e-6, output_time=15e-6)
    result = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    on = assemble_summary(result, sc.output_time)["v_g_on"]
    assert on["predicted"] == pytest.approx(on["measured"], rel=1e-9)
