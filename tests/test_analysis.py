from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from eitmem.analysis import (
    DECAY_FIT_RMS_LIMIT,
    DISTORTION_THRESHOLD,
    PROBE_CONTROL_LIMIT,
    PulseTrack,
    assemble_summary,
    check_low_intensity,
    design_limits,
    fit_decay,
    fit_velocity,
    interpolated_peak,
    measure_distortion,
    predict_output,
    stored_window,
    track_pulse,
)
from eitmem.coefficients import max_transit_time
from eitmem.control import ControlSchedule
from eitmem.errors import ConfigError, InvalidComparisonError, UntrackableFieldError
from eitmem.grids import FieldGrid, GridSpec, gaussian_field
from eitmem.model import MediumParams
from eitmem.solver import simulate

from conftest import medium_with

SEED = 6021


def test_interpolated_peak_resolves_subcell_centers():
    grid = GridSpec(-10e-3, 10e-3, 256)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        center = rng.uniform(-5e-3, 5e-3)
        field = gaussian_field(grid, amplitude=0.37, center_z=center, width=1e-3)
        z, amp = interpolated_peak(field)
        assert abs(z - center) < 0.01 * grid.dz
        assert abs(amp - 0.37) / 0.37 < 1e-4


def test_interpolated_peak_rejects_dead_field():
    grid = GridSpec(-1.0, 1.0, 64)
    with pytest.raises(UntrackableFieldError, match="floor"):
        interpolated_peak(FieldGrid(grid, np.zeros(64, dtype=complex)))


def test_track_pulse_recovers_width_and_rejects_bad_fields(default_result):
    track = track_pulse(default_result)
    assert len(track.times) == len(default_result.snapshots)
    # second-moment width of |exp(-(z/w)^2)|^2 is w
    assert track.width[0] == pytest.approx(1e-3, rel=1e-3)
    assert track.imag_fraction[0] < 1e-12
    one_snapshot = dataclasses.replace(default_result, snapshots=default_result.snapshots[:1])
    with pytest.raises(ConfigError, match="at least 2 snapshots"):
        track_pulse(one_snapshot)


def synthetic_track(n: int = 13) -> PulseTrack:
    t = np.linspace(0.0, 120e-6, n)
    z = -2e-3 + 3.7 * t
    amp = 0.2 * np.exp(-437.0 * t)
    width = np.full(n, 1e-3)
    return PulseTrack(
        times=tuple(t),
        peak_z=tuple(z),
        peak_amp=tuple(amp),
        width=tuple(width),
        imag_fraction=tuple(np.zeros(n)),
    )


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
    corrupted = PulseTrack(
        times=track.times,
        peak_z=track.peak_z,
        peak_amp=tuple(amp),
        width=track.width,
        imag_fraction=track.imag_fraction,
    )
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
    dead = PulseTrack(
        times=track.times,
        peak_z=track.peak_z,
        peak_amp=tuple(amp),
        width=track.width,
        imag_fraction=track.imag_fraction,
    )
    with pytest.raises(UntrackableFieldError, match="zero"):
        fit_decay(dead, 0.0, 120e-6)


def test_distortion_identity_is_clean():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    report = measure_distortion(field, field)
    assert report.aligned_l2 < 1e-12
    assert abs(report.shift) < 1e-9
    assert abs(report.phase_shift) < 1e-9
    assert report.verdict == "clean"


def test_distortion_factors_out_shift_scale_and_phase():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    moved = FieldGrid(grid, 0.55 * np.exp(0.3j) * np.roll(field.values, 37))
    report = measure_distortion(field, moved)
    assert report.shift == pytest.approx(37 * grid.dz, rel=1e-6)
    assert report.phase_shift == pytest.approx(0.3, abs=1e-9)
    assert report.aligned_l2 < 1e-10
    assert report.verdict == "clean"
    # shifts past the halfway mark report the short way around
    back = FieldGrid(grid, np.roll(field.values, -50))
    assert measure_distortion(field, back).shift == pytest.approx(-50 * grid.dz, rel=1e-6)


def test_distortion_flags_high_k_ripple():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    z = grid.z_array()
    ripple = FieldGrid(
        grid, field.values * (1.0 + 0.4 * np.cos(2.0 * np.pi * z / (40.0 * grid.dz)))
    )
    clean_baseline = measure_distortion(field, field).high_k_fraction
    report = measure_distortion(field, ripple)
    assert report.verdict == "distorted"
    assert report.aligned_l2 > DISTORTION_THRESHOLD
    assert report.high_k_fraction > 10.0 * clean_baseline


def test_distortion_error_paths():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    field = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    other = gaussian_field(GridSpec(-10e-3, 10e-3, 1024), 0.2, -2e-3, 1e-3)
    with pytest.raises(InvalidComparisonError, match="grids"):
        measure_distortion(field, other)
    with pytest.raises(ConfigError, match="zero"):
        measure_distortion(FieldGrid(grid, np.zeros(2048, dtype=complex)), field)


def test_predict_output_with_zero_storage_is_identity(default_sc):
    field = gaussian_field(default_sc.grid, 0.2, -2e-3, 1e-3)
    out, z_out = predict_output(default_sc.medium, default_sc.schedule, field, 0.0)
    assert np.max(np.abs(out.values - field.values)) < 1e-12
    assert z_out == pytest.approx(-2e-3, abs=1e-8)


def test_predict_output_rejects_bad_requests(default_sc):
    field = gaussian_field(default_sc.grid, 0.2, -2e-3, 1e-3)
    with pytest.raises(ConfigError, match="simple or exact"):
        predict_output(default_sc.medium, default_sc.schedule, field, 1e-6, mode="fancy")
    with pytest.raises(ConfigError, match="nonnegative"):
        predict_output(default_sc.medium, default_sc.schedule, field, -1e-6)
    detuned = medium_with(default_sc.medium, delta_p=100.0)
    with pytest.raises(ConfigError, match="resonant"):
        predict_output(detuned, default_sc.schedule, field, 1e-6)


def test_predict_output_amplitude_and_displacement(default_sc):
    field = gaussian_field(default_sc.grid, 0.2, -2e-3, 1e-3)
    t0 = 75e-6
    out_simple, z_simple = predict_output(
        default_sc.medium, default_sc.schedule, field, t0, "simple"
    )
    _, amp = interpolated_peak(out_simple)
    assert amp == pytest.approx(0.2 * math.exp(-default_sc.medium.gamma_bc * t0), rel=1e-6)
    z_peak, _ = interpolated_peak(out_simple)
    assert z_peak == pytest.approx(z_simple, abs=default_sc.grid.dz / 10)
    out_exact, z_exact = predict_output(
        default_sc.medium, default_sc.schedule, field, t0, "exact"
    )
    assert z_exact == z_simple
    _, amp_exact = interpolated_peak(out_exact)
    # resonant switch correction is parts-per-million here
    assert amp_exact == pytest.approx(amp, rel=1e-5)


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
    d = base.to_dict()
    assert isinstance(d["notes"], list) and d["delta_p_max"] == base.delta_p_max


def test_low_intensity_check_passes_default_run(default_sc, default_result):
    report = check_low_intensity(default_result, default_sc.medium, default_sc.schedule)
    assert report.passed
    assert report.flagged_times == ()
    assert 1e-5 < report.worst_ratio < 0.01
    assert len(report.times) == len(default_result.snapshots)
    # the probe scale is g * max|E|, not g * polariton amplitude: in the
    # slow-light window the polariton is almost entirely spin coherence
    e0 = float(np.max(np.abs(default_result.snapshots[0].e_field.values)))
    assert report.probe_rabi[0] == pytest.approx(default_sc.medium.g * e0, rel=1e-12)
    assert report.control_rabi[0] == pytest.approx(
        default_sc.schedule.eval(default_sc.medium, 0.0).omega, rel=1e-12
    )


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
    report = check_low_intensity(result, default_sc.medium, default_sc.schedule)
    assert not report.passed
    assert report.worst_ratio > PROBE_CONTROL_LIMIT
    assert report.flagged_times != ()


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
    assert stored_window(ControlSchedule(kind="constant", omega=1e9)) is None
    # the summary's off-window fits run over exactly that window
    track = track_pulse(default_result)
    summary = assemble_summary(default_result)
    v, resid = fit_velocity(track, *window)
    assert (summary["v_g_off"]["measured"], summary["v_g_off"]["fit_residual_rms"]) == (v, resid)
    assert summary["decay_rate"]["measured"] == fit_decay(track, *window)[0]


def test_summary_handles_constant_schedule():
    from conftest import scaled_pass_scenario

    sc = scaled_pass_scenario()
    result = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    summary = assemble_summary(result)
    assert "v_g_overall" in summary
    assert "v_g_on" not in summary
    v = summary["v_g_overall"]
    assert v["measured"] == pytest.approx(v["predicted"], rel=0.02)
