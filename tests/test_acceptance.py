"""End-to-end acceptance runs.

One test per deliverable criterion, each exercising the package the way a
user would: full storage runs, the reference integrator, and the CLI verbs.
Numbers printed alongside the assertions are the measured values, so a
failing criterion shows how far off it landed.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from eitmem.analysis import (
    check_low_intensity,
    fit_decay,
    fit_velocity,
    output_index,
    predict_output,
    track_pulse,
    track_sample,
)
from eitmem.cli import main, oracle_initial_state
from eitmem.coefficients import bright_ratio, exponent_integrand, v_g_min
from eitmem.grids import gaussian_field, squared_norm
from eitmem.model import MediumParams
from eitmem.oracle import compare_to_adiabatic, integrate_reduced
from eitmem.scenario import default_scenario
from eitmem.solver import forward_transform, inverse_transform, reconstruct, simulate

from conftest import coeffs_high_density, medium_with, probe_fields, scaled_pass_scenario, scaled_violating_scenario, scenario_with

VELOCITY_SETS = ((1e8, 1e4), (1e8, 1e3), (1e9, 1e4))
PLATEAU_HORIZON = 120e-6  # s, long enough to cover the storage plateau
OFF_WINDOW = (60e-6, 95e-6)  # s, 3/steepness clear of both switches


@pytest.fixture(scope="module")
def plateau_runs():
    """Storage-plateau runs per (gamma_ba, gamma_bc) set, with wall time."""
    sc = default_scenario()
    runs = {}
    for g_ba, g_bc in VELOCITY_SETS:
        medium = medium_with(sc.medium, gamma_ba=g_ba, gamma_bc=g_bc)
        start = time.perf_counter()
        result = simulate(scenario_with(sc, medium=medium, horizon=PLATEAU_HORIZON))
        runs[(g_ba, g_bc)] = (result, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def no_spin_decay_result():
    sc = default_scenario()
    medium = medium_with(sc.medium, gamma_bc=0.0)
    return simulate(scenario_with(sc, medium=medium, horizon=PLATEAU_HORIZON))


def test_criterion_01_off_window_velocity_tracks_rate_product(plateau_runs):
    for (g_ba, g_bc), (result, elapsed) in plateau_runs.items():
        expected = result.scenario.medium.c * g_ba * g_bc / result.scenario.medium.g2n + 0.03
        measured, _ = fit_velocity(track_pulse(result), *OFF_WINDOW)
        rel = abs(measured - expected) / expected
        print(
            f"criterion 1: gamma_ba={g_ba:.0e} gamma_bc={g_bc:.0e} "
            f"v_off={measured:.4f} m/s vs {expected:.4f} m/s ({100 * rel:.2f}%), "
            f"{elapsed:.2f} s wall"
        )
        assert rel <= 0.05
        assert elapsed < 60.0


def test_criterion_02_stored_decay_matches_spin_rate(plateau_runs):
    for g_bc in (1e4, 1e3):
        result, _ = plateau_runs[(1e8, g_bc)]
        rate, _ = fit_decay(track_pulse(result), *OFF_WINDOW)
        rel = abs(rate - g_bc) / g_bc
        print(f"criterion 2: gamma_bc={g_bc:.0e} fitted decay {rate:.6g} /s ({100 * rel:.3f}%)")
        assert rel <= 0.02


def test_criterion_03_output_peak_matches_prediction(default_sc, default_result):
    snaps = default_result.snapshots
    out_snap = snaps[output_index([s.t for s in snaps], 165e-6)]
    assert out_snap.t == pytest.approx(165e-6, rel=1e-12)
    z = default_result.scenario.grid.z_array()
    _, _, measured = track_sample(z, out_snap)
    simple, exact = predict_output(default_sc.medium, out_snap, track_sample(z, snaps[0])[2])
    rel = abs(measured - simple) / simple
    modes = abs(simple - exact) / exact
    print(
        f"criterion 3: peak(165us) measured {measured:.8g} vs predicted {simple:.8g} "
        f"({100 * rel:.3f}%), simple-vs-exact {100 * modes:.5f}%"
    )
    assert rel <= 0.02
    assert modes < 0.01


def test_criterion_04_on_window_velocity(default_sc):
    result = simulate(scenario_with(default_sc, horizon=15e-6, snapshot_dt=2.5e-6))
    measured, _ = fit_velocity(track_pulse(result), 0.0, 15e-6)
    expected = 75.0 + v_g_min(default_sc.medium)
    rel = abs(measured - expected) / expected
    print(f"criterion 4: v_on {measured:.3f} m/s vs {expected:.3f} m/s ({100 * rel:.2f}%)")
    assert rel <= 0.05


def read_sweep(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_05_detuning_sweeps_sort_clean_from_destroyed(tmp_path):
    ladders = (
        ("delta_p", "0,2e2,5e2", tmp_path / "two_photon"),
        ("delta", "0,2e6,5e6", tmp_path / "one_photon"),
    )
    for axis, values, out_dir in ladders:
        assert main(["sweep", "--axis", axis, "--values", values, "--out-dir", str(out_dir)]) == 0
        rows = read_sweep(out_dir / "sweep.csv")
        verdicts = [r["verdict"] for r in rows]
        imag = [float(r["imag_fraction"]) for r in rows]
        print(
            f"criterion 5: {axis} ladder {values} -> {verdicts}, "
            f"imag fractions {[f'{v:.3g}' for v in imag]}"
        )
        assert verdicts == ["clean", "clean", "distorted"]
        clean_high_k = max(float(r["high_k_fraction"]) for r in rows[:2])
        destroyed = rows[2]
        assert float(destroyed["imag_fraction"]) > 0.1
        assert all(float(r["imag_fraction"]) < 0.1 for r in rows[:2])
        assert float(destroyed["high_k_fraction"]) > 10.0 * clean_high_k


def test_criterion_06_design_limits_reproduce_detuning_bounds(tmp_path):
    assert main(["limits", "--pulse-length", "1e-3", "--storage-time", "5.3e-5",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "limits.json").read_text())
    rel_p = abs(payload["delta_p_max"] - 2e2) / 2e2
    rel_d = abs(payload["delta_max"] - 2e6) / 2e6
    print(
        f"criterion 6: delta_p_max {payload['delta_p_max']:.5g} vs 2e2 ({100 * rel_p:.2f}%), "
        f"delta_max {payload['delta_max']:.6g} vs 2e6 ({100 * rel_d:.2f}%)"
    )
    assert rel_p <= 0.20
    assert rel_d <= 0.20


def test_criterion_07_reference_integrator_agreement_and_attribution():
    ok = scaled_pass_scenario()
    ok_result = simulate(ok)
    ok_states = integrate_reduced(ok, oracle_initial_state(ok), 5e-4)
    ok_report = compare_to_adiabatic(ok_states, probe_fields(ok_result), ok_result.validity)

    bad = scaled_violating_scenario()
    bad_result = simulate(bad)
    bad_states = integrate_reduced(bad, oracle_initial_state(bad), 2.5e-4)
    bad_report = compare_to_adiabatic(bad_states, probe_fields(bad_result), bad_result.validity)

    print(
        f"criterion 7: compliant run L-inf {ok_report.max_linf:.3e}; "
        f"violating run L-inf {bad_report.max_linf:.3f} "
        f"attributed to {bad_report.failed_checks}"
    )
    assert ok_report.max_linf <= 0.05
    assert ok_report.failed_checks == ()
    assert bad_report.max_linf > 0.20
    assert "adiabatic_length" in bad_report.failed_checks
    assert "adiabatic_length" in bad_report.attribution
    assert bad_report.ratios["adiabatic_length_ratio"] < 1.0


def test_criterion_08_structural_invariants(default_sc, default_result, no_spin_decay_result):
    rng = np.random.default_rng(808)
    grid = default_sc.grid

    # transform round trip
    worst_ft = 0.0
    for _ in range(20):
        values = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)
        field = type(default_result.snapshots[0].psi)(grid, values)
        back = inverse_transform(forward_transform(field))
        worst_ft = max(worst_ft, float(np.max(np.abs(back - field.values))))
    assert worst_ft <= 1e-12

    # norm conservation without spin decay on resonance
    norms = [math.sqrt(squared_norm(s.psi.values) * s.psi.grid.dz) for s in no_spin_decay_result.snapshots]
    drift = max(abs(n - norms[0]) for n in norms) / norms[0]
    assert drift <= 1e-10

    # closed-form coefficients against the exact route in the dense regime
    checked = 0
    worst_route = 0.0
    for _ in range(400):
        params = MediumParams(
            g=10.0 ** rng.uniform(4, 7),
            n_atoms=10.0 ** rng.uniform(6, 10),
            length=5e-3,
            gamma_ba=10.0 ** rng.uniform(6, 9),
            gamma_bc=10.0 ** rng.uniform(2, 5),
            delta=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(5, 8),
            delta_p=rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(1, 4),
        )
        d_ba, d_bc = params.coherence_factors()
        if params.g2n / abs(d_ba * d_bc) < 1e4:
            continue
        checked += 1
        theta = rng.uniform(0.2, math.pi / 2 - 1e-9)
        theta_dot = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2, 5)])
        exact = exponent_integrand(theta, theta_dot, params)
        dense = coeffs_high_density(theta, theta_dot, params)
        worst_route = max(
            worst_route,
            abs(exact.s_part - dense.s_part) / max(abs(exact.s_part), abs(dense.s_part), 1e-300),
            abs(exact.w_part - dense.w_part) / max(abs(exact.w_part), abs(dense.w_part), 1e-300),
        )
    assert checked > 50
    assert worst_route <= 1e-3

    # exact zeros on resonance
    resonant = default_sc.medium
    for _ in range(50):
        theta = rng.uniform(0.1, math.pi / 2 - 1e-9)
        sample = exponent_integrand(theta, rng.normal() * 1e4, resonant)
        assert sample.alpha2 == 0.0
        assert sample.beta == 0.0

    # linearity and translation equivariance of the evolution
    f = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    g = gaussian_field(grid, 0.1, -3e-3, 1.5e-3)
    combo = type(f)(grid, 2.0 * f.values + 1j * g.values)
    short = scenario_with(default_sc, horizon=60e-6, snapshot_dt=15e-6)
    run_f = simulate(short, initial_field=f)
    run_g = simulate(short, initial_field=g)
    run_combo = simulate(short, initial_field=combo)
    lin = np.max(
        np.abs(
            run_combo.snapshots[-1].psi.values
            - 2.0 * run_f.snapshots[-1].psi.values
            - 1j * run_g.snapshots[-1].psi.values
        )
    )
    assert lin <= 1e-10
    shifted = type(f)(grid, np.roll(f.values, 257))
    run_shifted = simulate(short, initial_field=shifted)
    trans = np.max(
        np.abs(
            run_shifted.snapshots[-1].psi.values
            - np.roll(run_f.snapshots[-1].psi.values, 257)
        )
    )
    assert trans <= 1e-10

    # reconstruction round trip
    worst_rt = 0.0
    for theta in (0.3, 1.0, math.pi / 2 - 1e-4):
        psi = type(f)(grid, rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points))
        phi, e_field, sigma_bc = reconstruct(psi, theta, resonant)
        root_n = math.sqrt(resonant.n_atoms)
        psi_back = math.cos(theta) * e_field.values - root_n * math.sin(theta) * sigma_bc.values
        phi_back = math.sin(theta) * e_field.values + root_n * math.cos(theta) * sigma_bc.values
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(psi_back - psi.values))),
            float(np.max(np.abs(phi_back - phi.values))),
        )
    assert worst_rt <= 1e-12

    print(
        f"criterion 8: ft {worst_ft:.2e}, norm drift {drift:.2e}, "
        f"route split {worst_route:.2e} over {checked} draws, linearity {lin:.2e}, "
        f"translation {trans:.2e}, reconstruction {worst_rt:.2e}"
    )


def test_criterion_09_bright_field_stays_small_and_scales(default_sc, default_result, no_spin_decay_result):
    def snapshot_ratio(t: float) -> float:
        snaps = default_result.snapshots
        snap = snaps[output_index([s.t for s in snaps], t)]
        phi = reconstruct(snap.psi, snap.theta, default_result.scenario.medium)[0]
        return float(np.max(np.abs(phi.values)) / np.max(np.abs(snap.psi.values)))

    def model_ratio(t: float) -> float:
        state = default_sc.schedule.eval(default_sc.medium, t)
        return abs(bright_ratio(state.theta, default_sc.medium))

    on, off = snapshot_ratio(15e-6), snapshot_ratio(75e-6)
    assert math.isfinite(on) and math.isfinite(off)
    growth = off / on
    predicted_growth = model_ratio(75e-6) / model_ratio(15e-6)
    print(
        f"criterion 9: |phi|/|psi| on-window {on:.3e}, off-window {off:.3e}, "
        f"growth {growth:.1f} vs tan-theta prediction {predicted_growth:.1f}"
    )
    assert growth == pytest.approx(predicted_growth, rel=0.2)
    assert off < 0.01  # far below unity at the cot(theta) floor of 1e-5
    worst_phi = max(
        float(np.max(np.abs(reconstruct(s.psi, s.theta, no_spin_decay_result.scenario.medium)[0].values)))
        for s in no_spin_decay_result.snapshots
    )
    assert worst_phi <= 1e-14


def test_criterion_10_probe_amplitude_in_storage(default_sc, default_result):
    snaps = default_result.snapshots
    snap = snaps[output_index([s.t for s in snaps], 75e-6)]
    peak = float(np.max(np.abs(reconstruct(snap.psi, snap.theta, default_result.scenario.medium)[1].values)))
    print(f"criterion 10: stored |E| peak {peak:.3e}")
    assert 1e-4 / 3.0 <= peak <= 3e-4
    report = check_low_intensity(default_result)
    assert report.passed
