from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from eitmem.errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    QuadratureError,
    ValidityError,
)
from eitmem.grids import FieldGrid, GridSpec, field_columns, gaussian_field
from eitmem.model import PulseSpec
from eitmem.solver import (
    QuadratureSpec,
    accumulate_exponent,
    adaptive_simpson,
    apply_evolution,
    check_pulse_fits,
    forward_transform,
    inverse_transform,
    reconstruct,
    simulate,
    write_coefficient_csv,
    write_snapshots_csv,
)

SEED = 90210


def _random_field(grid: GridSpec, rng) -> FieldGrid:
    vals = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return FieldGrid(grid, vals)


def test_transform_round_trip():
    grid = GridSpec(-1.0, 1.0, 256)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        f = _random_field(grid, rng)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_gaussian_spectrum_is_gaussian():
    grid = GridSpec(-10e-3, 10e-3, 4096)
    w = 1e-3
    f = gaussian_field(grid, 1.0, 0.0, w)
    state = forward_transform(f)
    k = state.k_grid
    # continuum transform of exp(-(z/w)^2) is w sqrt(pi) exp(-k^2 w^2 / 4)
    expected = w * math.sqrt(math.pi) * np.exp(-(k**2) * w**2 / 4.0) / grid.dz
    keep = np.abs(expected) > 1e-8 * np.max(np.abs(expected))
    rel = np.abs(np.abs(state.modes[keep]) - expected[keep]) / np.max(expected)
    assert np.max(rel) <= 1e-6


def test_apply_evolution_decay_and_shift():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    f = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    state = forward_transform(f)
    shift = 17 * grid.dz
    state2 = apply_evolution(state, complex(0.7, 0.0), complex(shift, 0.0))
    out = inverse_transform(state2).values
    ref = np.roll(f.values, 17) * math.exp(-0.7)
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_apply_evolution_guards_runaway_gain():
    grid = GridSpec(-1.0, 1.0, 128)
    state = forward_transform(gaussian_field(grid, 1.0, 0.0, 0.2))
    with pytest.raises(AmplificationOverflowError):
        apply_evolution(state, complex(-60.0, 0.0), 0j)


def test_adaptive_simpson_is_exact_on_cubics():
    spec = QuadratureSpec(abs_tol=1e-12)
    val = adaptive_simpson(lambda t: np.asarray(t**3 - 2 * t + 1.0), 0.0, 2.0, spec)
    assert complex(val) == pytest.approx(2.0, abs=1e-12)


def test_adaptive_simpson_oscillatory_reference():
    spec = QuadratureSpec(abs_tol=1e-12)
    a = 37.0
    val = adaptive_simpson(lambda t: np.exp(1j * a * t), 0.0, 1.0, spec)
    expected = (np.exp(1j * a) - 1.0) / (1j * a)
    assert abs(complex(val) - expected) <= 1e-10


def test_adaptive_simpson_reports_depth_exhaustion():
    # at depth 4 the panels are still dozens of radians wide for this phase
    spec = QuadratureSpec(abs_tol=1e-15, max_depth=4)
    with pytest.raises(QuadratureError, match="depth"):
        adaptive_simpson(lambda t: np.exp(1j * 999.0 * t), 0.0, 1.0, spec)


def test_norm_conserved_without_spin_decay(default_sc):
    p = dataclasses.replace(default_sc.medium, gamma_bc=0.0)
    res = simulate(p, default_sc.grid, default_sc.pulse, default_sc.schedule, 120e-6, 15e-6)
    norms = [s.psi.norm() for s in res.snapshots]
    drift = max(abs(n - norms[0]) for n in norms) / norms[0]
    assert drift <= 1e-10


def test_real_input_stays_real_on_resonance(default_result):
    for snap in default_result.snapshots:
        vals = snap.psi.values
        assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals))


def test_simulate_is_linear(default_sc):
    grid = default_sc.grid
    f = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    g = gaussian_field(grid, 0.1, -3e-3, 1.5e-3)
    combo = FieldGrid(grid, 2.0 * f.values + 1j * g.values)

    def run(field):
        return simulate(
            default_sc.medium,
            grid,
            default_sc.pulse,
            default_sc.schedule,
            60e-6,
            15e-6,
            initial_field=field,
        )

    rf, rg, rc = run(f), run(g), run(combo)
    for sf, sg, scb in zip(rf.snapshots, rg.snapshots, rc.snapshots):
        lhs = scb.psi.values
        rhs = 2.0 * sf.psi.values + 1j * sg.psi.values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_simulate_translation_equivariance(default_sc):
    grid = default_sc.grid
    cells = 257
    f = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    shifted = FieldGrid(grid, np.roll(f.values, cells))

    def run(field):
        return simulate(
            default_sc.medium,
            grid,
            default_sc.pulse,
            default_sc.schedule,
            60e-6,
            15e-6,
            initial_field=field,
        )

    base, moved = run(f), run(shifted)
    for sb, sm in zip(base.snapshots, moved.snapshots):
        ref = np.roll(sb.psi.values, cells)
        assert np.max(np.abs(sm.psi.values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_peak_moves_by_the_accumulated_displacement(default_sc):
    res = simulate(
        default_sc.medium,
        default_sc.grid,
        default_sc.pulse,
        default_sc.schedule,
        15e-6,
        15e-6,
    )
    _, i_w = accumulate_exponent(default_sc.medium, default_sc.schedule, 0.0, 15e-6)
    z0 = default_sc.grid.z_array()[np.argmax(np.abs(res.snapshots[0].psi.values))]
    z1 = default_sc.grid.z_array()[np.argmax(np.abs(res.snapshots[-1].psi.values))]
    assert abs((z1 - z0) - i_w.real) <= default_sc.grid.dz


def test_reconstruction_round_trip(default_sc):
    p = default_sc.medium
    grid = GridSpec(-10e-3, 10e-3, 512)
    rng = np.random.default_rng(SEED)
    psi = _random_field(grid, rng)
    root_n = math.sqrt(p.n_atoms)
    for theta in (0.3, 1.0, math.pi / 2 - 1e-4):
        phi, e_field, sigma_bc = reconstruct(psi, theta, 0.0, p)
        psi_back = math.cos(theta) * e_field.values - root_n * math.sin(theta) * sigma_bc.values
        phi_back = math.sin(theta) * e_field.values + root_n * math.cos(theta) * sigma_bc.values
        scale = np.max(np.abs(psi.values))
        assert np.max(np.abs(psi_back - psi.values)) <= 1e-12 * scale
        assert np.max(np.abs(phi_back - phi.values)) <= 1e-12 * scale


def test_pulse_must_fit_the_grid():
    grid = GridSpec(-10e-3, 10e-3, 1024)
    with pytest.raises(ConfigError):
        check_pulse_fits(grid, PulseSpec(amplitude=0.2, center_z=-9.5e-3, width=1e-3))
    with pytest.raises(ConfigError):
        check_pulse_fits(GridSpec(-3e-3, 3e-3, 1024), PulseSpec(0.2, 0.0, 1e-3))


def test_run_aborts_when_pulse_reaches_the_edge(default_sc):
    # gamma_ba = 1e9 raises the retrieval speed enough to cross the box
    p = dataclasses.replace(default_sc.medium, gamma_ba=1e9)
    with pytest.raises(DomainOverflowError) as err:
        simulate(
            p,
            default_sc.grid,
            default_sc.pulse,
            default_sc.schedule,
            default_sc.horizon,
            default_sc.snapshot_dt,
        )
    assert err.value.t > 125e-6


def test_validity_gate_blocks_and_force_overrides(default_sc):
    hot = PulseSpec(amplitude=1e3, center_z=-2e-3, width=1e-3)
    with pytest.raises(ValidityError, match="low_intensity"):
        simulate(
            default_sc.medium,
            default_sc.grid,
            hot,
            default_sc.schedule,
            15e-6,
            15e-6,
        )
    res = simulate(
        default_sc.medium,
        default_sc.grid,
        hot,
        default_sc.schedule,
        15e-6,
        15e-6,
        force=True,
    )
    assert not res.validity.blocking_pass


def test_snapshot_lookup_picks_nearest(default_result):
    snap = default_result.snapshot_at(74e-6)
    assert snap.t == pytest.approx(75e-6)


def test_snapshot_csv_layout_and_determinism(tmp_path, default_result):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_snapshots_csv(default_result, path_a, stride=256)
    write_snapshots_csv(default_result, path_b, stride=256)
    data = path_a.read_bytes()
    assert data == path_b.read_bytes()
    header = data.decode().splitlines()[0]
    assert header == (
        "t,z,re_psi,im_psi,abs_psi,re_phi,im_phi,abs_phi,"
        "re_e,im_e,abs_e,re_sigma_bc,im_sigma_bc,abs_sigma_bc"
    )
    n_rows = len(data.decode().splitlines()) - 1
    assert n_rows == len(default_result.snapshots) * (16384 // 256)


def test_field_columns_take_the_scalar_complex_abs():
    # Artifacts written before the shared CSV helper used Python's scalar
    # abs per sample; numpy's vectorised complex abs can differ in the last
    # bit, which would change the written bytes.
    rng = np.random.default_rng(SEED)
    vals = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    z = np.linspace(0.0, 1.0, vals.size)
    t, zs, re, im, mag = (col.tolist() for col in field_columns(0.5, z, (vals,)))
    assert t == [0.5] * vals.size
    assert zs == z.tolist()
    assert re == vals.real.tolist()
    assert im == vals.imag.tolist()
    assert mag == [abs(v) for v in vals]


def test_coefficient_csv_layout(tmp_path, default_result):
    path = tmp_path / "c.csv"
    write_coefficient_csv(default_result.coefficient_trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha1,alpha2,beta,v_g"
    assert len(lines) == len(default_result.coefficient_trace) + 1
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 5


def test_snapshot_cadence_must_divide_horizon(default_sc):
    with pytest.raises(ConfigError):
        simulate(
            default_sc.medium,
            default_sc.grid,
            default_sc.pulse,
            default_sc.schedule,
            100e-6,
            15e-6,
        )
