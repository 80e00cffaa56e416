from __future__ import annotations

import dataclasses
import math
import pathlib
import sys

import numpy as np
import pytest

import eitmem.solver as solver_module
from eitmem.analysis import output_index
from eitmem.errors import (
    AmplificationOverflowError,
    ConfigError,
    DomainOverflowError,
    QuadratureError,
    SingularParametersError,
    ValidityError,
)
from eitmem.coefficients import exponent_integrand
from eitmem.grids import FieldGrid, GridSpec, field_tables, gaussian_field, whole_steps
from eitmem.model import MIN_WIDTH_SPACINGS, PulseSpec, check_pulse_fits
from eitmem.control import ControlSchedule
from eitmem.solver import (
    WRAPAROUND_LOWPASS_HARMONICS,
    WRAPAROUND_SUPPORT_FLOOR,
    BlockEvolution,
    _check_wraparound,
    _edge_probe,
    accumulate_exponent,
    adaptive_simpson,
    amplification_bound,
    apply_evolution,
    forward_transform,
    inverse_transform,
    mode_factor,
    reconstruct,
    simulate,
    write_coefficient_csv,
    write_snapshots_csv,
)

from conftest import coefficient_times

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
        assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def _bound_test_row(shape: str, n: int = 512) -> np.ndarray:
    rng = np.random.default_rng(SEED)
    if shape == "random":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if shape == "gaussian":
        return forward_transform(gaussian_field(GridSpec(-1.0, 1.0, n), 0.2, -0.3, 0.05))
    row = np.zeros(n, dtype=complex)
    if shape == "single_mode":
        row[7] = 3.0 - 4.0j
    elif shape == "spike":  # every mode of equal magnitude
        row = np.fft.fft(np.where(np.arange(n) == 5, 2.0 + 1.0j, 0.0))
    return row


# 1e145 keeps the largest mode under the amplification bound on 512 points.
@pytest.mark.parametrize("scale", [1.0, 1e145, 1e-300])
@pytest.mark.parametrize("shape", ["random", "gaussian", "zero", "single_mode", "spike"])
def test_largest_mode_bounds_the_transformed_peak_from_below(shape, scale):
    row = _bound_test_row(shape) * scale
    low = float(np.max(np.abs(row))) / row.size
    peak = float(np.max(np.abs(inverse_transform(row))))
    assert low <= peak
    if shape == "single_mode":  # |psi| is flat: the bound is attained
        assert peak == pytest.approx(low, rel=1e-15)
    if shape == "zero":  # a row of zero modes passes the edge check, read or not
        probe = _edge_probe(GridSpec(-1.0, 1.0, row.size).k_array(), PulseSpec(0.2, -0.3, 0.05))
        for known in (None, 0.0):
            _check_wraparound(row, known, probe, 0.0)


def test_gaussian_spectrum_is_gaussian():
    grid = GridSpec(-10e-3, 10e-3, 4096)
    w = 1e-3
    f = gaussian_field(grid, 1.0, 0.0, w)
    modes = forward_transform(f)
    k = grid.k_array()
    # continuum transform of exp(-(z/w)^2) is w sqrt(pi) exp(-k^2 w^2 / 4)
    expected = w * math.sqrt(math.pi) * np.exp(-(k**2) * w**2 / 4.0) / grid.dz
    keep = np.abs(expected) > 1e-8 * np.max(np.abs(expected))
    rel = np.abs(np.abs(modes[keep]) - expected[keep]) / np.max(expected)
    assert np.max(rel) <= 1e-6


def test_apply_evolution_decay_and_shift():
    grid = GridSpec(-10e-3, 10e-3, 2048)
    f = gaussian_field(grid, 0.2, -2e-3, 1e-3)
    shift = 17 * grid.dz
    modes = apply_evolution(forward_transform(f), grid.k_array(), complex(0.7, 0.0), complex(shift, 0.0))
    out = inverse_transform(modes)
    ref = np.roll(f.values, 17) * math.exp(-0.7)
    assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))


def _log_gain_bound(n: int) -> float:
    """ln(sqrt(DBL_MAX) / n): no mode under it can overflow an n-point transform or squared norm."""
    return math.log(math.sqrt(sys.float_info.max) / n)


def test_apply_evolution_guards_runaway_gain():
    # evolve never hands apply_evolution a snapshot past the amplification
    # bound: the bound stops each row of synthetic exponents since t = 0 at
    # its first one. Only the accumulated gain counts, so a row that gains
    # 400 e-folds in one interval after 1000 of damping runs to the end.
    k = GridSpec(-1.0, 1.0, 128).k_array()
    times = np.arange(41) * 1e-6
    steady = np.full(40, -100.0 + 0j)  # 100 e-folds per interval on every mode
    heavy = np.r_[1000.0, -400.0, np.zeros(38)].astype(complex)
    quiet = np.full(40, -1.0 + 0j)
    s = np.cumsum([steady, heavy, quiet], axis=1)
    # A pulse whose ln max|m0| is below ln(sqrt(DBL_MAX) / n) - ln(DBL_MAX)
    # stops where the factor alone would pass ln(DBL_MAX): 800 e-folds.
    for peak0, first_steady in ((1.0, 3), (math.exp(60.0), 2), (1e-200, 7), (0.0, 7)):
        limits = amplification_bound(np.array([peak0]), k, s, np.zeros_like(s), times)
        assert [stop for stop, _ in limits] == [first_steady, 40, 40]
        assert [error is None for _, error in limits] == [False, True, True]
    error = amplification_bound(np.array([1.0]), k, s, np.zeros_like(s), times)[0][1]
    assert isinstance(error, AmplificationOverflowError)
    bound = _log_gain_bound(k.size)
    assert str(error) == (
        f"the modal log gain 400.00 accumulated from t = 0 to the snapshot at 4.000000e-06 s passes "
        f"{bound:.2f}, the lesser of ln(sqrt(DBL_MAX) / n) = {bound:.2f} less ln max|m0| = 0.00 and "
        f"ln(DBL_MAX) = {math.log(sys.float_info.max):.2f}; the scenario is too far off resonance for a "
        f"meaningful run"
    )


@pytest.mark.parametrize(
    "delta_p, outcome",
    [(500.0, None), (2000.0, None), (2600.0, AmplificationOverflowError), (5000.0, AmplificationOverflowError), (5500.0, AmplificationOverflowError)],
)
def test_a_detuned_run_has_one_outcome_at_every_snapshot_cadence(default_sc, delta_p, outcome):
    # The bound is read from the gain accumulated since t = 0, which the
    # cadence does not change: 67.64 e-folds at 500 rad/s, 692.57 at 5000.
    p = dataclasses.replace(default_sc.medium, delta_p=delta_p)
    for snapshot_dt in (5e-6, 1.5e-5, 1.8e-4):
        args = (p, default_sc.grid, default_sc.pulse, default_sc.schedule, default_sc.horizon, snapshot_dt)
        if outcome is None:
            assert simulate(*args).snapshots[-1].t == default_sc.horizon
        else:
            with pytest.raises(outcome):
                simulate(*args)


def test_solver_neither_suppresses_nor_outlives_overflow():
    # Overflow is ruled out from the exponents before any mode moves, so no
    # warning needs suppressing; under filterwarnings = error a stray
    # overflow then fails the tests.
    source = pathlib.Path(solver_module.__file__).read_text()
    for banned in ("errstate", "FINITE_PEAK_LIMIT", "LOG_GAIN_GUARD"):
        assert banned not in source


def test_adaptive_simpson_is_exact_on_cubics(monkeypatch):
    monkeypatch.setattr(solver_module, "QUAD_ABS_TOL", 1e-12)
    val = adaptive_simpson(lambda t, _: np.asarray(t**3 - 2 * t + 1.0), 0.0, 2.0)
    assert complex(val) == pytest.approx(2.0, abs=1e-12)


def test_adaptive_simpson_oscillatory_reference(monkeypatch):
    monkeypatch.setattr(solver_module, "QUAD_ABS_TOL", 1e-12)
    a = 37.0
    val = adaptive_simpson(lambda t, _: np.exp(1j * a * t), 0.0, 1.0)
    expected = (np.exp(1j * a) - 1.0) / (1j * a)
    assert abs(complex(val) - expected) <= 1e-10


def test_adaptive_simpson_reports_depth_exhaustion(monkeypatch):
    # at depth 4 the panels are still dozens of radians wide for this phase
    monkeypatch.setattr(solver_module, "QUAD_ABS_TOL", 1e-15)
    monkeypatch.setattr(solver_module, "QUAD_MAX_DEPTH", 4)
    with pytest.raises(QuadratureError, match="depth"):
        adaptive_simpson(lambda t, _: np.exp(1j * 999.0 * t), 0.0, 1.0)


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
    _, (i_w,) = accumulate_exponent([default_sc.medium], default_sc.schedule, 0.0, 15e-6)
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
        phi, e_field, sigma_bc = reconstruct(psi, theta, p)
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
    # The grid must resolve the width: at the smallest width the Gaussian's
    # Nyquist mode, exp(-(pi w / 2 dz)^2) of its peak, is 2^-52.
    assert math.exp(-((math.pi * MIN_WIDTH_SPACINGS / 2) ** 2)) == pytest.approx(2.0**-52, rel=1e-12)
    width = MIN_WIDTH_SPACINGS * grid.dz
    check_pulse_fits(grid, PulseSpec(0.2, 0.0, width))
    with pytest.raises(ConfigError, match=r"^pulse width .* is below 3\.8220 grid spacings"):
        check_pulse_fits(grid, PulseSpec(0.2, 0.0, math.nextafter(width, 0.0)))


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
    snaps = default_result.snapshots
    snap = snaps[output_index([s.t for s in snaps], 74e-6)]
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
    [(t, zs, re, im, mag)] = field_tables(z, [(0.5, (vals,))], stride=1)
    assert t == 0.5
    assert [float(x) for x in zs] == z.tolist()
    re, im, mag = re.tolist(), im.tolist(), mag.tolist()
    assert re == vals.real.tolist()
    assert im == vals.imag.tolist()
    assert mag == [abs(v) for v in vals]


def test_coefficient_csv_layout(tmp_path, default_result):
    path = tmp_path / "c.csv"
    write_coefficient_csv(default_result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,alpha1,alpha2,beta,v_g"
    assert len(lines) == len(coefficient_times(default_result)) + 1
    assert [float(line.split(",")[0]) for line in lines[1:]] == coefficient_times(default_result)
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 5


def test_coefficient_csv_holds_each_instant_once(tmp_path, default_result):
    # Snapshot times and schedule samples reached by other sums round an
    # ulp apart; each such pair is one row, at the snapshot time.
    path = tmp_path / "c.csv"
    write_coefficient_csv(default_result, path)
    t = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
    assert np.all(np.diff(t) > 1e-12)
    assert {snap.t for snap in default_result.snapshots} <= set(t.tolist())


@pytest.mark.parametrize("kind", ["tanh", "tabulated"])
def test_coefficient_csv_tabulates_the_law_whatever_the_quadrature(tmp_path, monkeypatch, default_sc, kind):
    sc = default_sc
    schedule = _schedules(sc)[kind]
    written = []
    for tol in (1e-10, 1e-8):
        monkeypatch.setattr(solver_module, "QUAD_ABS_TOL", tol)
        result = simulate(sc.medium, sc.grid, sc.pulse, schedule, sc.horizon, sc.snapshot_dt)
        path = tmp_path / f"{tol}.csv"
        write_coefficient_csv(result, path)
        written.append(path.read_bytes())
    assert written[0] == written[1]
    rows = [[float(x) for x in line.split(",")] for line in written[0].decode().splitlines()[1:]]
    assert [row[0] for row in rows] == coefficient_times(result)
    for t, *coefficients in rows:
        sample = schedule.eval(sc.medium, t)
        cs = exponent_integrand(sample.theta, sample.theta_dot, sc.medium)
        assert coefficients == pytest.approx([cs.alpha1, cs.alpha2, cs.beta, cs.v_g], rel=1e-14, abs=0.0)


def test_whole_steps_counts_even_divisions_only():
    assert whole_steps(180e-6, 15e-6) == 12
    assert whole_steps(1.0, 1.0) == 1
    assert whole_steps(1.0, 0.1) == 10  # 10 * 0.1 misses 1.0 by one ulp
    assert whole_steps(180e-6, 14e-6) == 0
    assert whole_steps(1.0, 3.0) == 0  # rounds to no step at all
    assert whole_steps(1.0, 1.0 / 3.0 * (1 + 2e-9)) == 0  # off by more than 1e-9


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


# ---------------------------------------------------------------------------
# The spectral update against the direct forms it replaced.


def _full_grid_lowpass(psi: FieldGrid, pulse: PulseSpec) -> np.ndarray:
    """The wraparound monitor's low-passed |field|, by FFT over the whole grid."""
    n = psi.grid.n_points
    spectrum = np.fft.fft(psi.values)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=psi.grid.dz)
    cutoff = WRAPAROUND_LOWPASS_HARMONICS * 2.0 * np.pi / pulse.pulse_length
    return np.abs(np.fft.ifft(np.where(np.abs(k) <= cutoff, spectrum, 0.0)))


def _full_grid_edge_hit(psi: FieldGrid, pulse: PulseSpec) -> bool:
    peak = psi.peak()
    if peak == 0.0:
        return False
    support = _full_grid_lowpass(psi, pulse) >= WRAPAROUND_SUPPORT_FLOOR * peak
    return bool(support[0] or support[1] or support[-2] or support[-1])


def _edge_check_against_full_grid(sc, params) -> float | None:
    """Build a run's modes snapshot by snapshot, as the engine does, with both edge checks.

    Asserts that the four low-passed edge samples agree and that both checks
    fire together; returns the time they fired, or None.
    """
    times = np.arange(sc.horizon / sc.snapshot_dt + 1) * sc.snapshot_dt
    (s,), (w,) = np.cumsum(accumulate_exponent([params], sc.schedule, times[:-1], times[1:]), axis=-1)
    k = sc.grid.k_array()
    modes0 = forward_transform(gaussian_field(sc.grid, sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width))
    probe = _edge_probe(k, sc.pulse)
    index, basis = probe
    for j in range(len(s)):
        modes = apply_evolution(modes0, k, s[j], w[j])
        psi = FieldGrid(sc.grid, inverse_transform(modes))
        reference = _full_grid_lowpass(psi, sc.pulse)[[0, 1, -2, -1]]
        edges = np.abs(modes[index] @ basis)
        assert np.max(np.abs(edges - reference)) <= 1e-12 * psi.peak()
        hit = _full_grid_edge_hit(psi, sc.pulse)
        try:
            _check_wraparound(modes, psi.peak(), probe, times[j + 1])
        except DomainOverflowError:
            assert hit
            return times[j + 1]
        assert not hit
    return None


def test_edge_check_fires_with_the_full_grid_check(default_sc):
    # the same drifting pulse as test_run_aborts_when_pulse_reaches_the_edge
    p = dataclasses.replace(default_sc.medium, gamma_ba=1e9)
    t_hit = _edge_check_against_full_grid(default_sc, p)
    assert t_hit is not None
    with pytest.raises(DomainOverflowError) as err:
        simulate(p, default_sc.grid, default_sc.pulse, default_sc.schedule, default_sc.horizon, default_sc.snapshot_dt)
    assert err.value.t == pytest.approx(t_hit, rel=1e-12)


def test_edge_check_ignores_amplified_floor_of_distorted_run(default_sc):
    p = dataclasses.replace(default_sc.medium, delta_p=800.0)
    assert _edge_check_against_full_grid(default_sc, p) is None
    res = simulate(p, default_sc.grid, default_sc.pulse, default_sc.schedule, default_sc.horizon, default_sc.snapshot_dt)
    assert len(res.snapshots) == 13


def test_mode_factor_matches_direct_exponential():
    rng = np.random.default_rng(SEED)
    for power in range(6, 17):
        n = 2**power
        grid = GridSpec(-1.5e-2, 0.5e-2, n)
        k = grid.k_array()
        k_max = np.max(np.abs(k))
        for _ in range(4):
            i_w = complex(rng.uniform(-1.0, 1.0) * grid.length, rng.uniform(-40.0, 40.0) / k_max)
            # keep the largest log modal gain inside the amplification bound
            edge_gain = k_max * abs(i_w.imag)
            i_s = complex(rng.uniform(edge_gain - _log_gain_bound(n), edge_gain + 30.0), rng.uniform(-100.0, 100.0))
            got = mode_factor(k, i_s, i_w)
            buffer = np.empty(n, dtype=complex)
            mode_factor(k, i_s, i_w, out=buffer)
            assert np.array_equal(buffer, got)  # a reused buffer holds the same bits
            want = np.exp(-i_s - 1j * k * i_w)
            bound = 1e-13 * (1.0 + np.abs(k * i_w.real)) * np.abs(want)
            assert np.all(np.abs(got - want) <= bound), (n, i_s, i_w)


def test_mode_factor_stays_finite_under_heavy_damping():
    # a block's column table alone would span e^(+-3000) here
    grid = GridSpec(-1e-2, 1e-2, 16384)
    k = grid.k_array()
    i_w = complex(1e-3, 2e5 / np.max(k))
    i_s = complex(2e5 - 10.0, 0.0)
    got = mode_factor(k, i_s, i_w)
    want = np.exp(-i_s - 1j * k * i_w)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_apply_evolution_max_log_gain_is_the_full_grid_maximum():
    # The bound reads the gain at the two extreme modes; a k-linear gain that
    # drifts up one spectral wing, then the other, stops a row where the
    # largest gain over the whole grid passes the bound.
    k = GridSpec(-1e-2, 1e-2, 1024).k_array()
    rng = np.random.default_rng(SEED)
    wings = [rng.uniform(-60.0, 10.0, 40) * sign / np.max(np.abs(k)) for sign in (1.0, -1.0)]
    s = np.cumsum(rng.uniform(-20.0, 20.0, (2, 40)) + 0j, axis=1)
    w = np.cumsum(rng.uniform(-1e-3, 1e-3, (2, 40)) + 1j * np.array(wings), axis=1)
    limits = amplification_bound(np.array([1.0]), k, s, w, np.arange(41) * 1e-6)
    for (stop, error), a_s, a_w in zip(limits, s, w):
        over = np.max(-a_s.real[:, np.newaxis] + k * a_w.imag[:, np.newaxis], axis=1) > _log_gain_bound(k.size)
        assert over.any() and stop == int(np.argmax(over))
        assert isinstance(error, AmplificationOverflowError)


def _recursive_simpson(f, a, b, nodes):
    """Depth-first adaptive Simpson on one panel, the form the batched pass replaced."""

    def g(t):
        nodes.append(t)
        return f(np.array([t]))[..., 0]

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = g(lm)
        frm = g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        err = float(np.max(np.abs(delta)))
        if err <= 15.0 * tol or depth >= solver_module.QUAD_MAX_DEPTH:
            return left + right + delta / 15.0
        half = 0.5 * tol
        return recurse(a, m, fa, flm, fm, left, half, depth + 1) + recurse(
            m, b, fm, frm, fb, right, half, depth + 1
        )

    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, solver_module.QUAD_ABS_TOL, 0)


def _schedules(default_sc):
    p = default_sc.medium
    knots = np.linspace(0.0, 180e-6, 4001)
    thetas = default_sc.schedule.eval(p, knots).theta
    return {
        "constant": ControlSchedule(kind="constant", omega=5.0e9),
        "tanh": default_sc.schedule,
        "tabulated": ControlSchedule(kind="tabulated", times=tuple(knots), thetas=tuple(thetas)),
    }


@pytest.mark.parametrize("kind", ["constant", "tanh", "tabulated"])
def test_batched_simpson_matches_recursive_form(default_sc, kind):
    p = dataclasses.replace(default_sc.medium, delta_p=300.0)
    schedule = _schedules(default_sc)[kind]
    edges = np.arange(13) * 15e-6

    def integrand(t):
        theta, theta_dot, _ = schedule.eval(p, t)
        cs = exponent_integrand(theta, theta_dot, p)
        return np.array([cs.s_part, cs.w_part])

    batched_nodes = []

    def traced(t, _):
        batched_nodes.extend(t.tolist())
        return integrand(t)

    got = adaptive_simpson(traced, edges[:-1], edges[1:], schedule.breakpoints())
    ref_nodes = []
    want = np.zeros((2, 12), dtype=complex)
    for i, (t0, t1) in enumerate(zip(edges[:-1], edges[1:])):
        cuts = [t0] + [c for c in schedule.breakpoints() if t0 < c < t1] + [t1]
        for a, b in zip(cuts[:-1], cuts[1:]):
            want[:, i] += _recursive_simpson(integrand, a, b, ref_nodes)
    assert sorted(batched_nodes) == sorted(ref_nodes)
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


# Media of one block, by change to the default medium. At delta_p = 1e8 the
# tanh pass takes 327 nodes where the others take 279; at 1e9 it needs depth
# 5 where the others need 4.
BLOCK_MEDIA = ({}, {"delta_p": 300.0, "gamma_bc": 2e3}, {"delta_p": 1e8}, {"delta_p": 900.0, "gamma_bc": 0.0})


def _record_nodes(monkeypatch) -> dict:
    """Per medium, the batches of nodes of the last quadrature pass over it that returned.

    Wraps solver.accumulate_exponent and ControlSchedule.eval: each schedule
    evaluation inside a pass is one batch of that medium's nodes, and a pass
    that raises records nothing.
    """
    nodes, open_passes = {}, []
    evaluate, accumulate = ControlSchedule.eval, solver_module.accumulate_exponent

    def traced_eval(schedule, params, t):
        if open_passes:
            open_passes[-1].setdefault(params, []).append(np.array(t, dtype=float))
        return evaluate(schedule, params, t)

    def traced_pass(media, *args):
        open_passes.append({})
        try:
            result = accumulate(media, *args)
        finally:
            batches = open_passes.pop()
        nodes.update((params, batches.get(params, [])) for params in media)
        return result

    monkeypatch.setattr(ControlSchedule, "eval", traced_eval)
    monkeypatch.setattr(solver_module, "accumulate_exponent", traced_pass)
    return nodes


def _traced_pass(nodes, media, schedule, edges):
    """(I_s, I_w) of one quadrature pass over media, and each medium's sorted nodes, from _record_nodes."""
    got = solver_module.accumulate_exponent(media, schedule, edges[:-1], edges[1:])
    return got, [sorted(np.concatenate(nodes[params]).tolist()) for params in media]


@pytest.mark.parametrize("kind", ["constant", "tanh", "tabulated"])
def test_block_quadrature_matches_one_pass_per_medium(default_sc, monkeypatch, kind):
    schedule = _schedules(default_sc)[kind]
    media = [dataclasses.replace(default_sc.medium, **change) for change in BLOCK_MEDIA]
    edges = np.arange(13) * 15e-6
    nodes = _record_nodes(monkeypatch)
    block, block_nodes = _traced_pass(nodes, media, schedule, edges)
    assert block.shape == (2, len(media), 12)
    for j, params in enumerate(media):
        alone, (alone_nodes,) = _traced_pass(nodes, [params], schedule, edges)
        assert block[:, j].tobytes() == alone[:, 0].tobytes()
        assert block_nodes[j] == alone_nodes
    if kind == "tanh":
        assert len(block_nodes[2]) > len(block_nodes[0])


@pytest.mark.parametrize("failure", ["depth", "singular"])
def test_a_medium_that_fails_the_block_quadrature_carries_its_own_error(default_sc, monkeypatch, failure):
    media = [dataclasses.replace(default_sc.medium, **change) for change in BLOCK_MEDIA]
    if failure == "depth":
        media[2] = dataclasses.replace(media[2], delta_p=1e9)
        monkeypatch.setattr(solver_module, "QUAD_MAX_DEPTH", 4)
    else:
        integrand = solver_module.exponent_integrand

        def singular(theta, theta_dot, params):
            if params is media[2]:
                raise SingularParametersError("coefficient denominator vanished")
            return integrand(theta, theta_dot, params)

        monkeypatch.setattr(solver_module, "exponent_integrand", singular)
    sc = default_sc
    args = (sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt, True)
    nodes = _record_nodes(monkeypatch)
    block = BlockEvolution(media, *args)
    block_nodes = dict(nodes)
    assert list(block.failed) == [2]
    assert isinstance(block.failed[2], (QuadratureError, SingularParametersError))
    for j, params in enumerate(media):
        alone = BlockEvolution([params], *args)
        if j == 2:
            assert (type(block.failed[j]), str(block.failed[j])) == (type(alone.failed[0]), str(alone.failed[0]))
            assert params not in block_nodes and j not in block.validity
            continue
        assert not alone.failed
        for got, want in zip(block._exponents[j], alone._exponents[0]):
            assert got.tobytes() == want.tobytes()
        assert [t.tobytes() for t in block_nodes[params]] == [t.tobytes() for t in nodes[params]]


def test_each_snapshot_is_psi0_modes_times_one_factor_of_the_exponents_since_t0(default_sc, monkeypatch):
    # No mode state passes between snapshots: every row of every snapshot
    # is psi0's modes times mode_factor of the running sums, from t = 0, of
    # the interval exponents, bit for bit. 800 rad/s is distorted, so the
    # round-off of a product of per-interval factors is amplified there.
    sc = default_sc
    media = [dataclasses.replace(sc.medium, delta_p=delta_p) for delta_p in (0.0, 300.0, 800.0)]
    transformed = []
    inverse = solver_module.inverse_transform

    def traced(modes):
        transformed.append(modes.copy())
        return inverse(modes)

    monkeypatch.setattr(solver_module, "inverse_transform", traced)
    block = BlockEvolution(media, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    assert len(list(block.evolve())) == len(block.times) and not block.failed
    t = np.array(block.times)
    s, w = np.cumsum(accumulate_exponent(media, sc.schedule, t[:-1], t[1:]), axis=-1)
    modes0 = forward_transform(block.psi0)
    k = sc.grid.k_array()
    assert len(transformed) == len(t) - 1
    for i, modes in enumerate(transformed):
        assert modes.shape == (len(media), k.size)
        for r in range(len(media)):
            assert modes[r].tobytes() == (modes0 * mode_factor(k, s[r, i], w[r, i])).tobytes()


def test_batched_simpson_names_the_earliest_exhausted_panel(monkeypatch):
    monkeypatch.setattr(solver_module, "QUAD_ABS_TOL", 1e-15)
    monkeypatch.setattr(solver_module, "QUAD_MAX_DEPTH", 4)
    # the first interval is a cubic, done at once; the next two cannot converge
    f = lambda t, _: np.where(t <= 1.0, t**3, np.exp(1j * 999.0 * t))  # noqa: E731
    with pytest.raises(QuadratureError, match=r"\[1\.0, 2\.0\].*depth 4"):
        adaptive_simpson(f, np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_batched_simpson_skips_empty_and_rejects_reversed_intervals():
    val = adaptive_simpson(lambda t, _: np.asarray(t * t), np.array([0.0, 1.0]), np.array([3.0, 1.0]))
    assert val[0] == pytest.approx(9.0, rel=1e-14)
    assert val[1] == 0.0
    with pytest.raises(ConfigError, match="reversed"):
        adaptive_simpson(lambda t, _: t, 1.0, 0.0)


def test_snapshot_fields_are_built_on_each_read_as_reconstruct_builds_them(default_sc):
    res = simulate(default_sc.medium, default_sc.grid, default_sc.pulse, default_sc.schedule, 30e-6, 15e-6)
    snap = res.snapshots[-1]
    fields = (snap.phi, snap.e_field, snap.sigma_bc)
    # nothing is kept: a second read builds a new field, and the snapshot holds only its own fields
    assert snap.e_field is not fields[1]
    assert set(vars(snap)) == {field.name for field in dataclasses.fields(snap)}
    theta = default_sc.schedule.eval(default_sc.medium, snap.t).theta
    for field, ref in zip(fields, reconstruct(snap.psi, float(theta), default_sc.medium)):
        assert np.array_equal(field.values, ref.values)
