from __future__ import annotations

import ast
import csv
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from conftest import SCALED_OMEGA, probe_fields, scaled_medium, scaled_pass_scenario

import eitmem.oracle
from eitmem.cli import main, oracle_initial_state
from eitmem.control import ConstantSchedule, TabulatedSchedule, TanhSchedule
from eitmem.errors import ConfigError, InvalidComparisonError, SimulationError
from eitmem.grids import KEPT_MODE_FLOOR, FieldGrid, GridSpec, gaussian_field, kept_modes, snapshot_times, whole_steps
from eitmem.model import coupling_matrix
from eitmem.oracle import (
    MAX_STEPS,
    ORACLE_FIELDS,
    OracleConfig,
    OracleState,
    compare_to_adiabatic,
    expm,
    integrate_reduced,
    step_count,
    write_oracle_csv,
)
from eitmem.scenario import default_scenario, save_scenario
from eitmem.solver import simulate

GRID = GridSpec(-2.0, 2.0, 1024)


def zero_field() -> FieldGrid:
    return FieldGrid(GRID, np.zeros(GRID.n_points, dtype=complex))


def probe_state(center_z: float = -0.5) -> OracleState:
    return OracleState(
        e_field=gaussian_field(GRID, amplitude=0.2, center_z=center_z, width=0.1),
        sigma_ba=zero_field(),
        sigma_bc=zero_field(),
        t=0.0,
    )


def constant_schedule(omega: float = SCALED_OMEGA) -> ConstantSchedule:
    return ConstantSchedule(omega=omega)


def short_default_scenario():
    """The default scenario cut to one 15 us snapshot interval."""
    return dataclasses.replace(default_scenario(), horizon=15e-6, snapshot_dt=15e-6, output_time=15e-6)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="dt"):
        OracleConfig(dt=0.0, snapshot_dt=1.0)
    with pytest.raises(ConfigError, match="snapshot_dt"):
        OracleConfig(dt=1e-3, snapshot_dt=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="dt must be positive and finite"):
            OracleConfig(dt=bad, snapshot_dt=1.0)
        with pytest.raises(ConfigError, match="snapshot_dt must be positive and finite"):
            OracleConfig(dt=1e-3, snapshot_dt=bad)


def test_step_cadence_must_divide():
    p = scaled_medium()
    with pytest.raises(ConfigError, match="divide"):
        integrate_reduced(
            p, GRID, probe_state(), constant_schedule(), 1.0, OracleConfig(dt=0.3, snapshot_dt=0.1)
        )
    with pytest.raises(ConfigError, match="divide"):
        integrate_reduced(
            p,
            GRID,
            probe_state(),
            constant_schedule(),
            1.0,
            OracleConfig(dt=0.125, snapshot_dt=0.3),
        )


def test_step_count_is_intervals_times_steps_per_interval():
    # Past about 1e15 steps horizon / dt and snapshot_dt / dt round apart: at
    # dt = 2e-20 s the first rounds to 9000000000000001 steps, which no
    # whole number of 15 us intervals holds.
    assert step_count(180e-6, OracleConfig(dt=2e-20, snapshot_dt=1.5e-5)) == 12 * 750_000_000_000_000
    assert step_count(2.0**53, OracleConfig(dt=1.0, snapshot_dt=2.0**52)) == MAX_STEPS == 2**53
    with pytest.raises(ConfigError, match=r"^dt 1.0 takes 13510798882111488 steps to the horizon"):
        step_count(3 * 2.0**52, OracleConfig(dt=1.0, snapshot_dt=2.0**52))
    with pytest.raises(ConfigError, match=r"^snapshot_dt 0.3 must divide the horizon 1.0 evenly$"):
        step_count(1.0, OracleConfig(dt=0.1, snapshot_dt=0.3))


def test_state_fields_must_share_grid():
    other = GridSpec(-1.0, 1.0, 256)
    with pytest.raises(ConfigError, match="grid"):
        OracleState(
            e_field=gaussian_field(GRID, 0.2, -0.5, 0.1),
            sigma_ba=FieldGrid(other, np.zeros(256, dtype=complex)),
            sigma_bc=zero_field(),
            t=0.0,
        )
    with pytest.raises(ConfigError, match="grid"):
        integrate_reduced(
            scaled_medium(),
            other,
            probe_state(),
            constant_schedule(),
            1.0,
            OracleConfig(dt=0.125, snapshot_dt=0.25),
        )


def test_advection_only_limit_shifts_exactly():
    # With the atomic coupling switched off the probe is pure advection, and
    # the spectral half steps reproduce a whole-cell shift to roundoff.
    p = scaled_medium(g=1e-15, n_atoms=1.0)
    initial = probe_state()
    states = integrate_reduced(
        p, GRID, initial, constant_schedule(), 1.0, OracleConfig(dt=0.125, snapshot_dt=0.25)
    )
    assert [s.t for s in states] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    shift_cells = int(round(p.c * 1.0 / GRID.dz))
    assert shift_cells == 256
    expected = np.roll(initial.e_field.values, shift_cells)
    assert np.max(np.abs(states[-1].e_field.values - expected)) <= 1e-10


def test_zero_initial_state_stays_zero():
    states = integrate_reduced(
        scaled_medium(),
        GRID,
        OracleState(e_field=zero_field(), sigma_ba=zero_field(), sigma_bc=zero_field(), t=0.0),
        constant_schedule(),
        1.0,
        OracleConfig(dt=0.1, snapshot_dt=0.1),
    )
    for s in states:
        assert np.max(np.abs(s.e_field.values)) == 0.0
        assert np.max(np.abs(s.sigma_ba.values)) == 0.0
        assert np.max(np.abs(s.sigma_bc.values)) == 0.0


def test_splitting_converges_under_dt_halving():
    p = scaled_medium()
    runs = {
        dt: integrate_reduced(
            p, GRID, probe_state(), constant_schedule(), 2.0, OracleConfig(dt=dt, snapshot_dt=2.0)
        )
        for dt in (1e-3, 5e-4, 2.5e-4)
    }
    ref = runs[2.5e-4][-1].e_field.values
    err_coarse = np.max(np.abs(runs[1e-3][-1].e_field.values - ref))
    err_fine = np.max(np.abs(runs[5e-4][-1].e_field.values - ref))
    # second-order splitting: halving dt must cut the error by well over 3x
    assert err_fine < 1e-5
    assert err_coarse / err_fine > 3.0


def coupling_generator(params, omega) -> np.ndarray:
    """The local atomic block M acting on (E, sigma_ba, sigma_bc), unbalanced."""
    d_ba = complex(params.gamma_ba, params.delta + params.delta_p)
    d_bc = complex(params.gamma_bc, params.delta_p)
    return np.array(
        [
            [0.0, 1j * params.g * params.n_atoms, 0.0],
            [1j * params.g, -d_ba, 1j * omega],
            [0.0, 1j * np.conj(omega), -d_bc],
        ]
    )


def exact_per_mode(params, omega, initial, horizon) -> np.ndarray:
    """(E, sigma_ba, sigma_bc) at the horizon under a constant control, exactly.

    The reduced system is linear and translation invariant, so Fourier mode
    k evolves under the 3x3 generator M - i k c e0 e0^T, exponentiated over
    the whole horizon in one go.
    """
    k = GRID.k_array()
    generators = np.broadcast_to(coupling_generator(params, omega), (len(k), 3, 3)).copy()
    generators[:, 0, 0] -= 1j * k * params.c
    propagators = scipy.linalg.expm(generators * horizon)
    modes = np.fft.fft(
        np.vstack([initial.e_field.values, initial.sigma_ba.values, initial.sigma_bc.values]),
        axis=1,
    )
    return np.fft.ifft(np.einsum("kij,jk->ik", propagators, modes), axis=1)


@pytest.mark.parametrize(
    "params, omega",
    [(scaled_medium(n_atoms=1e4), 100.0), (scaled_medium(), SCALED_OMEGA)],
    ids=["n_atoms_1e4", "scaled"],
)
def test_splitting_matches_exact_per_mode_reference(params, omega):
    initial = probe_state(center_z=-0.7)
    ref = exact_per_mode(params, omega, initial, 1.0)
    errors = {}
    for dt in (5e-4, 2.5e-4):
        final = integrate_reduced(
            params, GRID, initial, constant_schedule(omega), 1.0,
            OracleConfig(dt=dt, snapshot_dt=1.0),
        )[-1]
        errors[dt] = [
            np.max(np.abs(got.values - want)) / np.max(np.abs(want))
            for got, want in zip((final.e_field, final.sigma_ba, final.sigma_bc), ref)
        ]
    assert max(errors[2.5e-4]) < 2e-3
    # second-order splitting: halving dt cuts the probe-field error by well over 3x
    assert errors[5e-4][0] / errors[2.5e-4][0] > 3.0


def test_non_finite_values_name_their_snapshot_interval(monkeypatch):
    # A NaN propagator on the second step of the second interval: the check
    # runs once per snapshot interval, and names that interval.
    real = eitmem.oracle._step_propagators

    def poisoned(*args):
        for i, propagator in enumerate(real(*args)):
            yield np.full((3, 3), np.nan) if i == 5 else propagator

    monkeypatch.setattr(eitmem.oracle, "_step_propagators", poisoned)
    with pytest.raises(
        SimulationError, match=r"non-finite values in \[2\.500000e-01, 5\.000000e-01\] s"
    ):
        integrate_reduced(
            scaled_medium(), GRID, probe_state(), constant_schedule(), 1.0,
            OracleConfig(dt=0.0625, snapshot_dt=0.25),
        )


def rel_diff(got, ref) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def unbalanced(params, balanced: np.ndarray) -> np.ndarray:
    """D^-1 M D for D = diag(1, sqrt N, sqrt N): the oracle's generator as written."""
    d = np.array([1.0, math.sqrt(params.n_atoms), math.sqrt(params.n_atoms)])
    return balanced * d[None, :] / d[:, None]


def medium_controls():
    """(params, dt, control values at several schedule times), per medium."""
    sc = default_scenario()
    sched = sc.schedule
    times = (0.0, sched.t1, 0.5 * (sched.t1 + sched.t2), sched.t2 + 1.0 / sched.steepness)
    yield sc.medium, sc.snapshot_dt / 1000.0, [sched.eval(sc.medium, t).omega for t in times]
    p = scaled_medium()
    tanh = TanhSchedule(
        scale=0.3, floor=0.02, steepness=10.0, t1=1.0, t2=3.0
    )
    omega = [tanh.eval(p, t).omega for t in (0.0, 1.0, 2.0, 3.05)] + [SCALED_OMEGA]
    for dt in (5e-4, 1e-3):
        yield p, dt, omega


def test_expm_matches_scipy_on_oracle_generators():
    for params, dt, omega in medium_controls():
        generators = coupling_matrix(params, np.array(omega)) * dt
        for m in generators:
            for a in (m, unbalanced(params, m)):
                assert rel_diff(expm(a), scipy.linalg.expm(a)) < 1e-12
        # the propagators the oracle builds: balanced, exponentiated, unbalanced
        built = eitmem.oracle._propagators(params, np.array(omega), dt)
        for m, got in zip(generators, built):
            assert rel_diff(got, scipy.linalg.expm(unbalanced(params, m))) < 1e-12


def test_expm_batches_over_leading_axes():
    params, dt, omega = next(medium_controls())
    generators = coupling_matrix(params, np.array(omega)) * dt
    rng = np.random.default_rng(7)
    batch = generators[rng.integers(0, len(generators), size=(2, 5))]
    batch = batch * rng.uniform(0.1, 3.0, size=(2, 5, 1, 1))
    got = expm(batch)
    assert got.shape == (2, 5, 3, 3)
    for idx in np.ndindex(2, 5):
        assert rel_diff(got[idx], scipy.linalg.expm(batch[idx])) < 1e-12


def test_expm_of_zero_is_identity():
    assert rel_diff(expm(np.zeros((3, 3))), scipy.linalg.expm(np.zeros((3, 3)))) < 1e-12
    assert rel_diff(expm(np.zeros((4, 3, 3))), np.broadcast_to(np.eye(3), (4, 3, 3))) < 1e-12


def test_expm_survives_overflowing_powers():
    # A^6 and higher powers overflow, so the scaling falls back on ||A||.
    # Both eigenvalues are hugely negative: exp(A) is 0 to double precision.
    for a in (np.diag([-1.0e60, -3.0e59]), np.array([[-1.0e60, 1.0e59], [0.0, -2.0e60]])):
        with np.errstate(over="raise", invalid="raise"):
            got = expm(a)
        assert np.array_equal(got, np.zeros((2, 2)))


def scipy_march(params, schedule, initial, dt, n_steps, per_snap) -> list[np.ndarray]:
    """The (3, n) fields after every per_snap steps of the splitting, step by step with scipy's expm, on every mode."""
    k = 2.0 * np.pi * np.fft.fftfreq(GRID.n_points, d=GRID.dz)
    half_phase = np.exp(-1j * k * params.c * dt / 2.0)
    stack = np.fft.fft(
        np.vstack([initial.e_field.values, initial.sigma_ba.values, initial.sigma_bc.values]),
        axis=1,
    )
    fields = []
    for i in range(n_steps):
        m = coupling_generator(params, schedule.eval(params, initial.t + (i + 0.5) * dt).omega)
        stack[0] *= half_phase
        stack = scipy.linalg.expm(m * dt) @ stack
        stack[0] *= half_phase
        if (i + 1) % per_snap == 0:
            fields.append(np.fft.ifft(stack, axis=1))
    return fields


def assert_fields_follow(states, reference):
    for state, fields in zip(states, reference, strict=True):
        for got, ref in zip((state.e_field, state.sigma_ba, state.sigma_bc), fields):
            assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))


# A tanh switch inside a 1.05 horizon, marched in 105 steps of 0.01 with a
# snapshot every 7 steps.
SWITCH = TanhSchedule(scale=0.3, floor=0.02, steepness=10.0, t1=0.3, t2=0.8)


def test_chunked_propagators_follow_step_midpoints(monkeypatch):
    # Chunks of 16 steps against snapshots every 7 steps: no chunk boundary
    # falls on a snapshot boundary, and the last chunk is partial.
    monkeypatch.setattr(eitmem.oracle, "CHUNK_STEPS", 16)
    p = scaled_medium()
    initial = probe_state()
    states = integrate_reduced(p, GRID, initial, SWITCH, 1.05, OracleConfig(dt=0.01, snapshot_dt=0.07))
    assert [s.t for s in states] == snapshot_times(1.05, 0.07)
    assert_fields_follow(states[1:], scipy_march(p, SWITCH, initial, 0.01, 105, 7))


def test_the_march_zeroes_the_blocks_that_hold_no_kept_mode(monkeypatch):
    # On 64-column blocks the probe's band, |m| <= 72 of 512, lies in blocks
    # 0, 1, 14 and 15 of 16. Every mode of the other twelve enters each
    # snapshot's inverse transform as an exact zero, and the marched modes
    # still follow the step-by-step reference on every mode.
    monkeypatch.setattr(eitmem.oracle, "BLOCK_POINTS", 64)
    p = scaled_medium()
    initial = probe_state()
    kept = kept_modes(np.fft.fft([initial.e_field.values, initial.sigma_ba.values, initial.sigma_bc.values], axis=-1))
    marched = np.isin(np.arange(GRID.n_points) // 64, [0, 1, 14, 15])
    assert np.all(marched[kept]) and np.any(kept[:64]) and np.any(kept[64:128])
    transformed = []
    ifft = np.fft.ifft

    def recorded(a, *args, **kwargs):
        transformed.append(np.array(a))
        return ifft(a, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.fft, "ifft", recorded)
        states = integrate_reduced(p, GRID, initial, SWITCH, 1.05, OracleConfig(dt=0.01, snapshot_dt=0.07))
    assert len(transformed) == len(states) - 1 == 15
    for modes in transformed:
        assert np.all(modes[:, ~marched] == 0)
        assert np.all(np.any(modes[:, marched] != 0, axis=-1))
    assert_fields_follow(states[1:], scipy_march(p, SWITCH, initial, 0.01, 105, 7))


def all_mode_march(params, grid, initial, schedule, horizon, cfg) -> list[np.ndarray]:
    """The (3, n) fields at each snapshot of the march that multiplies and advects every mode on BLOCK_POINTS-wide blocks."""
    n_steps, per_snap = step_count(horizon, cfg), whole_steps(cfg.snapshot_dt, cfg.dt)
    k = grid.k_array()
    stack = np.fft.fft([initial.e_field.values, initial.sigma_ba.values, initial.sigma_bc.values], axis=-1)
    spare = np.empty_like(stack)
    stack[0] *= np.exp(-1j * k * params.c * (cfg.dt / 2.0))
    phase = np.exp(-1j * k * params.c * cfg.dt)
    fields = []
    for i, propagator in enumerate(eitmem.oracle._step_propagators(params, schedule, initial.t, cfg.dt, n_steps)):
        for c in range(0, grid.n_points, eitmem.oracle.BLOCK_POINTS):
            block = slice(c, c + eitmem.oracle.BLOCK_POINTS)
            np.matmul(propagator, stack[:, block], out=spare[:, block])
        stack, spare = spare, stack
        if (i + 1) % per_snap == 0:
            np.multiply(stack[0], np.exp(-1j * k * params.c * (cfg.dt / 2.0)), out=spare[0])
            spare[1:] = stack[1:]
            fields.append(np.fft.ifft(spare, axis=-1))
            spare = np.empty_like(stack)
        stack[0] *= phase
    return fields


def test_a_start_whose_band_fills_its_one_block_is_marched_as_every_mode_is():
    sc = scaled_pass_scenario()
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    assert sc.grid.n_points <= eitmem.oracle.BLOCK_POINTS
    cfg = OracleConfig(dt=5e-4, snapshot_dt=sc.snapshot_dt)
    states = integrate_reduced(sc.medium, sc.grid, initial, sc.schedule, sc.horizon, cfg)
    reference = all_mode_march(sc.medium, sc.grid, initial, sc.schedule, sc.horizon, cfg)
    for state, fields in zip(states[1:], reference, strict=True):
        for name, values in zip(ORACLE_FIELDS, fields):
            assert np.array_equal(getattr(state, name).values, values), (state.t, name)


@pytest.mark.parametrize(("make", "dt", "n_points", "columns"), [(short_default_scenario, 1.5e-8, 16384, 4096), (scaled_pass_scenario, 5e-4, 1024, 1024)])
def test_a_step_multiplies_the_columns_of_the_kept_blocks_alone(monkeypatch, make, dt, n_points, columns):
    # The default band lies in blocks 0 and 7 of 8; the scaled one fills its one block.
    sc = make()
    assert sc.grid.n_points == n_points
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    cfg = OracleConfig(dt=dt, snapshot_dt=sc.snapshot_dt)
    multiplied = []
    matmul = np.matmul

    def counted(a, b, *args, **kwargs):
        multiplied.append(np.shape(b)[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)
    integrate_reduced(sc.medium, sc.grid, initial, sc.schedule, sc.horizon, cfg)
    assert sum(multiplied) == columns * step_count(sc.horizon, cfg)


def test_the_march_takes_one_transform_in_and_one_out_per_snapshot(monkeypatch):
    calls = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def counted(a, *args, _name=name, _transform=transform, **kwargs):
            calls.append((_name, np.shape(a)))
            return _transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    sched = TanhSchedule(scale=0.3, floor=0.02, steepness=10.0, t1=0.3, t2=0.8)
    states = integrate_reduced(scaled_medium(), GRID, probe_state(), sched, 1.05, OracleConfig(dt=0.01, snapshot_dt=0.07))
    shape = (3, GRID.n_points)
    assert calls == [("fft", shape)] + [("ifft", shape)] * (len(states) - 1)


def _fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter that imports this package."""
    src = str(pathlib.Path(eitmem.oracle.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_runs_load_no_scipy_numpy_ma_or_numpy_polynomial(tmp_path):
    # scipy.interpolate costs about two thirds of a second to import,
    # scipy.linalg a third, numpy.ma about 11 ms and numpy.polynomial 4-10 ms;
    # none is needed to import the CLI, to run a check, or to make a default
    # or a tabulated run and write its artifacts.
    base = default_scenario()
    knots = np.linspace(0.0, 180e-6, 4001)
    thetas = base.schedule.eval(base.medium, knots).theta
    ini = tmp_path / "tabulated.ini"
    save_scenario(
        dataclasses.replace(
            base, schedule=TabulatedSchedule(times=tuple(knots), thetas=tuple(thetas))
        ),
        str(ini),
    )
    code = (
        "import sys, eitmem.cli; eitmem.cli.main(['validate']); "
        f"assert eitmem.cli.main(['run', '--out-dir', {str(tmp_path / 'default')!r}]) == 0; "
        f"assert eitmem.cli.main(['run', {str(ini)!r}, '--out-dir', {str(tmp_path / 'tabulated')!r}]) == 0; "
        "print(sorted(name for name in sys.modules if name in ('numpy.ma', 'numpy.polynomial', 'scipy') "
        "or name.startswith('scipy.')))"
    )
    assert _fresh_python(code).splitlines()[-1] == "[]"
    for run in ("default", "tabulated"):
        written = sorted(path.name for path in (tmp_path / run).iterdir())
        assert written == ["coefficients.csv", "snapshots.csv", "summary.json"]


def test_no_package_module_imports_a_name_it_never_uses():
    # An import that nothing reads still costs its load and hides what a
    # module depends on. A name counts as read where an expression (an
    # attribute's root among them) or a string annotation names it; a line
    # marked `# noqa: F401` keeps an unread import on purpose.
    unused = []
    for path in sorted(pathlib.Path(eitmem.oracle.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        annotations = [
            node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation
        ] + [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
        quoted = [
            ast.parse(node.value, mode="eval")
            for annotation in annotations
            for node in ast.walk(annotation)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        read = {node.id for root in [tree, *quoted] for node in ast.walk(root) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []


def test_package_source_names_no_scipy():
    # scipy is a test-only dependency: the tests use it as a reference
    for path in pathlib.Path(eitmem.oracle.__file__).parent.glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


def test_reference_integrator_stays_independent():
    # The whole point of this module is a second opinion: if it ever starts
    # importing the spectral engine or its coefficient formulas, the
    # cross-validation is circular.
    source = pathlib.Path(eitmem.oracle.__file__).read_text()
    for banned in ("from .solver", "from .coefficients", "import solver", "import coefficients"):
        assert banned not in source


@pytest.mark.parametrize("module", ["eitmem.oracle", "eitmem.scenario"])
def test_the_integrator_and_the_scenario_loader_load_no_engine_module(module):
    # The test above reads one file's text; an import through another module
    # or through the package shows only in what a fresh interpreter holds.
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'eitmem'))"
    loaded = set(_fresh_python(code).split())
    assert loaded == {"eitmem", "eitmem.control", "eitmem.errors", "eitmem.grids", "eitmem.model", module}


def test_oracle_csv_provenance_and_layout(tmp_path):
    states = integrate_reduced(
        scaled_medium(g=1e-15, n_atoms=1.0),
        GRID,
        probe_state(),
        constant_schedule(),
        0.5,
        OracleConfig(dt=0.125, snapshot_dt=0.25),
    )
    path = tmp_path / "oracle.csv"
    cfg = OracleConfig(dt=0.125, snapshot_dt=0.25)
    write_oracle_csv(states, path, cfg, stride=64)
    lines = path.read_text().splitlines()
    assert lines[0] == "# scheme=splitting_spectral_advection dt=0.125"
    assert lines[1] == (
        "t,z,re_e,im_e,abs_e,re_sigma_ba,im_sigma_ba,abs_sigma_ba,"
        "re_sigma_bc,im_sigma_bc,abs_sigma_bc"
    )
    assert len(lines) == 2 + len(states) * (GRID.n_points // 64)
    with pytest.raises(ConfigError, match="stride"):
        write_oracle_csv(states, path, cfg, stride=0)
    with pytest.raises(ConfigError, match="states"):
        write_oracle_csv([], path, cfg)


@pytest.mark.parametrize("make", [default_scenario, scaled_pass_scenario])
def test_the_start_carries_the_pulse_as_its_dark_field_on_the_kept_modes_alone(make):
    # cos theta E - sin theta sqrt(N) sigma_bc holds the pulse's modes above
    # KEPT_MODE_FLOOR of the largest and no other; the command line starts from the
    # integrator's own state, which reads nothing of the evolution law.
    assert oracle_initial_state is eitmem.oracle.initial_state
    sc = make()
    p = sc.medium
    initial = oracle_initial_state(p, sc.grid, sc.pulse, sc.schedule)
    theta = sc.schedule.eval(p, 0.0).theta
    dark = np.fft.fft(math.cos(theta) * initial.e_field.values - math.sin(theta) * math.sqrt(p.n_atoms) * initial.sigma_bc.values)
    modes = np.fft.fft(gaussian_field(sc.grid, sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width).values)
    peak = np.max(np.abs(modes))
    kept = np.abs(modes) > KEPT_MODE_FLOOR * peak
    assert np.max(np.abs(dark[kept] - modes[kept])) <= 1e-15 * peak
    assert np.max(np.abs(dark[~kept])) <= 1e-15 * peak
    assert initial.t == 0.0


@pytest.mark.parametrize(("make", "dt"), [(scaled_pass_scenario, 5e-4), (short_default_scenario, 1.5e-7)])
def test_the_march_keeps_the_start_band(make, dt):
    # Every mode the start leaves out stays at round-off of its row's largest
    # mode at every snapshot, on all three fields.
    sc = make()
    modes = np.abs(np.fft.fft(gaussian_field(sc.grid, sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width).values))
    outside = modes <= KEPT_MODE_FLOOR * np.max(modes)
    assert np.any(outside)
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    states = integrate_reduced(sc.medium, sc.grid, initial, sc.schedule, sc.horizon, OracleConfig(dt=dt, snapshot_dt=sc.snapshot_dt))
    for state in states:
        rows = np.abs(np.fft.fft([getattr(state, name).values for name in ORACLE_FIELDS], axis=-1))
        assert np.all(np.max(rows[:, outside], axis=-1) <= 1e-13 * np.max(rows, axis=-1)), state.t


def test_the_oracle_stamps_its_states_with_the_engine_instants(tmp_path):
    # 100 steps of 1.5e-7 s sum to 1.4999999999999999e-05, not the engine's
    # 1.5e-05: the oracle reads the engine's clock instead of counting steps.
    ini = tmp_path / "short.ini"
    save_scenario(short_default_scenario(), str(ini))
    assert main(["run", str(ini), "--oracle", "--oracle-dt", "1.5e-7", "--out-dir", str(tmp_path)]) == 0

    def stamps(name: str) -> list[str]:
        with open(tmp_path / name, newline="") as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            return list(dict.fromkeys(row["t"] for row in rows))

    engine = stamps("snapshots.csv")
    assert set(stamps("oracle_snapshots.csv")) <= set(engine)
    instants = [float(t) for t in engine]
    assert instants == [0.0, 1.5e-5]
    assert json.loads((tmp_path / "comparison.json").read_text())["times"] == instants
    assert json.loads((tmp_path / "summary.json").read_text())["oracle_comparison"]["times"] == instants


def test_comparison_error_paths():
    sc = scaled_pass_scenario()
    result = simulate(
        sc.medium, sc.grid, sc.pulse, sc.schedule, horizon=0.5, snapshot_dt=0.5
    )
    fields = probe_fields(result)
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    states = integrate_reduced(
        sc.medium, sc.grid, initial, sc.schedule, 0.5, OracleConfig(dt=1e-3, snapshot_dt=0.5)
    )
    with pytest.raises(InvalidComparisonError, match="empty"):
        compare_to_adiabatic([], fields, result.validity)
    shrunk = GridSpec(-2.0, 2.0, 512)
    alien = [
        OracleState(
            e_field=FieldGrid(shrunk, np.zeros(512, dtype=complex)),
            sigma_ba=FieldGrid(shrunk, np.zeros(512, dtype=complex)),
            sigma_bc=FieldGrid(shrunk, np.zeros(512, dtype=complex)),
            t=0.0,
        )
    ]
    with pytest.raises(InvalidComparisonError, match="grids"):
        compare_to_adiabatic(alien, fields, result.validity)
    offset = [
        OracleState(
            e_field=s.e_field, sigma_ba=s.sigma_ba, sigma_bc=s.sigma_bc, t=s.t + 0.123
        )
        for s in states
    ]
    with pytest.raises(InvalidComparisonError, match="one snapshot clock"):
        compare_to_adiabatic(offset, fields, result.validity)


def test_comparison_refuses_an_oracle_run_on_another_snapshot_clock():
    # An oracle run at twice the engine's snapshot interval shares 5 of the
    # engine's 9 instants; a comparison of those alone would pass unnoticed.
    sc = scaled_pass_scenario()
    result = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    states = integrate_reduced(
        sc.medium, sc.grid, initial, sc.schedule, sc.horizon,
        OracleConfig(dt=1e-2, snapshot_dt=2.0 * sc.snapshot_dt),
    )
    assert (len(states), len(result.snapshots)) == (5, 9)
    with pytest.raises(InvalidComparisonError, match="5 states .* 9 snapshots; both must be stamped from one snapshot clock"):
        compare_to_adiabatic(states, probe_fields(result), result.validity)


def test_comparison_agrees_when_checks_pass():
    sc = scaled_pass_scenario()
    result = simulate(
        sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt
    )
    initial = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
    states = integrate_reduced(
        sc.medium, sc.grid, initial, sc.schedule, sc.horizon,
        OracleConfig(dt=1e-3, snapshot_dt=sc.snapshot_dt),
    )
    report = compare_to_adiabatic(states, probe_fields(result), result.validity)
    assert report.max_linf < 0.01
    assert report.failed_checks == ()
    assert report.attribution.startswith("all adiabaticity checks passed")
    assert report.times == tuple(snapshot_times(sc.horizon, sc.snapshot_dt))
    d = dataclasses.asdict(report)
    assert d["observable"] == "e_field"
    assert d["ratios"]["high_density_ratio"] > 1e7
