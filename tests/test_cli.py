from __future__ import annotations

import configparser
import csv
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from eitmem import analysis, cli, solver
from eitmem.cli import SWEEP_COLUMNS, _decay_fit_warning, main
from eitmem.control import ControlSchedule
from eitmem.errors import ConfigError, EitmemError, UntrackableFieldError
from eitmem.scenario import default_scenario, save_scenario, with_medium
from eitmem.solver import BlockEvolution, simulate

from conftest import scaled_pass_scenario


def read_sweep(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_default_writes_artifacts(tmp_path, capsys):
    rc = main(["run", "--out-dir", str(tmp_path), "--csv-stride", "256"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "output peak" in out
    assert "distortion: clean" in out
    assert "wrote" in out
    for name in ("snapshots.csv", "coefficients.csv", "summary.json"):
        assert (tmp_path / name).exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["label"] == "storage_default"
    peak = summary["output_peak"]
    assert peak["measured_peak"] == pytest.approx(peak["predicted_peak"], rel=1e-5)
    assert summary["distortion"]["verdict"] == "clean"
    assert summary["validity"]["checks"]["high_density"] is True


def test_run_twice_writes_identical_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["run", "--out-dir", str(a), "--csv-stride", "64"]) == 0
    assert main(["run", "--out-dir", str(b), "--csv-stride", "64"]) == 0
    for name in ("snapshots.csv", "coefficients.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_reads_scenario_file_and_cadence_override(tmp_path):
    ini = tmp_path / "run.ini"
    save_scenario(default_scenario(), ini)
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            str(ini),
            "--out-dir",
            str(out),
            "--snapshot-dt",
            "3.6e-5",
            "--csv-stride",
            "1024",
        ]
    )
    assert rc == 0
    with open(out / "snapshots.csv", newline="") as fh:
        times = {row["t"] for row in csv.DictReader(fh)}
    assert len(times) == 6  # 0 .. 180 us in 36 us strides
    # cadence that does not divide the horizon is a config error
    assert main(["run", str(ini), "--out-dir", str(out), "--snapshot-dt", "7e-6"]) == 2


def test_run_missing_scenario_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "nope.ini" in capsys.readouterr().err


def test_validate_default_passes(capsys):
    rc = main(["validate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict: ok to run" in out
    assert "high_density" in out


def test_validate_blocks_strong_probe(tmp_path, capsys):
    import dataclasses

    sc = default_scenario()
    hot = dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, amplitude=1e3))
    ini = tmp_path / "hot.ini"
    save_scenario(hot, ini)
    assert main(["validate", str(ini)]) == 3
    assert "low_intensity" in capsys.readouterr().err
    # the same scenario runs when the gate is explicitly overridden
    rc = main(["run", str(ini), "--out-dir", str(tmp_path), "--csv-stride", "1024"])
    assert rc == 3
    assert main(["run", str(ini), "--out-dir", str(tmp_path), "--csv-stride", "1024", "--force"]) == 0


def test_run_reports_runtime_failures(tmp_path, capsys):
    # tenfold faster off-window drift pushes the pulse off the grid mid-run
    sc = with_medium(default_scenario(), gamma_ba=1e9)
    ini = tmp_path / "drift.ini"
    save_scenario(sc, ini)
    rc = main(["run", str(ini), "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_grid_above_the_point_ceiling_exits_2_naming_n_points(tmp_path, capsys, verb):
    ini = tmp_path / "huge.ini"
    save_scenario(default_scenario(), ini)
    cp = configparser.ConfigParser()
    cp.read(ini)
    cp["grid"]["n_points"] = str(2**100)
    with open(ini, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    argv = [verb, str(ini)] + (["--out-dir", str(out)] if verb == "run" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: n_points must be at most 4194304, got {2**100}\n"
    assert not out.exists()


def test_limits_writes_frozen_bounds(tmp_path, capsys):
    rc = main(["limits", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "delta_p_max" in capsys.readouterr().out
    payload = json.loads((tmp_path / "limits.json").read_text())
    assert payload["delta_p_max"] == pytest.approx(200.33348901419416, rel=1e-9)
    assert payload["delta_max"] == pytest.approx(2003334.8901419416, rel=1e-9)
    assert payload["pulse_length"] == 1e-3
    assert payload["storage_time"] == 53e-6

    longer = tmp_path / "longer"
    rc = main(
        ["limits", "--pulse-length", "2e-3", "--storage-time", "53e-6", "--out-dir", str(longer)]
    )
    assert rc == 0
    doubled = json.loads((longer / "limits.json").read_text())
    assert doubled["delta_p_max"] == pytest.approx(2 * payload["delta_p_max"], rel=1e-12)


def test_sweep_detunings_orders_rows_by_input(tmp_path):
    rc = main(
        ["sweep", "--axis", "delta_p", "--values", "0,5e2", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep.csv")
    assert [float(r["value"]) for r in rows] == [0.0, 500.0]
    clean, destroyed = rows
    assert clean["status"] == "ok" and destroyed["status"] == "ok"
    assert clean["verdict"] == "clean"
    assert float(clean["imag_fraction"]) < 0.01
    assert destroyed["verdict"] == "distorted"
    assert float(destroyed["imag_fraction"]) > 0.5
    assert float(destroyed["high_k_fraction"]) > 0.5
    assert float(destroyed["aligned_l2"]) > float(clean["aligned_l2"])


def test_sweep_captures_per_row_failures(tmp_path):
    rc = main(
        ["sweep", "--axis", "gamma_ba", "--values", "1e8,1e9", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    rows = read_sweep(tmp_path / "sweep.csv")
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("DomainOverflowError")
    assert rows[1]["verdict"] == ""


def test_sweep_reports_a_poor_decay_fit_in_one_stderr_line(tmp_path, capsys):
    rc = main(["sweep", "--axis", "delta_p", "--values", "0,800", "--out-dir", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: delta_p = 800: decay fit residual rms ")
    rows = read_sweep(tmp_path / "sweep.csv")
    assert rows[1]["decay_rate"] != ""


def _reference_row(sc, result) -> tuple[dict, str | None]:
    """sweep.csv fields of one finished run, tracking every snapshot, and its decay-fit warning."""
    out_snap = result.snapshot_at(sc.output_time)
    _, peak = analysis.interpolated_peak(out_snap.psi)
    report = analysis.measure_distortion(result.snapshots[0].psi, [out_snap.psi])[0]
    out_vals = out_snap.psi.values
    imag_fraction = float(
        np.max(np.abs(out_vals.imag)) / max(float(np.max(np.abs(out_vals))), 1e-300)
    )
    row = {
        "status": "ok",
        "output_peak": repr(peak),
        "aligned_l2": repr(report.aligned_l2),
        "verdict": report.verdict,
        "phase_shift": repr(report.phase_shift),
        "high_k_fraction": repr(report.high_k_fraction),
        "imag_fraction": repr(imag_fraction),
        "v_g_off": "",
        "decay_rate": "",
    }
    warning = None
    window = analysis.stored_window(sc.schedule)
    if window is not None:
        try:
            track = analysis.track_pulse(result)
            row["v_g_off"] = repr(analysis.fit_velocity(track, *window)[0])
            rate, rms = analysis.fit_decay(track, *window)
            row["decay_rate"] = repr(rate)
            warning = _decay_fit_warning(rms)
        except (ConfigError, UntrackableFieldError):
            pass
    return row, warning


def _reference_sweep(sc, axis: str, values) -> tuple[list[dict], list[str], list[str]]:
    """Rows, stdout lines and stderr lines of a sweep run as one simulate call per value."""
    rows, out, err = [], [], []
    for value in values:
        sc_v = with_medium(sc, **{axis: value})
        row = {name: "" for name in SWEEP_COLUMNS}
        row["value"] = repr(value)
        warning = None
        try:
            result = simulate(
                sc_v.medium, sc_v.grid, sc_v.pulse, sc_v.schedule, sc_v.horizon, sc_v.snapshot_dt,
                extra_notes=sc_v.notes,
            )
            fields, warning = _reference_row(sc_v, result)
            row.update(fields)
        except EitmemError as exc:
            row["status"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
        shown = f", peak {float(row['output_peak']):.6g}, {row['verdict']}" if row["status"] == "ok" else ""
        out.append(f"{axis} = {value:.6g}: {row['status']}{shown}")
        if warning is not None:
            err.append(f"warning: {axis} = {value:.6g}: {warning}")
    return rows, out, err


def _faint_scenario():
    """A pulse so faint that the default run's last snapshot, after the output one, drops below the tracking floor."""
    sc = default_scenario()
    return dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, amplitude=5.6e-12))


def _fine_cadence_scenario():
    """Snapshots every 5 us: a detuning can pass the per-interval gain guard and still overflow."""
    return dataclasses.replace(default_scenario(), snapshot_dt=5e-6)


# Swept in blocks of 3: each list ends in a partial block, and failures fall
# at different points of one block: the regime check before the first
# interval, the gain guard in the first, the edge check in the 8th, 11th or
# 12th, and an overflow to non-finite samples late in a fine-cadence run.
OK, VAL, GAIN, EDGE = "ok", "ValidityError", "AmplificationOverflowError", "DomainOverflowError"
BLOCKED_SWEEPS = {
    "detunings": (
        default_scenario, "delta_p", (0.0, 1e6, 5e3, 500.0, 2e4, 2000.0, 800.0),
        [OK, VAL, GAIN, OK, GAIN, OK, OK],
    ),
    "optical_decay": (
        default_scenario, "gamma_ba", (1e8, 1e9, 2e9, 5e8, 1e10, 3e8, 1.5e8),
        [OK, EDGE, EDGE, EDGE, VAL, OK, OK],
    ),
    "faint_pulse": (
        _faint_scenario, "gamma_bc", (1e4, 5e3, 1.3e4, 0.0),
        [OK, OK, "UntrackableFieldError", OK],
    ),
    "overflow": (
        _fine_cadence_scenario, "delta_p", (0.0, 5500.0, 5000.0, 8000.0),
        [OK, "SimulationError", OK, "SimulationError"],
    ),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_SWEEPS))
def test_blocked_sweep_matches_one_run_per_value(tmp_path, capsys, monkeypatch, case):
    make_scenario, axis, values, statuses = BLOCKED_SWEEPS[case]
    sc = make_scenario()
    ini = tmp_path / "sweep.ini"
    save_scenario(sc, ini)
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
    argv = ["sweep", str(ini), "--axis", axis, "--values", ",".join(map(repr, values))]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    rows, out, err = _reference_sweep(sc, axis, values)
    assert read_sweep(tmp_path / "sweep.csv") == rows
    assert captured.out.splitlines() == out + [f"wrote {tmp_path / 'sweep.csv'}"]
    assert captured.err.splitlines() == err
    assert [row["status"].split(":")[0] for row in rows] == statuses
    if case == "detunings":
        assert [rows[i]["verdict"] for i in (0, 3, 5)] == ["clean", "distorted", "distorted"]
    if case == "faint_pulse":
        # At gamma_bc = 1e4 the stored window tracks, but the snapshot after the
        # output one falls under the floor, and that blanks both fits.
        faint = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
        _, t1 = analysis.stored_window(sc.schedule)
        below = [s.t for s in faint.snapshots if s.peak < analysis.TRACK_AMPLITUDE_FLOOR]
        assert below and all(t > t1 for t in below)
        assert (rows[0]["v_g_off"], rows[0]["decay_rate"]) == ("", "")
        assert rows[1]["v_g_off"] != "" and rows[1]["decay_rate"] != ""
    if case == "overflow":
        # At delta_p = 5000 nearly all of the amplified output's power is out of band.
        fractions = [float(row["high_k_fraction"]) for row in rows if row["status"] == "ok"]
        assert fractions and all(0.0 <= f <= 1.0 for f in fractions)


def _count_transformed_rows(monkeypatch) -> list[int]:
    """Rows of modes handed to each solver.inverse_transform call from now on."""
    rows = []
    transform = solver.inverse_transform

    def counting(modes):
        rows.append(modes.shape[0])
        return transform(modes)

    monkeypatch.setattr(solver, "inverse_transform", counting)
    return rows


def test_sweep_transforms_only_the_snapshots_a_row_reads(tmp_path, monkeypatch):
    rows = _count_transformed_rows(monkeypatch)
    assert main(["sweep", "--axis", "delta_p", "--values", "0,100,200", "--out-dir", str(tmp_path)]) == 0
    # the three stored-window snapshots, at 60, 75 and 90 us, then the output one
    assert rows == [3, 3, 3, 3]
    rows.clear()
    sc = default_scenario()
    simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    assert rows == [1] * 12


# A medium whose bounds cannot settle a check at a snapshot not read, named
# by the check the row is transformed for: (scenario, medium change, floor).
# At gamma_ba = 5e8 the exact edge check then raises at 180 us; at 2e9 it
# passes at 105 us, and the bounds alone raise at 120 us.
UNREAD_FALLBACKS = {
    "finite": (_fine_cadence_scenario, {"delta_p": 5500.0}, 0.0),
    "wraparound_raises": (default_scenario, {"gamma_ba": 5e8}, 0.0),
    "wraparound_passes": (default_scenario, {"gamma_ba": 2e9}, 0.0),
    "floor_below": (_faint_scenario, {"gamma_bc": 1e4}, analysis.TRACK_AMPLITUDE_FLOOR),
    "floor_above": (_faint_scenario, {"gamma_bc": 5e3}, analysis.TRACK_AMPLITUDE_FLOOR),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FALLBACKS))
def test_unread_snapshots_fall_back_to_the_exact_checks(monkeypatch, case):
    make_scenario, change, floor = UNREAD_FALLBACKS[case]
    sc = with_medium(make_scenario(), **change)
    args = (sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    unsettled = []  # times at which the wraparound bounds could not tell
    check = solver._check_wraparound

    def recording(modes, low, high, probe, t):
        settled = check(modes, low, high, probe, t)
        if low != high and not settled:
            unsettled.append(t)
        return settled

    monkeypatch.setattr(solver, "_check_wraparound", recording)
    rows = _count_transformed_rows(monkeypatch)
    block = BlockEvolution([sc.medium], *args)
    assert list(block.evolve((), floor)) == []
    assert rows and set(rows) == {1}
    assert bool(unsettled) == case.startswith("wraparound")
    if case.startswith("floor"):
        rows.clear()
        list(BlockEvolution([sc.medium], *args).evolve((), 0.0))
        assert rows == []
    monkeypatch.undo()
    try:
        result = simulate(sc.medium, *args)
    except EitmemError as exc:
        assert (type(block.failed[0]), str(block.failed[0])) == (type(exc), str(exc))
    else:
        assert not block.failed
        assert block.faint == {0 for s in result.snapshots if s.peak < floor}
    assert bool(block.failed) == (not case.startswith("floor"))
    assert bool(block.faint) == (case == "floor_below")


def _run_cli(argv, env_update=None) -> subprocess.CompletedProcess:
    """eitmem's command line in a fresh interpreter, with env_update added to the environment."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(env_update or {})
    return subprocess.run(
        [sys.executable, "-m", "eitmem.cli", *argv], env=env, capture_output=True, text=True
    )


def test_run_whose_modes_overflow_exits_4_without_numpy_warnings(tmp_path):
    # Every interval passes the gain guard; the modes pass the largest double
    # in the last of 36 intervals.
    ini = tmp_path / "overflow.ini"
    save_scenario(with_medium(default_scenario(), delta_p=5500.0), ini)
    out_dir = tmp_path / "out"
    proc = _run_cli(["run", str(ini), "--snapshot-dt", "5e-6", "--out-dir", str(out_dir)])
    assert proc.returncode == 4
    assert proc.stderr == (
        "runtime error: field overflowed to non-finite samples in the interval "
        "[1.750000e-04, 1.800000e-04] s\n"
    )
    assert not out_dir.exists()


def test_sweep_csv_does_not_depend_on_blas_threads(tmp_path):
    # At 844.42 rad/s the row is distorted: its phase shift is amplified
    # round-off, so any reduction that sums in a thread-dependent order shows.
    written = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        argv = ["sweep", "--axis", "delta_p", "--values", "0,844.42", "--out-dir", str(out_dir)]
        proc = _run_cli(argv, {"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        written.append((out_dir / "sweep.csv").read_bytes())
    assert [row["verdict"] for row in read_sweep(tmp_path / "1" / "sweep.csv")] == ["clean", "distorted"]
    assert written[0] == written[1]


def test_sweep_memory_stays_bounded(tmp_path, capsys):
    # 16 default-grid values peak at about 7.7 MB in blocks of 8, and at
    # about 14 MB as one block of 16; the benchmark allows RSS 10% growth.
    values = ",".join(repr(62.5 * i) for i in range(16))
    tracemalloc.start()
    try:
        rc = main(["sweep", "--axis", "delta_p", "--values", values, "--out-dir", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(read_sweep(tmp_path / "sweep.csv")) == 16
    assert peak < 10e6


def test_sweep_rejects_unparsable_values(tmp_path, capsys):
    rc = main(
        ["sweep", "--axis", "delta_p", "--values", "0,banana", "--out-dir", str(tmp_path)]
    )
    assert rc == 2
    assert "banana" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rejects_a_bad_value_before_running_or_writing(tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--axis", "gamma_bc", "--values", "1e4,-1", "--out-dir", str(out_dir)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "gamma_bc must be nonnegative" in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", [",", " "])
def test_sweep_with_no_values_exits_2_before_writing(tmp_path, capsys, values):
    out_dir = tmp_path / "out"
    rc = main(["sweep", "--axis", "delta_p", "--values", values, "--out-dir", str(out_dir)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: sweep values {values!r} hold no number\n"
    assert not out_dir.exists()


def test_run_with_reference_comparison(tmp_path, capsys):
    ini = tmp_path / "scaled.ini"
    save_scenario(scaled_pass_scenario(), ini)
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            str(ini),
            "--out-dir",
            str(out),
            "--oracle",
            "--oracle-dt",
            "1e-3",
            "--csv-stride",
            "128",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "oracle:" in captured.out
    assert "step" not in captured.out
    # one progress line per snapshot interval: 8 intervals of 500 steps
    assert captured.err.splitlines() == [
        f"oracle: step {500 * j}/4000, t = {0.5 * j:.6e} s" for j in range(1, 9)
    ]
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["max_linf"] < 0.01
    assert comparison["attribution"].startswith("all adiabaticity checks passed")
    first = (out / "oracle_snapshots.csv").read_text().splitlines()[0]
    assert first == "# scheme=splitting_spectral_advection dt=0.001"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle_comparison"]["max_linf"] == comparison["max_linf"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_run_rejects_non_finite_oracle_dt(tmp_path, capsys, bad):
    out = tmp_path / "out"
    rc = main(["run", "--out-dir", str(out), "--oracle", "--oracle-dt", bad])
    assert rc == 2
    assert f"dt must be positive and finite, got {bad}" in capsys.readouterr().err
    # rejected before the spectral run writes anything
    assert not out.exists()


def test_run_rejects_oracle_dt_that_does_not_divide_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--out-dir", str(out), "--oracle", "--oracle-dt", "7e-9"])
    assert rc == 2
    assert "must divide" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_run_rejects_a_bad_csv_stride_before_any_work(tmp_path, capsys, stride):
    out = tmp_path / "out"
    rc = main(["run", "--out-dir", str(out), "--oracle", "--csv-stride", stride])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"config error: stride must be at least 1, got {stride}\n"
    assert not out.exists()
    # checked before the scenario file is even read
    assert main(["run", str(tmp_path / "nope.ini"), "--csv-stride", stride]) == 2
    assert "stride must be at least 1" in capsys.readouterr().err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def _ini_bases():
    """One scenario per schedule kind, so every INI key exists somewhere."""
    base = default_scenario()
    knots = np.linspace(0.0, 180e-6, 4001)
    thetas = base.schedule.eval(base.medium, knots).theta
    pulse = dataclasses.replace(base.pulse, l_p=2e-3)
    return {
        "tanh_profile": dataclasses.replace(base, pulse=pulse),
        "constant": dataclasses.replace(base, schedule=ControlSchedule(kind="constant", omega=5.0e9)),
        "tabulated": dataclasses.replace(
            base, schedule=ControlSchedule(kind="tabulated", times=tuple(knots), thetas=tuple(thetas))
        ),
    }


NUMERIC_INI_KEYS = [
    ("tanh_profile", "medium", key)
    for key in (
        "g", "n_atoms", "length", "cell_diameter", "nu_p",
        "gamma_ba", "gamma_bc", "delta", "delta_p", "c",
    )
] + [
    ("tanh_profile", "grid", "z_min"),
    ("tanh_profile", "grid", "z_max"),
    ("tanh_profile", "grid", "n_points"),
    ("tanh_profile", "pulse", "amplitude_re"),
    ("tanh_profile", "pulse", "amplitude_im"),
    ("tanh_profile", "pulse", "center_z"),
    ("tanh_profile", "pulse", "width"),
    ("tanh_profile", "pulse", "l_p"),
    ("tanh_profile", "schedule", "scale"),
    ("tanh_profile", "schedule", "floor"),
    ("tanh_profile", "schedule", "steepness"),
    ("tanh_profile", "schedule", "t1"),
    ("tanh_profile", "schedule", "t2"),
    ("constant", "schedule", "omega"),
    ("tabulated", "schedule", "times"),
    ("tabulated", "schedule", "thetas"),
    ("tanh_profile", "run", "horizon"),
    ("tanh_profile", "run", "snapshot_dt"),
    ("tanh_profile", "run", "output_time"),
]


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("kind,section,key", NUMERIC_INI_KEYS)
def test_non_finite_ini_value_exits_2_naming_the_key(tmp_path, capsys, kind, section, key, bad):
    ini = tmp_path / "bad.ini"
    save_scenario(_ini_bases()[kind], ini)
    cp = configparser.ConfigParser()
    cp.read(ini)
    if key in ("times", "thetas"):
        entries = cp[section][key].split(", ")
        entries[len(entries) // 2] = bad
        cp[section][key] = ", ".join(entries)
    else:
        cp[section][key] = bad
    with open(ini, "w") as fh:
        cp.write(fh)
    assert main(["validate", str(ini)]) == 2
    assert f"[{section}] {key} " in capsys.readouterr().err
