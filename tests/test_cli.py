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

from eitmem import analysis, cli, oracle, solver
from eitmem.cli import SWEEP_COLUMNS, _decay_fit_warning, main
from eitmem.control import ControlSchedule
from eitmem.grids import field_header
from eitmem.errors import EitmemError
from eitmem.scenario import IGNORED_MEDIUM_KEYS, MEDIUM_KEYS, default_scenario, save_scenario, with_medium
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
    # a cadence that does not divide the horizon, or that passes the sample cap, is a config error
    assert main(["run", str(ini), "--out-dir", str(out), "--snapshot-dt", "7e-6"]) == 2
    assert main(["run", str(ini), "--out-dir", str(out), "--snapshot-dt", "1e-11"]) == 2


def test_run_missing_scenario_file(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.ini"), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "nope.ini" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "validate", "limits", "sweep"])
def test_non_utf8_scenario_file_exits_2_naming_the_file(tmp_path, capsys, verb):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"\xff\xfe[medium]\n")
    out = ["--out-dir", str(tmp_path / "out")]
    extra = {"validate": [], "sweep": ["--axis", "delta_p", "--values", "0", *out]}.get(verb, out)
    assert main([verb, str(ini), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot parse scenario file {ini}: 'utf-8' codec")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_scenario_file_with_a_byte_order_mark_loads(tmp_path, capsys):
    ini = tmp_path / "bom.ini"
    save_scenario(default_scenario(), ini)
    ini.write_bytes(b"\xef\xbb\xbf" + ini.read_bytes())
    assert main(["validate", str(ini)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text.replace("g = ", "g ", 1),  # a line with no separator
        lambda text: text + "[grid]\n",  # a duplicated section
    ],
    ids=["no_separator", "duplicate_section"],
)
def test_unparsable_scenario_file_exits_2_in_one_stderr_line(tmp_path, capsys, corrupt):
    ini = tmp_path / "bad.ini"
    save_scenario(default_scenario(), ini)
    ini.write_text(corrupt(ini.read_text(encoding="utf-8")), encoding="utf-8")
    assert main(["validate", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse scenario file {ini}: ")
    assert err.count("\n") == 1


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
    message = "validity error: blocking regime checks failed: low_intensity\n"
    assert capsys.readouterr().err == message
    # the same scenario runs when the gate is explicitly overridden
    rc = main(["run", str(ini), "--out-dir", str(tmp_path), "--csv-stride", "1024"])
    assert rc == 3
    assert capsys.readouterr().err == message
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


def _strict_json(path) -> dict:
    """The JSON document at path; NaN, Infinity and -Infinity are not JSON and raise."""

    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def field_names(record) -> set[str]:
    return {f.name for f in dataclasses.fields(record)}


def test_limits_writes_frozen_bounds(tmp_path, capsys):
    rc = main(["limits", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "delta_p_max" in capsys.readouterr().out
    payload = json.loads((tmp_path / "limits.json").read_text())
    assert payload["delta_p_max"] == pytest.approx(200.33348901419416, rel=1e-9)
    assert payload["delta_max"] == pytest.approx(2003334.8901419416, rel=1e-9)
    assert payload["pulse_length"] == 1e-3
    assert payload["storage_time"] == 53e-6
    # limits.json is the DesignLimits record, field for field, and the two inputs
    assert payload.keys() - {"pulse_length", "storage_time"} == field_names(analysis.DesignLimits)
    assert isinstance(payload["notes"], list)

    longer = tmp_path / "longer"
    rc = main(
        ["limits", "--pulse-length", "2e-3", "--storage-time", "53e-6", "--out-dir", str(longer)]
    )
    assert rc == 0
    doubled = json.loads((longer / "limits.json").read_text())
    assert doubled["delta_p_max"] == pytest.approx(2 * payload["delta_p_max"], rel=1e-12)

    # With no storage decay two bounds are unbounded, which JSON writes as null.
    ini = tmp_path / "lossless.ini"
    save_scenario(with_medium(default_scenario(), gamma_bc=0.0), ini)
    lossless = tmp_path / "lossless"
    assert main(["limits", str(ini), "--out-dir", str(lossless)]) == 0
    unbounded = _strict_json(lossless / "limits.json")
    assert [unbounded[name] for name in ("delta_max", "bw_limit", "t_transit_max")] == [None] * 3
    assert unbounded["delta_p_max"] == payload["delta_p_max"]


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
    """sweep.csv fields of one finished run and its decay-fit warning, read off `run`'s summary."""
    summary = analysis.assemble_summary(result, sc.output_time)
    out_snap = result.snapshots[analysis.output_index([s.t for s in result.snapshots], sc.output_time)]
    distortion = summary["distortion"]
    v_g_off = summary.get("v_g_off")
    decay = summary.get("decay_rate")
    row = {
        "status": "ok",
        "output_peak": repr(summary["output_peak"]["measured_peak"]),
        "aligned_l2": repr(distortion["aligned_l2"]),
        "verdict": distortion["verdict"],
        "phase_shift": repr(distortion["phase_shift"]),
        "high_k_fraction": repr(distortion["high_k_fraction"]),
        "imag_fraction": repr(float(np.max(np.abs(out_snap.psi.values.imag)) / out_snap.peak)),
        "v_g_off": "" if v_g_off is None else repr(v_g_off["measured"]),
        "decay_rate": "" if decay is None else repr(decay["measured"]),
    }
    return row, None if decay is None else _decay_fit_warning(decay["fit_residual_rms"])


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
                sc_v.medium, sc_v.grid, sc_v.pulse, sc_v.schedule, sc_v.horizon, sc_v.snapshot_dt
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


def _faint_scenario(amplitude=5.6e-12):
    """The default scenario with a faint pulse; at 5.6e-12 only its last snapshot, which no report reads, drops below the tracking floor."""
    sc = default_scenario()
    return dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, amplitude=amplitude))


def _fine_cadence_scenario():
    """Snapshots every 5 us: a detuned row passes the amplification bound a dozen or more intervals in."""
    return dataclasses.replace(default_scenario(), snapshot_dt=5e-6)


# Swept in blocks of 3: each list ends in a partial block, and failures fall
# at different points of one block: the regime check before the first
# interval, the amplification bound in the 2nd or 6th or, at a fine
# cadence, in the 12th to 18th, the edge check in the 8th, 11th or 12th,
# and a faint pulse below the tracking floor at a stored-window or output
# sample.
OK, VAL, GAIN, EDGE = "ok", "ValidityError", "AmplificationOverflowError", "DomainOverflowError"
UNTRACKED = "UntrackableFieldError"
FELL_BELOW = "UntrackableFieldError: field 'psi' fell below the tracking floor at t = {} s"
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
        [OK, OK, UNTRACKED, OK],
    ),
    "faint_window": (
        lambda: _faint_scenario(2.3e-12), "gamma_bc", (1e4, 0.0, 6e3, 5e3),
        [UNTRACKED, OK, UNTRACKED, OK],
    ),
    "overflow": (
        _fine_cadence_scenario, "delta_p", (0.0, 5500.0, 5000.0, 8000.0),
        [OK, GAIN, GAIN, GAIN],
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
        # At gamma_bc = 1e4 the snapshot after the output one falls under the
        # floor. No report reads it, so the stored-window fits are filled.
        faint = simulate(sc.medium, sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
        below = [s.t for s in faint.snapshots if s.peak < analysis.TRACK_AMPLITUDE_FLOOR]
        assert below and all(t > sc.output_time for t in below)
        assert all(row["v_g_off"] != "" and row["decay_rate"] != "" for row in rows[:2])
        # At 1.3e4 the output snapshot is below it: the row carries run's error.
        assert rows[2]["status"] == FELL_BELOW.format("1.650000e-04")
    if case == "faint_window":
        # At gamma_bc = 1e4 the stored window's last sample is below the
        # floor, at 6e3 the output one; each row names the sample run names.
        assert [rows[i]["status"] for i in (0, 2)] == [
            FELL_BELOW.format("9.000000e-05"),
            FELL_BELOW.format("1.650000e-04"),
        ]
    if case == "overflow":
        # The resonant row beside three that stop at the bound keeps its measured spectrum.
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
    # Each faint run's last snapshot falls under the tracking floor, and the
    # 1.3e4 one's output too; no unread snapshot is transformed for that.
    rows.clear()
    ini = tmp_path / "faint.ini"
    save_scenario(_faint_scenario(), ini)
    values = "2e3,4e3,6e3,8e3,1e4,1.1e4,1.2e4,1.3e4"
    assert main(["sweep", str(ini), "--axis", "gamma_bc", "--values", values, "--out-dir", str(tmp_path)]) == 0
    assert rows == [8, 8, 8, 8]
    swept = read_sweep(tmp_path / "sweep.csv")
    assert swept[4]["v_g_off"] != "" and swept[4]["decay_rate"] != ""
    assert swept[7]["status"].startswith("UntrackableFieldError")


def test_sweep_block_takes_one_quadrature_pass(tmp_path, monkeypatch):
    passes, evaluations = [], []
    accumulate, integrand = solver.accumulate_exponent, solver.exponent_integrand

    def counting_pass(media, *args, **kwargs):
        passes.append(len(media))
        return accumulate(media, *args, **kwargs)

    def counting_integrand(*args, **kwargs):
        evaluations.append(1)
        return integrand(*args, **kwargs)

    monkeypatch.setattr(solver, "accumulate_exponent", counting_pass)
    monkeypatch.setattr(solver, "exponent_integrand", counting_integrand)
    monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
    values = (0.0, 100.0, 200.0)
    argv = ["sweep", "--axis", "delta_p", "--values", ",".join(map(repr, values)), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert passes == [3]
    in_block = len(evaluations)
    passes.clear()
    evaluations.clear()
    sc = default_scenario()
    args = (sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    for value in values:
        BlockEvolution([with_medium(sc, delta_p=value).medium], *args)
    assert passes == [1, 1, 1]
    assert in_block == len(evaluations)


def test_a_default_run_takes_three_quadrature_passes(tmp_path, monkeypatch):
    # The run's exponent table, the summary's velocity and output-peak
    # windows, and the exact damping of the resonant output prediction.
    passes = []
    quadrature = solver.adaptive_simpson

    def counting(*args, **kwargs):
        passes.append(1)
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(solver, "adaptive_simpson", counting)
    monkeypatch.setattr(analysis, "adaptive_simpson", counting)
    assert main(["run", "--out-dir", str(tmp_path), "--csv-stride", "256"]) == 0
    assert len(passes) == 3


# A medium whose edge check max |m| / n cannot settle at a snapshot not
# read: (scenario, medium change). The row is transformed there, and at
# gamma_ba = 5e8 the exact edge check raises at 180 us; at 2e9 it passes
# at 105 us and raises at 120 us.
UNREAD_FALLBACKS = {
    "wraparound_raises": (default_scenario, {"gamma_ba": 5e8}),
    "wraparound_passes": (default_scenario, {"gamma_ba": 2e9}),
}


@pytest.mark.parametrize("case", sorted(UNREAD_FALLBACKS))
def test_unread_snapshots_fall_back_to_the_exact_checks(monkeypatch, case):
    make_scenario, change = UNREAD_FALLBACKS[case]
    sc = with_medium(make_scenario(), **change)
    args = (sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    rows = _count_transformed_rows(monkeypatch)
    block = BlockEvolution([sc.medium], *args)
    assert list(block.evolve(())) == []
    assert rows and set(rows) == {1}  # nothing is read, so each transform is one row's fallback
    monkeypatch.undo()
    with pytest.raises(EitmemError) as exc:
        simulate(sc.medium, *args)
    assert (type(block.failed[0]), str(block.failed[0])) == (type(exc.value), str(exc.value))


def _failures(block: BlockEvolution) -> dict:
    return {j: (type(exc), str(exc)) for j, exc in block.failed.items()}


@pytest.mark.parametrize("case", sorted(BLOCKED_SWEEPS) + sorted(UNREAD_FALLBACKS))
def test_reading_no_snapshot_fails_the_rows_that_reading_every_snapshot_fails(case):
    if case in BLOCKED_SWEEPS:
        make_scenario, axis, values, _ = BLOCKED_SWEEPS[case]
        changes = [{axis: value} for value in values]
    else:
        make_scenario, change = UNREAD_FALLBACKS[case]
        changes = [change]
    sc = make_scenario()
    media = [with_medium(sc, **change).medium for change in changes]
    args = (sc.grid, sc.pulse, sc.schedule, sc.horizon, sc.snapshot_dt)
    unread, read = BlockEvolution(media, *args), BlockEvolution(media, *args)
    assert list(unread.evolve(())) == []
    assert list(read.evolve(None))
    assert _failures(unread) == _failures(read)


def test_sweep_with_no_snapshot_in_the_stored_window_leaves_both_fits_blank(tmp_path):
    ini = tmp_path / "coarse.ini"
    save_scenario(dataclasses.replace(default_scenario(), snapshot_dt=180e-6), ini)
    assert main(["sweep", str(ini), "--axis", "delta_p", "--values", "0", "--out-dir", str(tmp_path)]) == 0
    (row,) = read_sweep(tmp_path / "sweep.csv")
    assert (row["status"], row["v_g_off"], row["decay_rate"]) == ("ok", "", "")


def test_a_predicted_peak_below_the_floor_leaves_the_run_and_its_sweep_row_alike(tmp_path):
    # At this amplitude the output snapshot's samples peak just above the
    # tracking floor, and those of its exp(-gamma_bc T0) prediction just
    # below; the floor applies to measured samples only.
    ini = tmp_path / "faint.ini"
    save_scenario(_faint_scenario(5.206980603164136e-12), ini)
    assert main(["run", str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    out = summary["output_peak"]
    assert out["predicted_peak_simple"] < out["measured_peak"] < 1.000001 * analysis.TRACK_AMPLITUDE_FLOOR
    assert main(["sweep", str(ini), "--axis", "gamma_bc", "--values", "1e4", "--out-dir", str(tmp_path)]) == 0
    (row,) = read_sweep(tmp_path / "sweep.csv")
    assert [float(row[name]) for name in ("output_peak", "v_g_off", "decay_rate")] == [
        out["measured_peak"],
        summary["v_g_off"]["measured"],
        summary["decay_rate"]["measured"],
    ]


def test_a_faint_snapshot_after_the_output_leaves_the_run_and_its_sweep_row_alike(tmp_path):
    # On a constant control the whole-run velocity is fitted from the first
    # to the output snapshot; at this amplitude the snapshots after the
    # output fall below the tracking floor, and no reported number reads them.
    sc = scaled_pass_scenario()
    faint = dataclasses.replace(sc, pulse=dataclasses.replace(sc.pulse, amplitude=1.03e-12), output_time=2.0)
    ini = tmp_path / "faint.ini"
    save_scenario(faint, ini)
    assert main(["run", str(ini), "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    result = simulate(faint.medium, faint.grid, faint.pulse, faint.schedule, faint.horizon, faint.snapshot_dt)
    track = analysis.track_pulse(result)
    assert np.isnan(track.peak_amp[-1])
    v, resid = analysis.fit_velocity(track, 0.0, 2.0)
    assert summary["v_g_overall"]["measured"] == v and summary["v_g_overall"]["fit_residual_rms"] == resid
    assert main(["sweep", str(ini), "--axis", "gamma_bc", "--values", "0.01", "--out-dir", str(tmp_path)]) == 0
    (row,) = read_sweep(tmp_path / "sweep.csv")
    assert row["status"] == "ok"
    assert float(row["output_peak"]) == summary["output_peak"]["measured_peak"]
    for name in ("aligned_l2", "phase_shift", "high_k_fraction"):
        assert float(row[name]) == summary["distortion"][name], name


def test_ignored_medium_keys_give_one_note_each_printed_and_written_once(tmp_path, capsys):
    ini = tmp_path / "old.ini"
    save_scenario(scaled_pass_scenario(), ini)
    old = "\n".join(f"{key} = 1.5" for key in IGNORED_MEDIUM_KEYS)
    ini.write_text(ini.read_text().replace("[medium]\n", f"[medium]\n{old}\n"))
    notes = [f"[medium] {key} = 1.5 accepted but unused: {why}" for key, why in IGNORED_MEDIUM_KEYS.items()]
    assert main(["validate", str(ini)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-len(notes) - 1 :] == [f"note: {note}" for note in notes] + ["verdict: ok to run"]
    assert main(["run", str(ini), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[: len(notes)] == [f"note: {note}" for note in notes]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["notes"] == notes
    assert "notes" not in summary["validity"]


def test_measurement_stays_in_analysis():
    # A sweep row is run's summary of that medium only while both measure
    # through analysis.measured; the command line fits nothing and tests no
    # floor of its own.
    source = pathlib.Path(cli.__file__).read_text()
    for banned in ("TRACK_AMPLITUDE_FLOOR", "interpolated_peak", "quadratic_peak", "fit_velocity", "fit_decay"):
        assert banned not in source


def _run_cli(argv, env_update=None, address_space=None) -> subprocess.CompletedProcess:
    """eitmem's command line in a fresh interpreter, with env_update added to the environment.

    address_space, in bytes, caps the interpreter's address space when given.
    """
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(env_update or {})
    code = "import sys; from eitmem.cli import main; sys.exit(main(sys.argv[1:]))"
    if address_space is not None:
        code = f"import resource; resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space})); {code}"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)


def test_a_quadrature_that_cannot_converge_ends_as_its_sweep_row(tmp_path):
    # At delta_p = 1e15 the integrand is round-off of order 1e5, so no panel
    # converges and the open panels double at every level, until the cap ends
    # the pass. The address-space limit turns a missing cap into a failure
    # here rather than into a host out of memory.
    argv = ["sweep", "--axis", "delta_p", "--values", "1e15", "--force", "--out-dir", str(tmp_path)]
    proc = _run_cli(argv, address_space=2**30)
    assert proc.returncode == 0, proc.stderr
    (row,) = read_sweep(tmp_path / "sweep.csv")
    assert row["status"].startswith("QuadratureError: quadrature did not converge on [0.0, 1.5e-05]: ")
    assert row["status"].endswith(f"panels to open against a cap of {solver.QUAD_MAX_PANELS}")


def test_run_whose_modes_overflow_exits_4_without_numpy_warnings(tmp_path):
    # The modes would pass the largest double late in the run; the bound
    # stops the run at the 17th of 36 snapshots, before any mode is built there.
    ini = tmp_path / "overflow.ini"
    save_scenario(with_medium(default_scenario(), delta_p=5500.0), ini)
    out_dir = tmp_path / "out"
    proc = _run_cli(["run", str(ini), "--snapshot-dt", "5e-6", "--out-dir", str(out_dir)])
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == (
        "runtime error: the modal log gain 359.84 accumulated from t = 0 to the snapshot at 8.500000e-05 s "
        "passes 339.52, the lesser of ln(sqrt(DBL_MAX) / n) = 345.19 less ln max|m0| = 5.67 and ln(DBL_MAX) "
        "= 709.78; the scenario is too far off resonance for a meaningful run\n"
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


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_a_coefficient_law_that_overflows_exits_4_in_one_line_naming_the_quantity(tmp_path, capsys, verb):
    # D_ba D_bc tan(theta) overflows at gamma_ba = 1e300; under
    # filterwarnings = error a numpy warning on the way would fail the test.
    ini = tmp_path / "absurd.ini"
    save_scenario(with_medium(default_scenario(), gamma_ba=1e300), ini)
    out = tmp_path / "out"
    argv = [verb, str(ini)] + (["--out-dir", str(out)] if verb == "run" else [])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "runtime error: bright ratio Phi/Psi overflowed for gamma_ba = 1e+300, gamma_bc = 1e+04, delta = 0, "
        "delta_p = 0 rad/s, past the range of the coefficient law\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("axis, value, quantity", [("gamma_bc", "1e200", "A0"), ("delta_p", "1e160", "bright ratio Phi/Psi")])
def test_a_sweep_row_whose_coefficient_law_overflows_names_the_quantity(tmp_path, capsys, axis, value, quantity):
    # Before the law checked its values, NaN panels split up to the
    # quadrature's panel cap and the row ended as a QuadratureError.
    assert main(["sweep", "--axis", axis, "--values", value, "--force", "--out-dir", str(tmp_path)]) == 0
    (row,) = read_sweep(tmp_path / "sweep.csv")
    assert row["status"].startswith(f"SingularParametersError: {quantity} overflowed for ")
    assert capsys.readouterr().err == ""


def test_sweep_takes_negative_values_after_an_equals_sign(tmp_path, capsys):
    # "--values -200,-100" would read as an option; "--values=" does not.
    assert main(["sweep", "--axis", "delta_p", "--values=-200,-100", "--out-dir", str(tmp_path)]) == 0
    rows = read_sweep(tmp_path / "sweep.csv")
    assert [(float(row["value"]), row["status"]) for row in rows] == [(-200.0, "ok"), (-100.0, "ok")]


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
    comparison = _strict_json(out / "comparison.json")
    assert comparison["max_linf"] < 0.01
    assert comparison["attribution"].startswith("all adiabaticity checks passed")
    first = (out / "oracle_snapshots.csv").read_text().splitlines()[0]
    assert first == "# scheme=splitting_spectral_advection dt=0.001"
    summary = _strict_json(out / "summary.json")
    assert summary["oracle_comparison"] == comparison
    # each record block holds exactly its record's fields, and each field
    # CSV's header is the one derived from the fields it holds
    assert comparison.keys() == field_names(oracle.ComparisonReport)
    assert summary["distortion"].keys() == field_names(analysis.DistortionReport)
    assert summary["low_intensity"].keys() == field_names(analysis.LowIntensityReport)
    oracle_header = (out / "oracle_snapshots.csv").read_text().splitlines(True)[1]
    assert oracle_header == field_header(oracle.ORACLE_FIELDS)
    snapshot_header = (out / "snapshots.csv").read_text().splitlines(True)[0]
    assert snapshot_header == field_header(solver.SNAPSHOT_FIELDS)
    coefficient_header = (out / "coefficients.csv").read_text().splitlines()[0]
    assert coefficient_header.split(",") == ["t", *solver.COEFFICIENT_COLUMNS]
    # a constant control never switches: its adiabatic time ratio is unbounded
    assert comparison["ratios"]["adiabatic_time_ratio"] is None


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
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must divide" in captured.err
    assert not out.exists() or not any(out.iterdir())


def test_run_rejects_an_oracle_dt_past_2_53_steps_before_the_spectral_run(tmp_path, capsys, monkeypatch):
    # 1e-20 s divides both the 15 us cadence and the 180 us horizon, in 1.8e16 steps.
    def spectral_run(*args, **kwargs):
        raise AssertionError("the spectral run started")

    monkeypatch.setattr(solver, "simulate", spectral_run)
    out = tmp_path / "out"
    rc = main(["run", "--out-dir", str(out), "--oracle", "--oracle-dt", "1e-20"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: dt 1e-20 takes 18000000000000000 steps to the horizon 0.00018, more than "
        "2^53 = 9007199254740992, past which step midpoints are no longer distinct\n"
    )
    assert not out.exists()


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


def _ini_bases(n_points: int = 16384):
    """One scenario per schedule kind, so every INI key exists somewhere, on n_points."""
    base = default_scenario()
    base = dataclasses.replace(base, grid=dataclasses.replace(base.grid, n_points=n_points))
    knots = np.linspace(0.0, 180e-6, 4001)
    thetas = base.schedule.eval(base.medium, knots).theta
    return {
        "tanh_profile": base,
        "constant": dataclasses.replace(base, schedule=ControlSchedule(kind="constant", omega=5.0e9)),
        "tabulated": dataclasses.replace(
            base, schedule=ControlSchedule(kind="tabulated", times=tuple(knots), thetas=tuple(thetas))
        ),
    }


NUMERIC_INI_KEYS = [("tanh_profile", "medium", key) for key, _, _ in MEDIUM_KEYS] + [
    ("tanh_profile", "grid", "z_min"),
    ("tanh_profile", "grid", "z_max"),
    ("tanh_profile", "grid", "n_points"),
    ("tanh_profile", "pulse", "amplitude_re"),
    ("tanh_profile", "pulse", "amplitude_im"),
    ("tanh_profile", "pulse", "center_z"),
    ("tanh_profile", "pulse", "width"),
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


def _default_ini_with(path, section: str, key: str, text: str) -> None:
    """Write the default scenario to path with [section] key set to text, which no constructor checks."""
    save_scenario(default_scenario(), path)
    cp = configparser.ConfigParser()
    cp.read(path)
    cp[section][key] = text
    with open(path, "w") as fh:
        cp.write(fh)


@pytest.mark.parametrize("verb", ["validate", "limits"])
@pytest.mark.parametrize("value", [1e-300, -1e-300, 1e-30, -1e-30, 1e30, -1e30, 1e300, -1e300])
@pytest.mark.parametrize("key", [key for key, _, _ in MEDIUM_KEYS])
def test_a_medium_value_at_any_scale_ends_in_an_exit_code_not_a_traceback(tmp_path, capsys, key, value, verb):
    # A value the constructor rejects is written to the file all the same,
    # so it too goes through the CLI. A bound limits prints as inf, at a
    # vanishing gamma_ba, gamma_bc or c, is unbounded, not a fault.
    ini = tmp_path / "extreme.ini"
    _default_ini_with(ini, "medium", key, repr(value))
    rc = main([verb, str(ini)])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert len(err.splitlines()) == (rc != 0)


# Values that once reached numpy and overflowed there: a pulse width the
# grid does not resolve, a largest cot(theta) whose square overflows, and
# an amplitude whose modes square past the largest double. Each is now
# refused when the scenario is built.
OVERFLOW_LEAKS = {
    ("z_min", -1e300),
    ("z_max", 1e300),
    ("width", 1e-300),
    ("scale", 1e300),
    ("floor", 1e300),
    ("thetas", 1e-300),
    ("amplitude_re", 1e300),
    ("amplitude_re", -1e300),
    ("amplitude_im", 1e300),
    ("amplitude_im", -1e300),
}


@pytest.mark.parametrize(
    "kind,section,key", [case for case in NUMERIC_INI_KEYS if case[1] != "medium"]
)
def test_a_value_at_any_scale_outside_medium_ends_in_an_exit_code_not_a_traceback(tmp_path, capsys, kind, section, key):
    # Small grids keep the runs quick. A tuple key gets the value at every
    # knot. Under the suite's filterwarnings = error, a numpy warning fails
    # the test rather than reaching stderr. A loud pulse fails low_intensity,
    # so amplitudes near and past the largest finite modes also run forced.
    base = tmp_path / "base.ini"
    save_scenario(_ini_bases(n_points=256)[kind], base)
    for value in (1e-300, -1e-300, 1e-30, -1e-30, 1e30, -1e30, 1e148, 1e300, -1e300, 0.0):
        cp = configparser.ConfigParser()
        cp.read(base)
        entries = len(cp[section][key].split(","))
        cp[section][key] = ", ".join([repr(value)] * entries)
        ini = tmp_path / "extreme.ini"
        with open(ini, "w") as fh:
            cp.write(fh)
        out = ["--out-dir", str(tmp_path / "out")]
        runs = [["validate", str(ini)], ["run", str(ini)] + out]
        if key.startswith("amplitude") and value in (1e148, 1e300):
            runs.append(["run", str(ini), "--force"] + out)
        for argv in runs:
            rc = main(argv)
            err = capsys.readouterr().err
            case = (argv, key, value)
            assert rc in (0, 2, 3, 4), case
            assert len(err.splitlines()) == (rc != 0), case
            if (key, value) in OVERFLOW_LEAKS:
                assert rc == 2 and key.removesuffix("_re").removesuffix("_im") in err, case


@pytest.mark.parametrize("amplitude", [1e148, 1e300])
@pytest.mark.parametrize("argv", [["validate"], ["run"], ["run", "--force"]])
def test_a_pulse_whose_modes_square_past_the_largest_double_exits_2_naming_the_amplitude(tmp_path, capsys, argv, amplitude):
    # On the default grid the largest input mode reaches sqrt(DBL_MAX) / n at
    # an amplitude of about 5.6e146.
    ini = tmp_path / "loud.ini"
    _default_ini_with(ini, "pulse", "amplitude_re", repr(amplitude))
    out = tmp_path / "out"
    assert main([argv[0], str(ini)] + argv[1:] + (["--out-dir", str(out)] if argv[0] == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: pulse amplitude {complex(amplitude)} gives modes up to ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_a_pulse_just_inside_the_mode_limit_runs_forced(tmp_path, capsys):
    ini = tmp_path / "loud.ini"
    _default_ini_with(ini, "pulse", "amplitude_re", "5e146")
    assert main(["run", str(ini), "--force", "--out-dir", str(tmp_path), "--csv-stride", "1024"]) == 0
    assert capsys.readouterr().err == ""


_TABULATED = ControlSchedule(kind="tabulated", times=(0.0, 90e-6, 180e-6), thetas=(1.2, 1.3, 1.4))


@pytest.mark.parametrize(
    "schedule,section,edits,message",
    [
        (None, "grid", {"n_points": "32"}, "n_points must be at least 64, got 32"),
        (None, "grid", {"n_points": "1000"}, "n_points must be a power of two, got 1000"),
        (_TABULATED, "schedule", {"thetas": "1.2, 1.3"}, "times and thetas must have equal length"),
        (_TABULATED, "schedule", {"times": "0.0"}, "times and thetas must have equal length"),
        (_TABULATED, "schedule", {"times": "0.0", "thetas": "1.2"}, "tabulated schedule needs at least 2 samples"),
        (_TABULATED, "schedule", {"times": "0.0, 9e-05, 1e-4x"}, "[schedule] times: entry '1e-4x' cannot be parsed as a number"),
    ],
)
def test_a_malformed_grid_or_table_exits_2_in_one_stderr_line(tmp_path, capsys, schedule, section, edits, message):
    ini = tmp_path / "bad.ini"
    save_scenario(default_scenario() if schedule is None else dataclasses.replace(default_scenario(), schedule=schedule), ini)
    cp = configparser.ConfigParser()
    cp.read(ini)
    cp[section].update(edits)
    with open(ini, "w") as fh:
        cp.write(fh)
    assert main(["validate", str(ini)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_sweep_past_the_value_limit_exits_2_before_writing(tmp_path, capsys):
    values = ",".join(["0"] * (cli.MAX_SWEEP_VALUES + 1))
    assert main(["sweep", "--axis", "delta_p", "--values", values, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: sweep asks for {cli.MAX_SWEEP_VALUES + 1} runs, limit is {cli.MAX_SWEEP_VALUES}\n"
    )
    assert not (tmp_path / "out").exists()


def test_an_out_dir_that_is_a_file_exits_4_with_an_io_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["limits", "--out-dir", str(taken)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and str(taken) in err
    assert len(err.splitlines()) == 1


def test_validate_prints_a_plain_pass_between_the_pass_and_strong_pass_factors(tmp_path, capsys):
    # amplitude 2 puts the probe/control ratio at 0.0199, inside (0.01, 0.1]
    ini = tmp_path / "brighter.ini"
    _default_ini_with(ini, "pulse", "amplitude_re", "2.0")
    assert main(["validate", str(ini)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert ["low_intensity", "0.0199", "pass"] in [line.split() for line in captured.out.splitlines()]


def test_run_prints_a_poor_decay_fit_in_one_stderr_line(tmp_path, capsys):
    ini = tmp_path / "detuned.ini"
    save_scenario(with_medium(default_scenario(), delta_p=800.0), ini)
    assert main(["run", str(ini), "--out-dir", str(tmp_path), "--csv-stride", "1024"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("warning: decay fit residual rms ")
    assert _strict_json(tmp_path / "summary.json")["decay_rate"]["fit_residual_rms"] > analysis.DECAY_FIT_RMS_LIMIT


def test_run_leaves_out_a_decay_fit_with_too_few_stored_samples(tmp_path, capsys):
    # Snapshots every 22.5 us put two samples, 67.5 and 90 us, in the stored
    # window [60, 95] us: enough for v_g_off, too few for a decay fit.
    argv = ["run", "--snapshot-dt", "22.5e-6", "--out-dir", str(tmp_path), "--csv-stride", "1024"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "stored decay rate" not in captured.out
    summary = _strict_json(tmp_path / "summary.json")
    assert summary["decay_rate"] is None and summary["v_g_off"] is not None


@pytest.mark.parametrize("verb", ["validate", "limits", "run"])
@pytest.mark.parametrize("key,value", [("g", 1e-300), ("g", 1e300), ("n_atoms", 1e300)])
def test_a_g2n_that_underflows_or_overflows_exits_2_naming_g_and_n_atoms(tmp_path, capsys, key, value, verb):
    ini = tmp_path / "extreme.ini"
    _default_ini_with(ini, "medium", key, repr(value))
    out = tmp_path / "out"
    assert main([verb, str(ini)] + (["--out-dir", str(out)] if verb != "validate" else [])) == 2
    medium = default_scenario().medium
    g, n_atoms = (value, medium.n_atoms) if key == "g" else (medium.g, value)
    captured = capsys.readouterr()
    assert captured.err == (
        f"config error: g^2 N must neither underflow to 0 nor overflow, got g = {g} and n_atoms = {n_atoms}\n"
    )
    assert captured.out == ""
    assert not out.exists()
