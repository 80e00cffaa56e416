from __future__ import annotations

import configparser
import csv
import dataclasses
import json

import numpy as np
import pytest

from eitmem.cli import SWEEP_COLUMNS, main
from eitmem.control import ControlSchedule
from eitmem.scenario import default_scenario, save_scenario, with_medium

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


def test_sweep_with_no_values_writes_header_only(tmp_path):
    rc = main(["sweep", "--axis", "delta_p", "--values", ",", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == [",".join(SWEEP_COLUMNS)]


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
