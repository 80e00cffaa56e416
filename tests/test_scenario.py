from __future__ import annotations

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

from eitmem.control import ControlSchedule
from eitmem.errors import ConfigError
from eitmem.grids import MAX_POINTS, GridSpec
from eitmem.model import PulseSpec
from eitmem.scenario import (
    DEFAULT_LABEL,
    GRID_KEYS,
    IGNORED_MEDIUM_KEYS,
    MEDIUM_KEYS,
    PULSE_KEYS,
    REQUIRED,
    RUN_KEYS,
    SCHEDULE_KEYS,
    Scenario,
    default_scenario,
    load_scenario,
    save_scenario,
    with_medium,
)

from conftest import file_keys, required_keys, scaled_medium


def test_default_scenario_reference_numbers():
    sc = default_scenario()
    m = sc.medium
    assert (m.g, m.n_atoms, m.length) == (1.0e6, 1.0e8, 5.0e-3)
    assert (m.gamma_ba, m.gamma_bc) == (1.0e8, 1.0e4)
    assert (m.delta, m.delta_p) == (0.0, 0.0)
    assert (sc.grid.z_min, sc.grid.z_max, sc.grid.n_points) == (-10e-3, 10e-3, 16384)
    assert (sc.pulse.amplitude, sc.pulse.center_z, sc.pulse.width) == (0.2, -2e-3, 1e-3)
    assert sc.schedule.kind == "tanh_profile"
    assert (sc.horizon, sc.snapshot_dt, sc.output_time) == (180e-6, 15e-6, 165e-6)
    assert sc.label == DEFAULT_LABEL


def test_timing_validation():
    sc = default_scenario()
    with pytest.raises(ConfigError, match="horizon"):
        dataclasses.replace(sc, horizon=-1.0)
    with pytest.raises(ConfigError, match="snapshot_dt"):
        dataclasses.replace(sc, snapshot_dt=200e-6)
    with pytest.raises(ConfigError, match="divide"):
        dataclasses.replace(sc, snapshot_dt=14e-6)
    with pytest.raises(ConfigError, match="output_time"):
        dataclasses.replace(sc, output_time=181e-6)


def test_snapshot_samples_are_capped():
    sc = default_scenario()
    with pytest.raises(ConfigError, match="^10000001 snapshots of 16384 points exceed the 54525952 samples"):
        dataclasses.replace(sc, horizon=150.0)
    largest = dataclasses.replace(sc, grid=GridSpec(-10e-3, 10e-3, MAX_POINTS))  # 13 snapshots fill the cap
    with pytest.raises(ConfigError, match="^14 snapshots"):
        dataclasses.replace(largest, horizon=195e-6)


@pytest.mark.parametrize("label", [" padded", "padded ", "\tpadded", "padded\n", " "])
def test_label_with_edge_whitespace_is_rejected(label):
    # configparser would strip it on load, so the save -> load round trip could not hold
    with pytest.raises(ConfigError, match=re.escape(f"label must not start or end with whitespace, got {label!r}")):
        dataclasses.replace(default_scenario(), label=label)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_values(bad):
    sc = default_scenario()
    cases = {
        "gamma_bc": lambda: with_medium(sc, gamma_bc=bad),
        "delta_p": lambda: with_medium(sc, delta_p=bad),
        "z_max": lambda: GridSpec(-1e-2, bad, 1024),
        "width": lambda: PulseSpec(amplitude=0.2, center_z=0.0, width=bad),
        "amplitude": lambda: PulseSpec(amplitude=complex(0.2, bad), center_z=0.0, width=1e-3),
        "t1": lambda: ControlSchedule(kind="tanh_profile", t1=bad),
        "thetas": lambda: ControlSchedule(kind="tabulated", times=(0.0, 1.0), thetas=(1.0, bad)),
        "horizon": lambda: dataclasses.replace(sc, horizon=bad),
        "output_time": lambda: dataclasses.replace(sc, output_time=bad),
    }
    for name, build in cases.items():
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            build()


def test_pulse_must_fit_grid():
    sc = default_scenario()
    with pytest.raises(ConfigError):
        dataclasses.replace(sc, pulse=PulseSpec(amplitude=0.2, center_z=-9.9e-3, width=1e-3))


def test_tabulated_schedule_must_cover_run():
    sc = default_scenario()
    t = tuple(np.linspace(0.0, 100e-6, 2001))
    thetas = tuple(sc.schedule.eval(sc.medium, ti).theta for ti in t)
    short = ControlSchedule(kind="tabulated", times=t, thetas=thetas)
    with pytest.raises(ConfigError, match="cover"):
        dataclasses.replace(sc, schedule=short)


def test_ini_round_trip_is_exact(tmp_path):
    sc = default_scenario()
    path = tmp_path / "run.ini"
    save_scenario(sc, path)
    again = load_scenario(path)
    assert again == sc


def test_ini_round_trip_all_schedule_kinds(tmp_path):
    base = default_scenario()
    t = tuple(np.linspace(0.0, 180e-6, 4001))
    thetas = tuple(base.schedule.eval(base.medium, ti).theta for ti in t)
    variants = [
        dataclasses.replace(
            base,
            medium=dataclasses.replace(base.medium, delta=3.25e5, delta_p=17.5),
            label="detuned",
        ),
        dataclasses.replace(
            base,
            schedule=ControlSchedule(kind="constant", omega=5.0e9),
            label="flat_control",
        ),
        dataclasses.replace(
            base,
            schedule=ControlSchedule(kind="tabulated", times=t, thetas=thetas),
            label="tabulated_copy",
        ),
        dataclasses.replace(
            base,
            pulse=PulseSpec(amplitude=0.1 + 0.05j, center_z=-2e-3, width=1e-3),
            label="complex_amplitude",
        ),
    ]
    for i, sc in enumerate(variants):
        path = tmp_path / f"run_{i}.ini"
        save_scenario(sc, path)
        assert load_scenario(path) == sc


def test_missing_file_and_sections(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_scenario(tmp_path / "nope.ini")
    path = tmp_path / "partial.ini"
    save_scenario(default_scenario(), path)
    text = path.read_text()
    stripped = text[: text.index("[run]")]
    path.write_text(stripped)
    with pytest.raises(ConfigError, match=r"\[run\]"):
        load_scenario(path)


# Per schedule kind, the required keys test_missing_key_is_named deletes in
# turn: the kind's own, past `kind` itself (a file without it fails on the
# kind), and for the tanh kind those of every other section.
REQUIRED_KEYS = {
    kind: sorted(required_keys(rows[1:])) for kind, rows in SCHEDULE_KEYS.items()
}
REQUIRED_KEYS["tanh_profile"] += sorted(required_keys(MEDIUM_KEYS + GRID_KEYS + PULSE_KEYS + RUN_KEYS))


def test_missing_key_is_named(tmp_path):
    base = default_scenario()
    t = tuple(np.linspace(0.0, 180e-6, 4001))
    schedules = {
        "tanh_profile": base.schedule,
        "constant": ControlSchedule(kind="constant", omega=5.0e9),
        "tabulated": ControlSchedule(
            kind="tabulated", times=t, thetas=tuple(base.schedule.eval(base.medium, t).theta)
        ),
    }
    path = tmp_path / "gapped.ini"
    for kind, keys in REQUIRED_KEYS.items():
        save_scenario(dataclasses.replace(base, schedule=schedules[kind]), path)
        text = path.read_text()
        for key in keys:
            lines = [ln for ln in text.splitlines() if not ln.startswith(f"{key} = ")]
            path.write_text("\n".join(lines))
            with pytest.raises(ConfigError, match=rf"^\[\w+\] is missing required key '{key}'$"):
                load_scenario(path)


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "extra.ini"
    save_scenario(default_scenario(), path)
    text = path.read_text().replace("[grid]", "[grid]\nrefractive_index = 1.4")
    path.write_text(text)
    with pytest.raises(ConfigError, match="refractive_index"):
        load_scenario(path)


def test_unparsable_number_is_reported(tmp_path):
    path = tmp_path / "bad.ini"
    save_scenario(default_scenario(), path)
    text = path.read_text().replace("n_atoms = 100000000.0", "n_atoms = plenty")
    path.write_text(text)
    with pytest.raises(ConfigError, match="n_atoms"):
        load_scenario(path)


def test_population_decay_keys_accepted_with_note(tmp_path):
    path = tmp_path / "legacy.ini"
    save_scenario(default_scenario(), path)
    text = path.read_text().replace("[medium]", "[medium]\ngamma_a = 6.1e7")
    path.write_text(text)
    sc = load_scenario(path)
    assert sc.medium == default_scenario().medium
    assert len(sc.notes) == 1
    assert "gamma_a" in sc.notes[0]
    assert "unused" in sc.notes[0]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_tables() -> dict[str, list[list[str]]]:
    """README's tables, by the first cell of their header, as rows of stripped cells."""
    tables, rows = {}, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            rows = None
            continue
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip()[1:-1])]
        if rows is None:
            rows = tables[cells[0]] = []
        elif set("".join(cells)) != {"-"}:
            rows.append(cells)
    return tables


def _documented_keys(rows) -> dict[str, dict[str, str]]:
    """By the first cell, a blank one continuing the row above: each `key` of the second cell and its last cell."""
    keys, group = {}, None
    for cells in rows:
        group = cells[0] or group
        for key in re.findall(r"`(\w+)`", cells[1]):
            keys.setdefault(group, {})[key] = cells[-1]
    return keys


def test_readme_key_tables_match_the_scenario_format():
    tables = _readme_tables()
    documented = _documented_keys(tables["Section"]) | _documented_keys(tables["`kind`"])
    tables_by_name = {
        "`[medium]`": MEDIUM_KEYS,
        "`[grid]`": GRID_KEYS,
        "`[pulse]`": PULSE_KEYS,
        "`[schedule]`": SCHEDULE_KEYS["constant"][:1],  # kind; the other keys depend on it
        "`[run]`": RUN_KEYS,
    } | {f"`{kind}`": rows[1:] for kind, rows in SCHEDULE_KEYS.items()}
    expected = {name: file_keys(rows) for name, rows in tables_by_name.items()}
    # the same keys, in the order save_scenario writes them
    assert {name: list(keys) for name, keys in documented.items()} == {
        name: list(keys) for name, keys in expected.items()
    }
    for name, keys in documented.items():
        for key, text in keys.items():
            default = expected[name][key]
            if default is REQUIRED:
                assert text == "required", key
            elif isinstance(default, str):
                assert text == f"`{default}`", key
            elif isinstance(default, (int, float)):
                assert float(text) == default, key
            else:  # None or computed: described in words
                assert text != "required", key
    ignored = {re.fullmatch(r"`(\w+)`", key).group(1): reason for key, reason in tables["Ignored key"]}
    assert ignored == IGNORED_MEDIUM_KEYS


def test_optional_keys_have_defaults(tmp_path):
    path = tmp_path / "sparse.ini"
    save_scenario(default_scenario(), path)
    keep = [
        ln
        for ln in path.read_text().splitlines()
        if not ln.startswith(
            (
                "delta", "delta_p", "c ", "amplitude_im", "output_time", "label",
                "scale", "floor", "steepness", "t1", "t2",
            )
        )
    ]
    path.write_text("\n".join(keep))
    sc = load_scenario(path)
    assert sc.pulse == default_scenario().pulse
    assert sc.schedule == ControlSchedule(kind="tanh_profile")
    assert sc.medium.delta == 0.0 and sc.medium.delta_p == 0.0
    assert sc.medium.c == pytest.approx(2.99792458e8)
    # omitted output_time falls back to the last stored interval
    assert sc.output_time == pytest.approx(sc.horizon - sc.snapshot_dt)
    assert sc.label == DEFAULT_LABEL


def test_a_pulse_length_key_is_unrecognized(tmp_path):
    # The pulse length is twice the width; a file cannot name another one.
    path = tmp_path / "pulse.ini"
    save_scenario(default_scenario(), path)
    path.write_text(path.read_text().replace("[pulse]", "[pulse]\nl_p = 2e-3"))
    with pytest.raises(ConfigError, match=re.escape("[pulse] has unrecognized key 'l_p'")):
        load_scenario(path)


def test_with_medium_overrides():
    sc = default_scenario()
    hot = with_medium(sc, gamma_bc=1e3, delta_p=50.0)
    assert hot.medium.gamma_bc == 1e3
    assert hot.medium.delta_p == 50.0
    assert hot.medium.g == sc.medium.g
    assert hot.grid == sc.grid
    with pytest.raises(TypeError):
        with_medium(sc, knob_that_does_not_exist=1.0)


def test_scenario_accepts_scaled_media(tmp_path):
    sc = Scenario(
        medium=scaled_medium(),
        grid=GridSpec(-2.0, 2.0, 1024),
        pulse=PulseSpec(amplitude=0.2, center_z=-0.5, width=0.1),
        schedule=ControlSchedule(kind="constant", omega=725.5),
        horizon=4.0,
        snapshot_dt=0.5,
        output_time=4.0,
        label="scaled",
    )
    path = tmp_path / "scaled.ini"
    save_scenario(sc, path)
    assert load_scenario(path) == sc
