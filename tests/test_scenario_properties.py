"""Property tests of the scenario INI format: exact round trips, clean rejections."""

from __future__ import annotations

import configparser
import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitmem.cli import main
from eitmem.control import ControlSchedule
from eitmem.errors import ConfigError
from eitmem.grids import GridSpec
from eitmem.model import MediumParams, PulseSpec
from eitmem.scenario import (
    GRID_KEYS,
    IGNORED_MEDIUM_KEYS,
    MEDIUM_KEYS,
    PULSE_KEYS,
    RUN_KEYS,
    SCHEDULE_KEYS,
    Scenario,
    default_scenario,
    load_scenario,
    save_scenario,
)

from conftest import required_keys

# Few examples keep tier-1 fast; no example database is written.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None)

# Keys a scenario file must give, by section; [schedule] of every kind.
REQUIRED_KEYS = {
    "medium": required_keys(MEDIUM_KEYS),
    "grid": required_keys(GRID_KEYS),
    "pulse": required_keys(PULSE_KEYS),
    "schedule": set().union(*map(required_keys, SCHEDULE_KEYS.values())),
    "run": required_keys(RUN_KEYS),
}


def _real(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw) -> Scenario:
    """Valid scenarios of every schedule kind, with margins that rounding cannot cross."""
    medium = MediumParams(
        g=draw(_real(1e-3, 1e9)),
        n_atoms=draw(_real(1.0, 1e12)),
        length=draw(_real(1e-6, 1e3)),
        gamma_ba=draw(_real(1e-3, 1e10)),
        gamma_bc=draw(_real(0.0, 1e8)),
        delta=draw(_real(-1e9, 1e9)),
        delta_p=draw(_real(-1e6, 1e6)),
        c=draw(_real(1e-3, 1e9)),
    )
    z_min = draw(_real(-1e3, 1e3))
    span = draw(_real(1e-3, 1e3))
    n_points = 2 ** draw(st.integers(6, 20))
    grid = GridSpec(z_min, z_min + span, n_points)
    # The pulse length stays under a quarter of the domain (DOMAIN_PADDING_FACTOR
    # is 4), the center keeps more than one pulse length from either edge, and
    # the width spans at least 4 grid spacings (MIN_WIDTH_SPACINGS is 3.822).
    width = span * draw(_real(max(1e-4, 4.0 / n_points), 0.1))
    pulse = PulseSpec(
        amplitude=complex(draw(_real(1e-3, 10.0)), draw(_real(-10.0, 10.0))),
        center_z=z_min + span * draw(_real(0.3, 0.7)),
        width=width,
    )
    horizon = draw(_real(1e-6, 1e3))
    kind = draw(st.sampled_from(("constant", "tanh_profile", "tabulated")))
    if kind == "constant":
        schedule = ControlSchedule(kind=kind, omega=draw(_real(1e-3, 1e12)))
    elif kind == "tanh_profile":
        t1 = draw(_real(0.0, 1e-3))
        schedule = ControlSchedule(
            kind=kind,
            scale=draw(_real(1e-6, 1.0)),
            floor=draw(_real(1e-8, 1e-2)),
            steepness=draw(_real(1.0, 1e7)),
            t1=t1,
            t2=t1 + draw(_real(1e-6, 1e-3)),
        )
    else:
        # Knots from 0 to the horizon; theta linear in t, which the monotone
        # cubic reproduces, so the density check passes.
        steps = np.cumsum(draw(st.lists(_real(0.1, 1.0), min_size=1, max_size=12)))
        times = np.concatenate(([0.0], horizon * steps / steps[-1]))
        times[-1] = horizon
        th0, th1 = draw(_real(0.1, 1.4)), draw(_real(0.1, 1.4))
        schedule = ControlSchedule(
            kind=kind,
            times=tuple(times.tolist()),
            thetas=tuple((th0 + (th1 - th0) * times / horizon).tolist()),
        )
    fields = dict(
        medium=medium,
        grid=grid,
        pulse=pulse,
        schedule=schedule,
        horizon=horizon,
        snapshot_dt=horizon / draw(st.integers(1, 50)),
        output_time=horizon * draw(_real(0.0, 1.0)),
        label=draw(st.text(alphabet="abcXYZ019_-.:%#; \t", max_size=12)),
    )
    label = fields["label"]
    if label != label.strip():
        # configparser strips edge whitespace on load, so the scenario refuses it
        with pytest.raises(ConfigError, match="label must not start or end with whitespace"):
            Scenario(**fields)
        fields["label"] = label.strip()
    return Scenario(**fields)


@PROPERTY_SETTINGS
@given(sc=scenarios())
def test_save_then_load_gives_the_same_scenario(sc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        save_scenario(sc, path)
        again = load_scenario(path)
        assert again == sc
        save_scenario(again, Path(tmp) / "again.ini")
        assert (Path(tmp) / "again.ini").read_bytes() == path.read_bytes()


BAD_VALUES = st.sampled_from(
    ("nan", "inf", "-inf", "NaN", "abc", "1.0.0", "1e", "0x1p3")
) | st.from_regex(r"[a-z]{1,6}[!?]", fullmatch=True)
NEW_KEYS = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


@PROPERTY_SETTINGS
@given(sc=scenarios(), data=st.data())
def test_one_corrupted_key_exits_2_naming_it(sc, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.ini"
        save_scenario(sc, path)
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(path, encoding="utf-8")
        section = data.draw(st.sampled_from(cp.sections()))
        keys = list(cp[section])
        corruption = data.draw(st.sampled_from(("value", "unknown", "missing")))
        if corruption == "value":
            key = data.draw(st.sampled_from([k for k in keys if k != "label"]))
            cp[section][key] = data.draw(BAD_VALUES)
        elif corruption == "unknown":
            valid = keys + list(IGNORED_MEDIUM_KEYS)
            key = data.draw(NEW_KEYS.filter(lambda k: k not in valid))
            cp[section][key] = "1.0"
        else:
            key = data.draw(st.sampled_from(sorted(REQUIRED_KEYS[section] & set(keys))))
            del cp[section][key]
        with open(path, "w", encoding="utf-8") as fh:
            cp.write(fh)
        out_dir = Path(tmp) / "out"
        commands = (
            ["validate", str(path)],
            ["run", str(path), "--out-dir", str(out_dir)],
            ["limits", str(path), "--out-dir", str(out_dir)],
            ["sweep", str(path), "--axis", "delta_p", "--values", "0", "--out-dir", str(out_dir)],
        )
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(argv) == 2, argv
            err = err.getvalue()
            assert err.startswith("config error: "), argv
            assert f"[{section}]" in err and key in err
            assert "Traceback" not in err
            if corruption == "value":
                assert f"[{section}] {key}" in err
            assert not out_dir.exists(), argv


def _corrupted(text: bytes, data) -> bytes:
    """text with one corruption a hand-edited or damaged file may carry."""
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(
        st.sampled_from(("drop", "duplicate", "header", "separator", "bom", "truncate", "byte"))
    )
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "header":
        lines.insert(i, data.draw(st.sampled_from([line for line in lines if line.startswith(b"[")])))
    elif kind == "separator":
        j = data.draw(st.sampled_from([j for j, line in enumerate(lines) if b"=" in line]))
        lines[j] = lines[j].replace(b"=", b"", 1)
    elif kind == "bom":
        return b"\xef\xbb\xbf" + text
    elif kind == "truncate":
        return text[: data.draw(st.integers(0, len(text)))]
    else:
        at = data.draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    return b"".join(lines)


# Each example loads and validates one file; 25 of them take about 0.2 s.
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_a_malformed_scenario_file_is_rejected_in_one_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.ini"
        save_scenario(default_scenario(), path)
        path.write_bytes(_corrupted(path.read_bytes(), data))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["validate", str(path)]) in (0, 2, 3)
        err = err.getvalue()
        assert err.count("\n") <= 1 and "Traceback" not in err, err
