"""The benchmark's workloads: the inputs each one hands the eitmem CLI, and the checks on its outputs.

The program only ever sees the INI files written here and an argv list.
Every input is a function of the seed, so one seed always gives the same
inputs. Only ``sweep_delta_p`` draws values from the seed; the other three
are the fixed scenarios users run, and their seed changes nothing.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("run_default", "sweep_delta_p", "oracle_default_short", "oracle_scaled")

# Workloads whose wall_s and solve_s are scaled to the reference host speed
# (child.py): their time is single-threaded compute, which the host-speed
# reading tracks. Most of oracle_default_short's time is its BLAS threads
# handing small matrix products back and forth, and its unscaled solve_s
# spread only 0.02 over five runs, so it runs without the sampler and is
# reported unscaled. setup_s is scaled on every workload.
HOST_SCALED = ("run_default", "sweep_delta_p", "oracle_scaled")

REFERENCE_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

SWEEP_COUNT = 40
SWEEP_RANGE = (0.0, 1000.0)  # rad/s, two-photon detuning
SWEEP_NUMERIC = (
    "output_peak",
    "aligned_l2",
    "phase_shift",
    "high_k_fraction",
    "imag_fraction",
    "v_g_off",
    "decay_rate",
)

# Reference comparisons allow drift far above the 1e-12 relative that an
# exact refactor may introduce, and far below any change of the physics.
RTOL = 1e-6
# Summary values that are pure round-off (a phase shift of 1e-17 rad, an
# aligned residual of 1e-11) are compared on this absolute scale.
SUMMARY_ATOL = 1e-9

ORACLE_SCALED_MAX_LINF = 0.05  # acceptance criterion 7

# The built-in default scenario (eitmem.scenario.default_scenario), spelled
# out so the oracle workload can shorten its horizon through an INI file.
DEFAULT_MEDIUM = {
    "g": 1.0e6,
    "n_atoms": 1.0e8,
    "length": 5.0e-3,
    "cell_diameter": 200.0e-6,
    "nu_p": 2.0 * math.pi * 5.0e14,
    "gamma_ba": 1.0e8,
    "gamma_bc": 1.0e4,
}
DEFAULT_GRID = {"z_min": -10.0e-3, "z_max": 10.0e-3, "n_points": 16384}
DEFAULT_PULSE = {"amplitude_re": 0.2, "center_z": -2.0e-3, "width": 1.0e-3}
DEFAULT_SCHEDULE = {
    "kind": "tanh_profile",
    "scale": 5.0e-4,
    "floor": 1.0e-5,
    "steepness": 1.0e5,
    "t1": 30.0e-6,
    "t2": 125.0e-6,
}
# One snapshot interval of the default run: 1000 oracle steps at the default
# run's per-step cost, with the propagator rebuilt at every step.
ORACLE_SHORT_HORIZON = 15.0e-6  # s
ORACLE_SHORT_DT = "1.5e-8"  # s, pinned so a new default --oracle-dt cannot change the work

# The scaled pass scenario of tests/conftest.py (scaled_pass_scenario):
# unit light speed, so the oracle resolves it in 8000 steps.
SCALED_PASS = {
    "medium": {
        "g": 1.0,
        "n_atoms": 1.0e7,
        "length": 1.0,
        "cell_diameter": 0.1,
        "nu_p": 1.0,
        "gamma_ba": 10.0,
        "gamma_bc": 0.01,
        "c": 1.0,
    },
    "grid": {"z_min": -2.0, "z_max": 2.0, "n_points": 1024},
    "pulse": {"amplitude_re": 0.2, "center_z": -0.5, "width": 0.1},
    "schedule": {"kind": "constant", "omega": 725.5},
    "run": {"horizon": 4.0, "snapshot_dt": 0.5, "output_time": 4.0, "label": "scaled_pass"},
}
ORACLE_SCALED_DT = "5e-4"  # s


@dataclass(frozen=True)
class Plan:
    """One workload's inputs: the argv for ``eitmem.cli.main`` and where it writes."""

    workload: str
    seed: int
    argv: tuple[str, ...]
    out_dir: Path
    sweep_values: tuple[float, ...] = ()


@dataclass
class Outcome:
    """What the checks found in one invocation's outputs."""

    errors: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def ini_text(sections: dict) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        for key, value in items.items():
            lines.append(f"{key} = {repr(value) if isinstance(value, float) else value}")
        lines.append("")
    return "\n".join(lines)


def default_short_sections() -> dict:
    return {
        "medium": dict(DEFAULT_MEDIUM),
        "grid": dict(DEFAULT_GRID),
        "pulse": dict(DEFAULT_PULSE),
        "schedule": dict(DEFAULT_SCHEDULE),
        "run": {
            "horizon": ORACLE_SHORT_HORIZON,
            "snapshot_dt": ORACLE_SHORT_HORIZON,
            "output_time": ORACLE_SHORT_HORIZON,
            "label": "oracle_default_short",
        },
    }


def sweep_values(seed: int) -> tuple[float, ...]:
    rng = random.Random(seed)
    return tuple(rng.uniform(*SWEEP_RANGE) for _ in range(SWEEP_COUNT))


def prepare(workload: str, seed: int, work_dir: Path) -> Plan:
    """Write the workload's input files under work_dir and return its plan."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir = work_dir / "out"
    out = ("--out-dir", str(out_dir))
    if workload == "run_default":
        return Plan(workload, seed, ("run", "--csv-stride", "16") + out, out_dir)
    if workload == "sweep_delta_p":
        values = sweep_values(seed)
        argv = ("sweep", "--axis", "delta_p", "--values", ",".join(map(repr, values))) + out
        return Plan(workload, seed, argv, out_dir, values)
    if workload == "oracle_default_short":
        sections, dt = default_short_sections(), ORACLE_SHORT_DT
    elif workload == "oracle_scaled":
        sections, dt = SCALED_PASS, ORACLE_SCALED_DT
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ini = work_dir / f"{workload}.ini"
    ini.write_text(ini_text(sections), encoding="utf-8")
    argv = ("run", str(ini), "--oracle", "--oracle-dt", dt, "--csv-stride", "16") + out
    return Plan(workload, seed, argv, out_dir)


# ---------------------------------------------------------------- checks


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def flatten(obj, prefix: str = "") -> dict:
    """Every leaf of a JSON document, keyed by its dotted path."""
    out: dict = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(flatten(value, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = obj
    return out


def _same_leaf(got, ref) -> bool:
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        return isinstance(got, numeric) and not isinstance(got, bool) and _close(got, ref, SUMMARY_ATOL)
    return got == ref


def csv_digest(path: Path) -> dict:
    """Row count, and per column the sum of |x| and a position-weighted sum of x.

    The weighted sum changes when values move between rows or flip sign;
    both sums tolerate the last-digit drift a byte hash would not.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    weights = 1.0 + (np.arange(data.shape[0]) % 13) / 13.0
    return {
        "rows": int(data.shape[0]),
        "finite": bool(np.all(np.isfinite(data))),
        "columns": {
            name: [float(np.sum(np.abs(col))), float(weights @ col)]
            for name, col in zip(header, data.T)
        },
    }


def _digest_scale_column(name: str) -> str:
    # re_X and im_X are compared on the scale of |X|: an imaginary part that
    # is pure round-off has no scale of its own.
    if name.startswith(("re_", "im_")):
        return "abs_" + name[3:]
    return name


def compare_digest(got: dict, ref: dict, errors: list[str]):
    if not got["finite"]:
        errors.append("snapshots.csv holds non-finite values")
    if got["rows"] != ref["rows"]:
        errors.append(f"snapshots.csv has {got['rows']} rows, reference {ref['rows']}")
        return
    if set(got["columns"]) != set(ref["columns"]):
        errors.append("snapshots.csv columns differ from the reference")
        return
    for name, (l1_ref, moment_ref) in ref["columns"].items():
        l1, moment = got["columns"][name]
        scale = ref["columns"][_digest_scale_column(name)][0]
        tol = RTOL * scale
        if abs(l1 - l1_ref) > tol or abs(moment - moment_ref) > tol:
            errors.append(
                f"snapshots.csv column {name}: digest ({l1!r}, {moment!r}) vs "
                f"reference ({l1_ref!r}, {moment_ref!r})"
            )


def _close(a: float, b: float, atol: float) -> bool:
    return abs(a - b) <= RTOL * abs(b) + atol


def _read_json(path: Path, outcome: Outcome):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        outcome.errors.append(f"cannot read {path.name}: {exc}")
        return None


def _check_run_default(plan: Plan, reference: dict, outcome: Outcome):
    ref = reference["run_default"]
    summary = _read_json(plan.out_dir / "summary.json", outcome)
    if summary is not None:
        got = flatten(summary)
        for key, value in ref["summary"].items():
            if key not in got:
                outcome.errors.append(f"summary.json lacks {key}")
            elif not _same_leaf(got[key], value):
                outcome.errors.append(f"summary.json {key} = {got[key]!r}, reference {value!r}")
    try:
        compare_digest(csv_digest(plan.out_dir / "snapshots.csv"), ref["snapshots"], outcome.errors)
        coefficients = csv_digest(plan.out_dir / "coefficients.csv")
    except (OSError, ValueError) as exc:
        outcome.errors.append(f"cannot read snapshot or coefficient CSV: {exc}")
        return
    # coefficients.csv rows are quadrature nodes, which a new quadrature may move.
    if coefficients["rows"] < 1 or not coefficients["finite"]:
        outcome.errors.append("coefficients.csv is empty or non-finite")


def read_sweep(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_sweep(plan: Plan, reference: dict, outcome: Outcome):
    try:
        rows = read_sweep(plan.out_dir / "sweep.csv")
    except OSError as exc:
        outcome.errors.append(f"cannot read sweep.csv: {exc}")
        return
    if [row.get("value") for row in rows] != [repr(v) for v in plan.sweep_values]:
        outcome.errors.append("sweep.csv rows are not the input values in input order")
        return
    for row in rows:
        if row["status"] != "ok":
            outcome.errors.append(f"sweep value {row['value']}: status {row['status']!r}")
            continue
        try:
            numbers = [float(row[name]) for name in SWEEP_NUMERIC]
        except ValueError:
            outcome.errors.append(f"sweep value {row['value']}: a numeric column is empty")
            continue
        if not all(math.isfinite(x) for x in numbers):
            outcome.errors.append(f"sweep value {row['value']}: non-finite result")
        if row["verdict"] not in ("clean", "distorted"):
            outcome.errors.append(f"sweep value {row['value']}: verdict {row['verdict']!r}")
    outcome.details["distorted"] = sum(row["verdict"] == "distorted" for row in rows)
    ref = reference["sweep_delta_p"]
    if plan.seed != ref["seed"] or outcome.errors:
        return
    for row, ref_row in zip(rows, ref["rows"]):
        if row["verdict"] != ref_row["verdict"]:
            outcome.errors.append(f"sweep value {row['value']}: verdict differs from reference")
        elif ref_row["verdict"] == "clean":
            # A distorted row is amplified round-off: its numbers depend on
            # the FFT's last digits, so only clean rows are compared.
            for name in SWEEP_NUMERIC:
                if not _close(float(row[name]), float(ref_row[name]), SUMMARY_ATOL):
                    outcome.errors.append(
                        f"sweep value {row['value']}: {name} = {row[name]}, "
                        f"reference {ref_row[name]}"
                    )


def _check_oracle(plan: Plan, outcome: Outcome):
    comparison = _read_json(plan.out_dir / "comparison.json", outcome)
    if comparison is None:
        return
    max_linf = comparison.get("max_linf")
    if not isinstance(max_linf, (int, float)) or not math.isfinite(max_linf):
        outcome.errors.append(f"comparison.json max_linf is {max_linf!r}")
        return
    outcome.details["max_linf"] = max_linf
    if plan.workload == "oracle_scaled":
        if max_linf > ORACLE_SCALED_MAX_LINF:
            outcome.errors.append(f"oracle max_linf {max_linf!r} exceeds {ORACLE_SCALED_MAX_LINF}")
        if comparison.get("failed_checks"):
            outcome.errors.append(f"oracle comparison failed checks {comparison['failed_checks']}")
    # oracle_default_short is unresolved at its pinned dt, so its agreement
    # is recorded, not gated.


def check(plan: Plan, reference: dict) -> Outcome:
    """Check the outputs one invocation left in plan.out_dir."""
    outcome = Outcome()
    if plan.workload == "run_default":
        _check_run_default(plan, reference, outcome)
    elif plan.workload == "sweep_delta_p":
        _check_sweep(plan, reference, outcome)
    else:
        _check_oracle(plan, outcome)
    return outcome
