"""Command line front end.

Verbs:
  run       simulate a scenario, write snapshots/coefficients/summary artifacts
  validate  evaluate the regime checks for a scenario without running it
  limits    print detuning/bandwidth design bounds for a medium
  sweep     rerun one scenario across a parameter axis, one summary row each

Exit codes: 0 success, 2 configuration error, 3 validity (regime) error,
4 runtime or numerics error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, oracle, solver
from .coefficients import exponent_integrand  # noqa: F401 - not called here; perfbench/spans.py counts calls through this binding
from .errors import ConfigError, EitmemError, ValidityError
from .model import BLOCKING_CHECKS, REGIME_CHECKS, check_regime
from .oracle import initial_state as oracle_initial_state
from .scenario import Scenario, default_scenario, load_scenario, with_medium

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_RUNTIME = 4

SWEEP_AXES = ("delta", "delta_p", "gamma_bc", "gamma_ba")
MAX_SWEEP_VALUES = 1000
# Sweep values evolved together as one block. Blocks of 8 take most of the
# batched inverse FFT's gain; one block of 40 default-grid values raised
# peak RSS from 42 to 65 MB.
SWEEP_BLOCK = 8


def _load_scenario(args) -> Scenario:
    if getattr(args, "scenario_file", None) is None:
        sc = default_scenario()
    else:
        sc = load_scenario(args.scenario_file)
    override = getattr(args, "snapshot_dt", None)
    if override is not None:
        sc = dataclasses.replace(sc, snapshot_dt=override)
    return sc


def _write_json(path: str, payload: dict):
    """One JSON artifact, indented with sorted keys; a non-finite number, which JSON lacks, is written as null."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(strict, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _print_validity(report):
    for name, _, _ in REGIME_CHECKS:
        if report.strong[name]:
            status = "strong pass"
        elif report.checks[name]:
            status = "pass"
        elif name in BLOCKING_CHECKS:
            status = "FAIL"
        else:
            status = "fail (advisory)"
        print(f"{name:<22} {report.ratios[name]:<12.4g} {status}")


def _print_velocity_block(tag: str, block):
    if block is None:
        return
    print(
        f"{tag}: measured {block['measured']:.6g} m/s, "
        f"window-mean model {block['predicted']:.6g} m/s"
    )


def _print_oracle_progress(steps_done: int, n_steps: int, t: float) -> None:
    print(f"oracle: step {steps_done}/{n_steps}, t = {t:.6e} s", file=sys.stderr)


def cmd_run(args) -> int:
    if args.csv_stride < 1:
        raise ConfigError(f"stride must be at least 1, got {args.csv_stride}")
    sc = _load_scenario(args)
    if args.oracle:
        dt = args.oracle_dt if args.oracle_dt is not None else sc.snapshot_dt / 1000.0
        cfg = oracle.OracleConfig(dt=dt, snapshot_dt=sc.snapshot_dt)
        oracle.step_count(sc.horizon, cfg)
    result = solver.simulate(
        sc.medium,
        sc.grid,
        sc.pulse,
        sc.schedule,
        sc.horizon,
        sc.snapshot_dt,
        force=args.force,
    )
    for note in sc.notes:
        print(f"note: {note}")
    validity = result.validity
    if validity.all_pass:
        print("validity: all checks pass")
    else:
        for msg in validity.warnings():
            print(f"warning: {msg}")
        if not validity.blocking_pass:
            print("warning: blocking checks failed, run was forced")

    summary = analysis.assemble_summary(result, sc.output_time)
    summary["label"] = sc.label
    summary["notes"] = list(sc.notes)

    _print_velocity_block("v_g on window", summary.get("v_g_on"))
    _print_velocity_block("v_g off window", summary.get("v_g_off"))
    _print_velocity_block("v_g overall", summary.get("v_g_overall"))
    decay = summary.get("decay_rate")
    if decay:
        print(
            f"stored decay rate: measured {decay['measured']:.6g} /s, "
            f"model {decay['predicted']:.6g} /s"
        )
        warning = _decay_fit_warning(decay["fit_residual_rms"])
        if warning is not None:
            print(f"warning: {warning}", file=sys.stderr)
    out_peak = summary["output_peak"]
    print(
        f"output peak at t = {out_peak['t']:.6g} s: measured "
        f"{out_peak['measured_peak']:.6g}, model {out_peak['predicted_peak']:.6g}"
    )
    dist = summary["distortion"]
    print(
        f"distortion: {dist['verdict']} (aligned residual {dist['aligned_l2']:.4g}, "
        f"phase shift {dist['phase_shift']:.4g} rad)"
    )

    # The oracle runs before any artifact is written, so a run it rejects
    # leaves no partial set behind.
    if args.oracle:
        start = oracle_initial_state(sc.medium, sc.grid, sc.pulse, sc.schedule)
        states = oracle.integrate_reduced(
            sc.medium, sc.grid, start, sc.schedule, sc.horizon, cfg, _print_oracle_progress
        )
        report = oracle.compare_to_adiabatic(
            states,
            [(snap.t, solver.reconstruct(snap.psi, snap.theta, sc.medium)[1]) for snap in result.snapshots],
            result.validity,
        )

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    snap_path = os.path.join(out_dir, "snapshots.csv")
    coef_path = os.path.join(out_dir, "coefficients.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    solver.write_snapshots_csv(result, snap_path, stride=args.csv_stride)
    solver.write_coefficient_csv(result, coef_path)
    written = [snap_path, coef_path, summary_path]

    if args.oracle:
        oracle_path = os.path.join(out_dir, "oracle_snapshots.csv")
        oracle.write_oracle_csv(states, oracle_path, cfg, stride=args.csv_stride)
        comparison_path = os.path.join(out_dir, "comparison.json")
        summary["oracle_comparison"] = dataclasses.asdict(report)
        _write_json(comparison_path, summary["oracle_comparison"])
        print(
            f"oracle: max probe-field discrepancy {report.max_linf:.4g} (rel L-inf), "
            f"{report.max_l2:.4g} (rel L2)"
        )
        print(f"oracle: {report.attribution}")
        written.extend([oracle_path, comparison_path])

    _write_json(summary_path, summary)
    print("wrote " + " ".join(written))
    return EXIT_OK


def cmd_validate(args) -> int:
    sc = _load_scenario(args)
    report = check_regime(sc.medium, sc.pulse, sc.schedule, sc.horizon)
    _print_validity(report)
    for note in sc.notes:
        print(f"note: {note}")
    report.gate()
    print("verdict: ok to run")
    return EXIT_OK


def cmd_limits(args) -> int:
    sc = _load_scenario(args)
    lim = analysis.design_limits(sc.medium, args.pulse_length, args.storage_time)
    print(f"pulse length {args.pulse_length:.6g} m, storage time {args.storage_time:.6g} s")
    rows = (
        ("delta_p_max", lim.delta_p_max, "rad/s"),
        ("delta_max", lim.delta_max, "rad/s"),
        ("bw_limit", lim.bw_limit, "rad/s"),
        ("bw_mismatch_limit", lim.bw_mismatch_limit, "rad/s"),
        ("t_transit_max", lim.t_transit_max, "s"),
    )
    for name, value, unit in rows:
        print(f"{name:<20} {value:<14.6g} {unit}")
    for note in lim.notes:
        print(f"note: {note}")
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "limits.json")
        inputs = {"pulse_length": args.pulse_length, "storage_time": args.storage_time}
        _write_json(path, dataclasses.asdict(lim) | inputs)
        print(f"wrote {path}")
    return EXIT_OK


SWEEP_COLUMNS = (
    "value",
    "status",
    "output_peak",
    "aligned_l2",
    "verdict",
    "phase_shift",
    "high_k_fraction",
    "imag_fraction",
    "v_g_off",
    "decay_rate",
)


def _decay_fit_warning(rms: float) -> str | None:
    if rms <= analysis.DECAY_FIT_RMS_LIMIT:
        return None
    return (
        f"decay fit residual rms {rms:.3f} is large; the window may span a "
        f"switch or a distorted stretch"
    )


def _sweep_block(scenarios: list[Scenario], force: bool) -> list[tuple[dict, str | None]]:
    """Per scenario, its sweep.csv fields and decay-fit warning as `run` reports them, or the error `run` exits with as status.

    The scenarios differ in their medium alone and run as one block
    evolution, which transforms only the snapshots a row reads: those of
    the stored window, whose peaks feed v_g_off and decay_rate, and the
    output one. Snapshot 0, the input, takes no transform. Each medium's
    track of those samples goes through `analysis.measured`, as in `run`,
    so a read sample below the tracking floor gives the row `run`'s exit-4
    error. The block's outputs are measured for distortion in one call.
    """
    sc = scenarios[0]
    block = solver.BlockEvolution(
        [s.medium for s in scenarios],
        sc.grid,
        sc.pulse,
        sc.schedule,
        sc.horizon,
        sc.snapshot_dt,
        force=force,
    )
    out = analysis.output_index(block.times, sc.output_time)
    window = analysis.stored_window(sc.schedule)
    read = {0, out} | {i for i, t in enumerate(block.times) if window and window[0] <= t <= window[1]}
    z = sc.grid.z_array()
    samples = {j: [] for j in range(len(scenarios))}  # per medium, one track sample per snapshot read
    outputs = {}
    for i, members in block.evolve(read):
        for j, snap in members:
            samples[j].append(analysis.track_sample(z, snap))
        if i == out:
            outputs = dict(members)

    errors, found = dict(block.failed), {}
    for j in sorted(samples.keys() - errors.keys()):
        try:
            found[j] = analysis.measured(analysis.PulseTrack(*zip(*samples[j])), sc.schedule, sc.output_time)
        except EitmemError as exc:
            errors[j] = exc
    reports = analysis.measure_distortion(block.psi0, [outputs[j].psi for j in found]) if found else []
    reports = dict(zip(found, reports))

    results = []
    for j in range(len(scenarios)):
        if j in errors:
            status = f"{type(errors[j]).__name__}: {errors[j]}"
            results.append(({name: "" for name in SWEEP_COLUMNS} | {"status": status}, None))
            continue
        m, report, snap = found[j], reports[j], outputs[j]
        fields = {
            "status": "ok",
            "output_peak": repr(m.output_peak),
            "aligned_l2": repr(report.aligned_l2),
            "verdict": report.verdict,
            "phase_shift": repr(report.phase_shift),
            "high_k_fraction": repr(report.high_k_fraction),
            "imag_fraction": repr(float(np.max(np.abs(snap.psi.values.imag)) / snap.peak)),
            "v_g_off": repr(m.velocity["v_g_off"][0]) if "v_g_off" in m.velocity else "",
            "decay_rate": "" if m.decay is None else repr(m.decay[0]),
        }
        results.append((fields, None if m.decay is None else _decay_fit_warning(m.decay[1])))
    return results


def cmd_sweep(args) -> int:
    sc = _load_scenario(args)
    values = []
    for piece in args.values.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise ConfigError(f"sweep value {piece!r} cannot be parsed as a number") from None
    if not values:
        raise ConfigError(f"sweep values {args.values!r} hold no number")
    if len(values) > MAX_SWEEP_VALUES:
        raise ConfigError(f"sweep asks for {len(values)} runs, limit is {MAX_SWEEP_VALUES}")
    # Every value is checked before anything runs or is written.
    scenarios = [with_medium(sc, **{args.axis: value}) for value in values]
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "sweep.csv")
    rows = []
    for start in range(0, len(values), SWEEP_BLOCK):
        stop = start + SWEEP_BLOCK
        for value, (fields, warning) in zip(values[start:stop], _sweep_block(scenarios[start:stop], args.force)):
            row = fields | {"value": repr(value)}
            rows.append(row)
            print(
                f"{args.axis} = {value:.6g}: {row['status']}"
                + (
                    f", peak {float(row['output_peak']):.6g}, {row['verdict']}"
                    if row["status"] == "ok"
                    else ""
                )
            )
            if warning is not None:
                print(f"warning: {args.axis} = {value:.6g}: {warning}", file=sys.stderr)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eitmem",
        description="Slow-light pulse storage in a three-level ensemble: "
        "spectral evolution engine, reduced-system cross-check, design limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a scenario and write artifacts")
    run.add_argument("scenario_file", nargs="?", default=None, help="INI scenario path; omit for the built-in default")
    run.add_argument("--out-dir", default=".", help="directory for artifacts")
    run.add_argument("--force", action="store_true", help="run even if blocking validity checks fail")
    run.add_argument("--oracle", action="store_true", help="also integrate the reduced three-field system and compare")
    run.add_argument("--oracle-dt", type=float, default=None, help="reduced-system step in seconds (default snapshot_dt/1000)")
    run.add_argument("--snapshot-dt", type=float, default=None, help="override snapshot cadence in seconds")
    run.add_argument("--csv-stride", type=int, default=16, help="write every Nth grid point (default 16)")
    run.set_defaults(func=cmd_run)

    val = sub.add_parser("validate", help="evaluate regime checks without running")
    val.add_argument("scenario_file", nargs="?", default=None)
    val.set_defaults(func=cmd_validate)

    lim = sub.add_parser("limits", help="print detuning and bandwidth design bounds")
    lim.add_argument("scenario_file", nargs="?", default=None)
    lim.add_argument("--pulse-length", type=float, default=1.0e-3, help="free-space pulse length in meters")
    lim.add_argument("--storage-time", type=float, default=53.0e-6, help="storage duration in seconds")
    lim.add_argument("--out-dir", default=None, help="also write limits.json here")
    lim.set_defaults(func=cmd_limits)

    sw = sub.add_parser("sweep", help="rerun a scenario across one parameter axis")
    sw.add_argument("scenario_file", nargs="?", default=None)
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.add_argument("--values", required=True, help="comma separated numbers; negative ones as --values=-200,-100")
    sw.add_argument("--out-dir", default=".")
    sw.add_argument("--force", action="store_true")
    sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except EitmemError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
