"""Self-test of the benchmark: its inputs, its trace arithmetic and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from eitmem.scenario import default_scenario, load_scenario  # noqa: E402


def _load_ini(tmp_path: Path, workload: str):
    plan = workloads.prepare(workload, 0, tmp_path)
    return plan, load_scenario(plan.argv[1])


def test_scaled_pass_values_match_the_test_suite(tmp_path):
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    _, loaded = _load_ini(tmp_path, "oracle_scaled")
    assert loaded == suite.scaled_pass_scenario()


def test_oracle_default_short_is_the_default_scenario_cut_to_one_interval(tmp_path):
    plan, loaded = _load_ini(tmp_path, "oracle_default_short")
    horizon = workloads.ORACLE_SHORT_HORIZON
    expected = dataclasses.replace(
        default_scenario(),
        horizon=horizon,
        snapshot_dt=horizon,
        output_time=horizon,
        label="oracle_default_short",
    )
    assert loaded == expected
    dt = float(plan.argv[plan.argv.index("--oracle-dt") + 1])
    assert round(horizon / dt) == 1000


def test_sweep_values_come_from_the_seed_alone():
    values = workloads.sweep_values(7)
    assert values == workloads.sweep_values(7)
    assert values != workloads.sweep_values(8)
    assert len(values) == workloads.SWEEP_COUNT
    assert all(workloads.SWEEP_RANGE[0] <= v <= workloads.SWEEP_RANGE[1] for v in values)


def test_times_scale_to_the_reference_host_speed():
    # A host running the fixed work at half the reference speed halves every scaled time.
    sample = {
        "wall_s": 2.0,
        "solve_s": 1.0,
        "setup_s": 0.5,
        "peak_rss_mb": 80.0,
        "host_s": 2 * child.REFERENCE_S,
        "errors": [],
    }
    for workload in workloads.WORKLOADS:
        record = {"workload": workload, "samples": [sample], "setup_probes": []}
        got = run.end_to_end_metrics(record)
        factor = 0.5 if workload in workloads.HOST_SCALED else 1.0
        assert got["wall_s"] == pytest.approx(2.0 * factor)
        assert got["solve_s"] == pytest.approx(1.0 * factor)
        assert got["setup_s"] == pytest.approx(0.25)
        assert got["peak_rss_mb"] == 80.0
    assert set(workloads.HOST_SCALED) <= set(workloads.WORKLOADS)


def test_host_sampler_reads_while_python_runs_and_counts_its_own_cost():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = child.HostSampler()
    sampler.start()
    try:
        end = time.monotonic() + 3.5 * child.SAMPLE_INTERVAL_S
        while time.monotonic() < end:
            pass
    finally:
        sampler.stop()
        signal.signal(signal.SIGALRM, previous)
    assert len(sampler.readings_ns) >= 3
    assert sampler.spent_ns >= sum(sampler.readings_ns) > 0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_traced_binding_exists_at_this_commit():
    import eitmem.cli  # noqa: F401  (imports every module the bindings name)

    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.BINDINGS
        if not callable(getattr(sys.modules[module], attr, None))
    ]
    assert missing == []


def test_install_wraps_present_bindings_and_lists_absent_ones(monkeypatch):
    fake = types.ModuleType("fake_layer")

    def work(path_arg, path):
        return inner(path)

    def inner(path):
        return path

    fake.work = work
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    monkeypatch.setattr(
        spans,
        "BINDINGS",
        (
            ("fake_layer", "work", "fake.work", spans.SPAN_BYTES),
            ("fake_layer", "deleted", "fake.deleted", spans.SPAN),
        ),
    )
    recorder = spans.Recorder(invocation=3)
    spans.install(recorder)
    assert fake.work("x", __file__) == __file__
    trace = recorder.to_dict()
    assert trace["absent"] == ["fake_layer.deleted"]
    assert [(s["name"], s["invocation"], s["parent"]) for s in trace["spans"]] == [("fake.work", 3, None)]
    assert trace["counters"]["fake.work.bytes"] == Path(__file__).stat().st_size


def test_self_time_subtracts_direct_children_only():
    def span(i, parent, name, start, end):
        return {"id": i, "parent": parent, "name": name, "start_ns": start, "end_ns": end}

    totals = spans.span_totals(
        [
            span(0, None, "cli.main", 0, 1000),
            span(1, 0, "solver.simulate", 100, 600),
            span(2, 1, "solver.apply_evolution", 200, 300),
            span(3, 1, "solver.apply_evolution", 300, 450),
        ]
    )
    assert totals["cli.main"]["self_s"] == pytest.approx(500e-9)
    assert totals["solver.simulate"]["self_s"] == pytest.approx(250e-9)
    assert totals["solver.apply_evolution"] == pytest.approx({"s": 250e-9, "self_s": 250e-9, "calls": 2})


def test_layer_metrics_from_a_trace():
    trace = {
        "spans": [
            {"id": 0, "parent": None, "name": "oracle.integrate_reduced", "start_ns": 0, "end_ns": 8000},
            {"id": 1, "parent": 0, "name": "oracle.expm", "start_ns": 0, "end_ns": 3000},
        ],
        "counters": {"oracle.steps": 4, "coefficients.exponent_integrand.calls": 7},
        "absent": [],
    }
    imports = spans.import_times(
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |      30000 | eitmem\n"
        "import time:        90 |       2000 |   eitmem.oracle\n"
    )
    metrics = spans.layer_metrics(trace, imports)
    assert set(metrics) == {name for name, _ in spans.PER_LAYER} - {"trace.overhead_s"}
    assert metrics["import.eitmem_s"] == pytest.approx(0.03)
    assert metrics["import.eitmem.oracle_s"] == pytest.approx(0.002)
    assert metrics["import.eitmem.analysis_s"] == 0.0
    assert metrics["oracle.field_step.s"] == pytest.approx(5000e-9)
    assert metrics["oracle.expm.calls"] == 1
    assert metrics["oracle.step_us"] == pytest.approx(2.0)
    assert metrics["coefficients.exponent_integrand.calls"] == 7
    assert metrics["solver.simulate.s"] == 0.0


def test_digest_check_catches_a_moved_value_and_tolerates_round_off():
    ref = {
        "rows": 2,
        "finite": True,
        "columns": {"re_psi": [3.0, 4.0], "im_psi": [1e-17, 0.0], "abs_psi": [3.0, 4.0]},
    }
    drifted = json.loads(json.dumps(ref))
    drifted["columns"]["re_psi"][1] *= 1 + 1e-12
    drifted["columns"]["im_psi"] = [3e-17, -2e-17]
    errors: list[str] = []
    workloads.compare_digest(drifted, ref, errors)
    assert errors == []
    moved = json.loads(json.dumps(ref))
    moved["columns"]["re_psi"][1] = 4.5
    workloads.compare_digest(moved, ref, errors)
    assert len(errors) == 1 and "re_psi" in errors[0]


def test_reference_covers_both_checked_workloads():
    reference = workloads.load_reference()
    assert reference["sweep_delta_p"]["seed"] == workloads.REFERENCE_SEED
    rows = reference["sweep_delta_p"]["rows"]
    assert [row["value"] for row in rows] == [repr(v) for v in workloads.sweep_values(workloads.REFERENCE_SEED)]
    assert any(row["verdict"] == "clean" for row in rows)
    assert reference["run_default"]["snapshots"]["rows"] > 0
