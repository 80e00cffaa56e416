"""Outside-in tracing of one eitmem CLI invocation, and the per-layer metrics drawn from it.

Nothing under src/ knows about this module. ``install`` replaces module
attributes with wrappers: for each layer function it wraps the name its
callers look up at call time, which is the binding in the caller's own
module when the caller imported the function by name. A wrapped span
records (name, start, end, parent); all spans of one invocation carry that
invocation's id. Spans stay in memory until the child process writes them
out at exit. A binding that no longer exists is listed as absent, so code
may be deleted or renamed without breaking the benchmark.
"""

from __future__ import annotations

import functools
import os
import re
import statistics
import sys
import time

SPAN = "span"  # time every call
SPAN_BYTES = "span_bytes"  # time every call, and add the size of the file it wrote
COUNT = "count"  # count calls only; too many to time without moving the result
STEPS = "steps"  # add the step count the callee returns as its first item

# (module the caller reads the name from, attribute, metric name, kind)
BINDINGS = (
    ("eitmem.cli", "oracle_initial_state", "cli.oracle_initial_state", SPAN),
    ("eitmem.cli", "check_regime", "model.check_regime", SPAN),
    ("eitmem.cli", "exponent_integrand", "coefficients.exponent_integrand", COUNT),
    ("eitmem.solver", "simulate", "solver.simulate", SPAN),
    ("eitmem.solver", "check_regime", "model.check_regime", SPAN),
    ("eitmem.solver", "accumulate_exponent", "solver.accumulate_exponent", SPAN),
    ("eitmem.solver", "exponent_integrand", "coefficients.exponent_integrand", COUNT),
    ("eitmem.solver", "apply_evolution", "solver.apply_evolution", SPAN),
    ("eitmem.solver", "inverse_transform", "solver.inverse_transform", SPAN),
    ("eitmem.solver", "_check_wraparound", "solver.check_wraparound", SPAN),
    ("eitmem.solver", "reconstruct", "solver.reconstruct", SPAN),
    ("eitmem.solver", "write_snapshots_csv", "solver.write_snapshots_csv", SPAN_BYTES),
    ("eitmem.solver", "write_coefficient_csv", "solver.write_coefficient_csv", SPAN),
    ("eitmem.analysis", "accumulate_exponent", "analysis.accumulate_exponent", SPAN),
    ("eitmem.analysis", "assemble_summary", "analysis.assemble_summary", SPAN),
    ("eitmem.analysis", "predict_output", "analysis.predict_output", SPAN),
    ("eitmem.analysis", "track_pulse", "analysis.track_pulse", SPAN),
    ("eitmem.analysis", "measure_distortion", "analysis.measure_distortion", SPAN),
    ("eitmem.oracle", "integrate_reduced", "oracle.integrate_reduced", SPAN),
    ("eitmem.oracle", "_substeps", "oracle.steps", STEPS),
    ("eitmem.oracle", "expm", "oracle.expm", SPAN),
    ("eitmem.oracle", "compare_to_adiabatic", "oracle.compare_to_adiabatic", SPAN),
    ("eitmem.oracle", "write_oracle_csv", "oracle.write_oracle_csv", SPAN_BYTES),
)

# Packages whose cumulative import time -X importtime reports, by metric.
IMPORTS = {
    "import.eitmem_s": "eitmem",
    "import.eitmem.oracle_s": "eitmem.oracle",
    "import.eitmem.analysis_s": "eitmem.analysis",
}

# Every per-layer metric, with its unit, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("import.eitmem_s", "s"),
    ("import.eitmem.oracle_s", "s"),
    ("import.eitmem.analysis_s", "s"),
    ("solver.write_snapshots_csv.s", "s"),
    ("solver.write_snapshots_csv.bytes", "bytes"),
    ("solver.write_coefficient_csv.s", "s"),
    ("oracle.write_oracle_csv.s", "s"),
    ("oracle.write_oracle_csv.bytes", "bytes"),
    ("solver.simulate.s", "s"),
    ("solver.simulate.self_s", "s"),
    ("solver.apply_evolution.s", "s"),
    ("solver.inverse_transform.s", "s"),
    ("solver.check_wraparound.s", "s"),
    ("solver.reconstruct.s", "s"),
    ("solver.accumulate_exponent.s", "s"),
    ("solver.accumulate_exponent.calls", "count"),
    ("analysis.accumulate_exponent.s", "s"),
    ("analysis.accumulate_exponent.calls", "count"),
    ("coefficients.exponent_integrand.calls", "count"),
    ("analysis.assemble_summary.s", "s"),
    ("analysis.predict_output.s", "s"),
    ("analysis.track_pulse.s", "s"),
    ("analysis.measure_distortion.s", "s"),
    ("model.check_regime.s", "s"),
    ("oracle.integrate_reduced.s", "s"),
    ("oracle.expm.s", "s"),
    ("oracle.expm.calls", "count"),
    ("oracle.field_step.s", "s"),
    ("oracle.steps", "count"),
    ("oracle.step_us", "us"),
    ("oracle.compare_to_adiabatic.s", "s"),
    ("cli.oracle_initial_state.s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Recorder:
    """Spans and counters of one invocation, held in memory."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        record = [name, _now(), 0, self.stack[-1] if self.stack else None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            record[2] = _now()

    def count(self, name: str, n: int = 1):
        self.counters[name] = self.counters.get(name, 0) + n

    def to_dict(self) -> dict:
        return {
            "spans": [
                {
                    "invocation": self.invocation,
                    "id": i,
                    "parent": parent,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                }
                for i, (name, start, end, parent) in enumerate(self.spans)
            ],
            "counters": self.counters,
            "absent": self.absent,
        }


def _wrap(recorder: Recorder, fn, metric: str, kind: str):
    if kind == COUNT:
        def wrapper(*args, **kwargs):
            recorder.count(metric + ".calls")
            return fn(*args, **kwargs)
    elif kind == STEPS:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            recorder.count(metric, int(result[0]))
            return result
    else:
        def wrapper(*args, **kwargs):
            result = recorder.span(metric, fn, *args, **kwargs)
            if kind == SPAN_BYTES:
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                if path is not None and os.path.isfile(path):
                    recorder.count(metric + ".bytes", os.path.getsize(path))
            return result
    return functools.wraps(fn)(wrapper)


def install(recorder: Recorder):
    """Wrap every binding in BINDINGS that exists; list the others as absent."""
    for module_name, attr, metric, kind in BINDINGS:
        fn = getattr(sys.modules.get(module_name), attr, None)
        if not callable(fn):
            recorder.absent.append(f"{module_name}.{attr}")
            continue
        setattr(sys.modules[module_name], attr, _wrap(recorder, fn, metric, kind))


# ------------------------------------------------------ parent-side analysis

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| \s*(\S+)\s*$")


def import_times(stderr_text: str) -> dict[str, float]:
    """Cumulative import time in seconds per module, from -X importtime output."""
    out = {}
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(3)] = int(m.group(2)) * 1e-6
    return out


def span_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and calls.

    Self time is a span's duration minus the durations of its direct children.
    """
    child_ns = [0] * len(spans)
    for sp in spans:
        if sp["parent"] is not None:
            child_ns[sp["parent"]] += sp["end_ns"] - sp["start_ns"]
    totals: dict[str, dict[str, float]] = {}
    for sp, children in zip(spans, child_ns):
        t = totals.setdefault(sp["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = sp["end_ns"] - sp["start_ns"]
        t["s"] += duration * 1e-9
        t["self_s"] += (duration - children) * 1e-9
        t["calls"] += 1
    return totals


def layer_metrics(trace: dict, imports: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced invocation; zero where a layer did no work.

    trace.overhead_s needs the untraced runs too, so the caller adds it.
    """
    totals = span_totals(trace["spans"])
    counters = trace["counters"]
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in IMPORTS:
            out[name] = imports.get(IMPORTS[name], 0.0)
        elif suffix in ("s", "self_s", "calls") and name not in counters:
            out[name] = float(totals.get(base, {}).get(suffix, 0.0))
        else:
            out[name] = float(counters.get(name, 0))
    # The oracle's field step is whatever integrate_reduced does outside expm.
    integrate = totals.get("oracle.integrate_reduced", {})
    out["oracle.field_step.s"] = integrate.get("self_s", 0.0)
    steps = out["oracle.steps"]
    out["oracle.step_us"] = integrate.get("s", 0.0) / steps * 1e6 if steps else 0.0
    del out["trace.overhead_s"]
    return out


def median_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    names = per_invocation[0].keys() if per_invocation else ()
    return {name: statistics.median(m[name] for m in per_invocation) for name in names}
