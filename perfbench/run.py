"""eitmem benchmark: drive the CLI as a user does and time it end to end, or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from anywhere inside a checkout that holds src/eitmem. One process
(this one) starts one invocation at a time, each in a fresh interpreter
(child.py), until the next one would end past --seconds. With --trace 0 the
invocations run untraced and the end-to-end metrics are printed; with
--trace 1, traced invocations (layer wrappers of spans.py, -X importtime)
alternate with untraced ones and the per-layer metrics are printed. Every
invocation's outputs are checked (workloads.py); a nonzero exit or a failed
check counts as a failure. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A record of the run,
with the environment, every sample and the spans, is written under
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import child
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
OUT_ROOT = ROOT / ".perfbench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

# Every run ends well inside the 180 s a run may take, whatever --seconds says.
HARD_LIMIT_S = 165.0
# setup_s is a median over at least this many spawns; import-only spawns
# make up the count when the workload itself is too slow to give it.
MIN_SETUP_SAMPLES = 15
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _now() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) * 1e-9


# ------------------------------------------------------------ environment


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None  # an exported checkout, not a git repository
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ invocations


def child_env() -> dict:
    # BLAS thread variables pass through untouched: oracle_default_short
    # must show what the default thread count costs.
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns invocations of one workload plan and checks what they write."""

    def __init__(self, plan: workloads.Plan, work: Path, reference: dict, deadline: float):
        self.plan = plan
        self.work = work
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def invoke(self, mode: str) -> dict:
        """Run one child in MODE (plain, traced or setup) and return its sample."""
        index = self.count
        self.count += 1
        result_path = self.work / "child.json"
        result_path.unlink(missing_ok=True)
        shutil.rmtree(self.plan.out_dir, ignore_errors=True)
        cmd = [sys.executable]
        if mode == "traced":
            cmd += ["-X", "importtime"]
        sample_main = mode == "plain" and self.plan.workload in workloads.HOST_SCALED
        cmd += [str(CHILD), str(result_path), mode, str(index), str(int(sample_main)), "--"]
        if mode != "setup":
            cmd += list(self.plan.argv)
        sample: dict = {"index": index, "mode": mode, "errors": []}
        stdout_path, stderr_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            t_spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
            try:
                rc = subprocess.run(
                    cmd,
                    stdout=out,
                    stderr=err,
                    env=self.env,
                    cwd=self.work,
                    timeout=max(1.0, self.deadline - _now()),
                ).returncode
            except subprocess.TimeoutExpired:
                rc = None
            t_exit_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        sample["rc"] = rc
        sample["wall_s"] = (t_exit_ns - t_spawn_ns) * 1e-9
        stderr_text = stderr_path.read_text(encoding="utf-8", errors="replace")
        if rc != 0 or not result_path.is_file():
            tail = [line for line in stderr_text.splitlines() if not line.startswith("import time:")]
            reason = "timed out" if rc is None else f"exit code {rc}"
            sample["errors"].append(f"{reason}: {' | '.join(tail[-3:])}")
            return sample
        with open(result_path, encoding="utf-8") as fh:
            record = json.load(fh)
        if not record["sampler_readings_ns"]:
            sample["errors"].append("the host-speed sampler took no reading")
            return sample
        # Every time leaves out what the child's host-speed sampler took.
        sample["wall_s"] -= record["sampler_ns"] * 1e-9
        sample["setup_s"] = (record["t_imported_ns"] - t_spawn_ns - record["sampler_import_ns"]) * 1e-9
        sample["host_s"] = statistics.fmean(record["sampler_readings_ns"]) * 1e-9
        sample["peak_rss_mb"] = record["maxrss_kb"] / 1024.0
        if mode == "setup":
            return sample
        main_ns = record["t_main_end_ns"] - record["t_main_start_ns"] - record["sampler_main_ns"]
        sample["solve_s"] = main_ns * 1e-9
        outcome = workloads.check(self.plan, self.reference)
        sample["errors"] += outcome.errors
        sample["details"] = outcome.details
        if mode == "traced":
            trace = record["trace"]
            sample["trace"] = trace
            sample["layers"] = spans.layer_metrics(trace, spans.import_times(stderr_text))
        return sample


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    start = _now()
    work = OUT_ROOT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.prepare(workload, seed, work)
    runner = Runner(plan, work, reference, start + HARD_LIMIT_S)
    try:
        # Untimed: compiles bytecode and warms the file cache, which a
        # user's repeated runs never pay again.
        warmup = runner.invoke("setup")
        probe_s = warmup["wall_s"]
        modes = ("plain", "traced") if trace else ("plain",)
        samples: list[dict] = []
        while True:
            samples.append(runner.invoke(modes[len(samples) % len(modes)]))
            elapsed = _now() - start
            if elapsed > HARD_LIMIT_S / 2 or samples[-1]["rc"] is None:
                break
            if len(samples) >= len(modes):
                predicted = statistics.median(s["wall_s"] for s in samples)
                # Leave time for the import-only spawns that top up setup_s.
                if not trace:
                    predicted += max(0, MIN_SETUP_SAMPLES - len(samples) - 1) * probe_s
                if elapsed + predicted > seconds:
                    break
        # Import-only spawns top setup_s up to its minimum count, then fill
        # what is left of the run.
        probes = []
        if not trace:
            have = sum("setup_s" in s for s in samples)
            while _now() - start < HARD_LIMIT_S / 2 and (
                have + len(probes) < MIN_SETUP_SAMPLES or _now() - start + probe_s <= seconds
            ):
                probes.append(runner.invoke("setup"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": list(plan.argv),
        "elapsed_s": _now() - start,
        "warmup": warmup,
        "samples": samples,
        "setup_probes": probes,
    }


# ---------------------------------------------------------------- metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def scaled(sample: dict, name: str, by_host: bool = True) -> float:
    """A sample's time, scaled to the reference host speed (child.py) if by_host."""
    return sample[name] * child.REFERENCE_S / sample["host_s"] if by_host else sample[name]


def end_to_end_samples(run: dict) -> dict[str, list[float]]:
    ok = [s for s in run["samples"] if not s["errors"]]
    spawns = ok + [s for s in run["setup_probes"] if not s["errors"]]
    by_host = run["workload"] in workloads.HOST_SCALED
    return {
        "wall_s": [scaled(s, "wall_s", by_host) for s in ok],
        "setup_s": [scaled(s, "setup_s") for s in spawns],
        "solve_s": [scaled(s, "solve_s", by_host) for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
    }


def end_to_end_metrics(run: dict) -> dict[str, float]:
    """wall_s and solve_s are means per invocation; setup_s and peak_rss_mb are medians.

    Times are scaled to the reference host speed (child.py), setup_s on
    every workload and wall_s and solve_s on those in workloads.HOST_SCALED:
    on a shared host whose speed swings by up to 2x for spells longer than a
    run, unscaled times measure the host more than the program (README.md
    gives the measurements). A mean time per invocation is the inverse of
    invocations per second; it was steadier from run to run than the median.
    """
    samples = end_to_end_samples(run)
    return {
        "wall_s": _mean(samples["wall_s"]),
        "setup_s": _median(samples["setup_s"]),
        "solve_s": _mean(samples["solve_s"]),
        "peak_rss_mb": _median(samples["peak_rss_mb"]),
        "ok_ratio": len(samples["wall_s"]) / len(run["samples"]),
    }


def per_layer_metrics(run: dict) -> dict[str, float]:
    ok = [s for s in run["samples"] if not s["errors"]]
    traced = [s["layers"] for s in ok if s["mode"] == "traced"]
    out = spans.median_metrics(traced) if traced else {name: 0.0 for name, _ in spans.PER_LAYER}
    solve = {mode: [s["solve_s"] for s in ok if s["mode"] == mode] for mode in ("plain", "traced")}
    out["trace.overhead_s"] = _mean(solve["traced"]) - _mean(solve["plain"])
    return out


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(run: dict, metrics: dict[str, float], units: dict[str, str]) -> list[str]:
    """Human-readable lines for one workload run."""
    samples = run["samples"]
    failed = [s for s in samples if s["errors"]]
    lines = [
        f"workload {run['workload']} seed {run['seed']} trace {int(run['trace'])}: "
        f"{len(samples)} invocations in {run['elapsed_s']:.1f} s, {len(failed)} failed "
        f"(fail_ratio {len(failed) / len(samples):.3g})"
    ]
    host = [s["host_s"] for s in samples if "host_s" in s]
    if host:
        lines.append(
            f"  host-speed reading (child.py, reference {child.REFERENCE_S:g} s): "
            f"median {statistics.median(host):.4g} s, min {min(host):.4g}, max {max(host):.4g}"
        )
    by_metric = {} if run["trace"] else end_to_end_samples(run)
    raw = {name: [s[name] for s in samples if not s["errors"]] for name in ("wall_s", "solve_s")}
    for name, value in metrics.items():
        line = f"  {name:<40} {value:>14.6g} {units[name]}"
        values = by_metric.get(name)
        if values:
            q1, q3 = _quartiles(values)
            line += (
                f"   n {len(values)}, mean {statistics.fmean(values):.4g}, min {min(values):.4g}, "
                f"median {statistics.median(values):.4g}, quartiles {q1:.4g} .. {q3:.4g}"
            )
            # A tail percentile is shown only with ten samples beyond it.
            if len(values) >= 100:
                line += f", p90 {statistics.quantiles(values, n=10)[-1]:.4g}"
            if raw.get(name):
                line += f"; unscaled mean {statistics.fmean(raw[name]):.4g}"
        lines.append(line)
    for s in samples:
        if s.get("details"):
            lines.append(f"  invocation {s['index']} details: {json.dumps(s['details'])}")
            break
    absent = next((s["trace"]["absent"] for s in samples if "trace" in s), [])
    if absent:
        lines.append(f"  absent layers (wrapped name not found): {', '.join(absent)}")
    for s in failed[:3]:
        lines.append(f"  invocation {s['index']} failed: {'; '.join(s['errors'])[:400]}")
    return lines


# ------------------------------------------------------------------- main


def run_one(workload: str, seed: int, seconds: float, trace: bool, env: dict, reference: dict):
    run = measure(workload, seed, seconds, trace, reference)
    table = spans.PER_LAYER if trace else END_TO_END
    units = dict(table)
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    metrics = {name: metrics[name] for name, _ in table}
    for line in report(run, metrics, units):
        print(line)
    run["environment"] = env
    run["metrics"] = metrics
    OUT_ROOT.mkdir(exist_ok=True)
    record = OUT_ROOT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(run, indent=1) + "\n", encoding="utf-8")
    samples = run["samples"]
    failed = sum(bool(s["errors"]) for s in samples)
    probe_failed = any(s["errors"] for s in [run["warmup"]] + run["setup_probes"])
    return {
        "correct": failed == 0 and not probe_failed,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eitmem" / "cli.py").is_file():
        print(f"error: no eitmem sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    env = environment()
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"blas {env['blas']['name']} {env['blas']['version']}, thread vars "
        f"{ {k: v for k, v in env['blas_thread_env'].items() if v is not None} }, "
        f"nproc {env['nproc']}, cpu {env['cpu_model']}, commit {env['git_commit']}"
    )
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        name: run_one(name, args.seed, args.seconds, bool(args.trace), env, reference)
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
