"""Record the outputs the benchmark's checks compare against, into reference.json.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right: it runs
run_default and sweep_delta_p (seed REFERENCE_SEED) once each and stores the
summary.json leaves, the snapshots.csv digest and the sweep.csv rows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    work = run.OUT_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    reference = {"recorded_at": {"git_commit": run.git_commit(), "source_sha256": run.source_sha256()}}
    try:
        for workload in ("run_default", "sweep_delta_p"):
            plan = workloads.prepare(workload, workloads.REFERENCE_SEED, work / workload)
            cmd = [sys.executable, "-m", "eitmem.cli", *plan.argv]
            subprocess.run(cmd, env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
            if workload == "run_default":
                with open(plan.out_dir / "summary.json", encoding="utf-8") as fh:
                    summary = workloads.flatten(json.load(fh))
                reference[workload] = {
                    "summary": summary,
                    "snapshots": workloads.csv_digest(plan.out_dir / "snapshots.csv"),
                }
            else:
                reference[workload] = {
                    "seed": workloads.REFERENCE_SEED,
                    "rows": workloads.read_sweep(plan.out_dir / "sweep.csv"),
                }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
