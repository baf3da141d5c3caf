"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 bench/smoke.py

Runs every workload once untraced and once traced with ``--tiny`` and
checks that the result line names exactly the metrics of BENCHMARK.json,
each with its unit and a finite value, and that every job passed its
checks.  Then checks that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and the benchmark.
Exits non-zero on the first mismatch.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics(spec, workload, trace):
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise AssertionError(f"{workload} trace={trace}: {proc.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        raise AssertionError(f"{workload} trace={trace}: missing {sorted(set(wanted) - set(got))}, "
                             f"extra {sorted(set(got) - set(wanted))}")
    for name, unit in wanted.items():
        value = got[name]["value"]
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if got[name]["unit"] != unit or not finite:
            raise AssertionError(f"{workload}: {name} = {got[name]}, want unit {unit}")


def check_refuses_without_source():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = _run(bare, "spectral-2d", 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("benchmark ran without heatctl sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(spec, workload, trace)
            print(f"ok {workload} trace={trace}")
    check_refuses_without_source()
    print("ok refuses without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
