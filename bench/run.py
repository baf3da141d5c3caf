"""heatctl benchmark: one workload per invocation, metrics as one JSON line.

    python3 bench/run.py --workload {spectral-2d,control-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/heatctl`` and ``configs/``
next to ``bench/``).  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  The lines before it record the
environment and the run's details.  See ``bench/README.md``.

This file uses the standard library only; heatctl runs in child processes.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectral-2d", "control-mix")

# Job-time percentile of the tail: the highest with at least 10 jobs above
# it in the shortest run seen at the default length (7 rounds of 9 jobs),
# fixed so that it does not move with the job count.  It is also the middle
# of the top cost tier, the costliest third of the jobs, so it is a median
# over that tier's three slots.
TAIL_LEVEL = 83

# Set-up samples per run: 2 before the timed loop, and one after the first
# round that passes the middle of each fifth of the run, so that their
# median sees the machine's speed over the whole run.  The samples taken
# between rounds are kept out of the timed duration.
SETUP_BEFORE = 2
SETUP_IN_LOOP = 5
CLI_TINY = ("bounds_catalog.json", "synthesize_scalar.json")
WORKER_TIMEOUT_S = 170.0
# one BLAS thread: at n~481 a second thread measured no faster and noisier
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_SPANS = ("cli.main", "runio.write_outputs")
PROBE = """
import json, importlib.metadata as md, platform, time
t0 = time.perf_counter()
import heatctl
import_s = time.perf_counter() - t0
import numpy
blas = {}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    pass
def version(name):
    try:
        return md.version(name)
    except md.PackageNotFoundError:
        return None
print(json.dumps({"import_s": import_s, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": version("scipy"),
                  "heatctl": heatctl.__version__,
                  "blas": {k: blas.get(k) for k in ("name", "version")}}))
"""


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------ environment

def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """Commit of the checkout, read without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, probe):
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": probe["python"], "numpy": probe["numpy"], "scipy": probe["scipy"],
        "heatctl": probe["heatctl"], "blas": probe["blas"],
        "threads": {v: env.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS", "HEATCTL_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def preflight():
    if not (ROOT / "src" / "heatctl" / "__init__.py").is_file():
        raise BenchError(f"no heatctl source under {ROOT / 'src'}")
    if not cli_configs(ROOT):
        raise BenchError(f"no configs under {ROOT / 'configs'}")


def run_child(args, timeout=60.0):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def timed_child(args):
    t0 = time.perf_counter()
    run_child(args)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ cli
# The traced run ends with in-process runs of the shipped configs.

def cli_configs(root, names=None):
    """(experiment, path relative to root) of the shipped configs, by file name."""
    out = []
    for path in sorted((Path(root) / "configs").glob("*.json")):
        if names is None or path.name in names:
            with open(path) as fh:
                out.append((json.load(fh)["experiment"], f"configs/{path.name}"))
    return out


def cli_work_dir():
    """Output directory of this process's CLI runs, inside the checkout."""
    return ROOT / ".bench_work" / f"cli-{os.getpid()}"


def cli_out_dir(config_path):
    """Fresh output directory of one config."""
    out = cli_work_dir() / Path(config_path).stem
    shutil.rmtree(out, ignore_errors=True)
    return str(out)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_cli_outputs(code, out_dir, first):
    """Exit code, ``run_meta.json`` hashes, and byte identity with the first repeat.

    ``first`` maps file name to SHA-256 from the first run of this config in
    the invocation; it is filled on that run.  Returns an error or None.
    """
    if code != 0:
        return f"exit code {code}"
    try:
        meta = json.loads((Path(out_dir) / "run_meta.json").read_text())
        digests = {name: _sha256(Path(out_dir) / name) for name in meta["outputs"]}
        digests["run_meta.json"] = _sha256(Path(out_dir) / "run_meta.json")
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable artifacts: {exc}"
    for name, digest in meta["outputs"].items():
        if digests[name] != digest:
            return f"{name}: SHA-256 does not match run_meta.json"
    if not first:
        first.update(digests)
    elif digests != first:
        return "artifacts differ from the first repeat"
    return None


# --------------------------------------------------------------- worker

def _worker_args(workload, seed, seconds, mode, tiny):
    args = [str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--mode", mode]
    return args + (["--tiny"] if tiny else [])


def run_worker(workload, seed, seconds, mode, tiny):
    """Start a worker; returns (set-up seconds, result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + _worker_args(workload, seed, seconds, mode, tiny),
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not ready.startswith('{"ready"'):
            raise BenchError(f"worker did not start: {ready!r}")
        result = None
        if mode != "setup":
            line = proc.stdout.readline()
            if not line.startswith('{"result"'):
                raise BenchError(f"worker gave no result: {line[:200]!r}")
            result = json.loads(line)["result"]
        proc.wait(timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        return setup_s, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def setup_samples(args, count):
    """Set-up times of ``count`` fresh workers that import heatctl, make the
    first round's inputs and stop before the first job."""
    return [run_worker(args.workload, args.seed, args.seconds, "setup", args.tiny)[0]
            for _ in range(count)]


def sample_between_rounds(args, elapsed, samples):
    """After a round, take a set-up sample if ``elapsed`` has passed the next
    of the ``SETUP_IN_LOOP`` marks of the run; returns the seconds it took."""
    if elapsed * SETUP_IN_LOOP < (len(samples) + 0.5) * args.seconds:
        return 0.0
    t0 = time.perf_counter()
    samples += setup_samples(args, 1)
    return time.perf_counter() - t0


# -------------------------------------------------------------- metrics

def percentile(values, level):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = level / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def job_times(records):
    """Job times, a failed job counting as slower than every completed one."""
    busy = sum(r["s"] for r in records)
    return [busy if r["error"] else r["s"] for r in records]


def end_to_end(run, setup_samples):
    records = run["records"]
    times = job_times(records)
    completed = sum(1 for r in records if not r["error"])
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_s.p50": (percentile(times, 50), "s"),
        "job_s.tail": (percentile(times, TAIL_LEVEL), "s"),
        "jobs_per_s": (completed / run["timed_s"], "1/s"),
        "success_ratio": (completed / len(records), "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(run, interp_s, import_s):
    """Per-layer metrics of a traced run; counts and times are per traced job."""
    trace = run["trace"]
    calls, self_s, counters = trace["calls"], trace["self_s"], trace["counters"]
    jobs = len(run["records"])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in SPAN_NAMES:
        if name in CLI_SPANS:
            # per in-process CLI run
            out[f"{name}.busy_s"] = (run["cli"]["self_s"][name] / run["cli"]["runs"], "s")
            continue
        out[f"{name}.calls"] = (calls.get(name, 0) / jobs, "count")
        out[f"{name}.busy_s"] = (self_s.get(name, 0.0) / jobs, "s")
    out["spectral.modes"] = (counters.get("spectral.modes", 0.0) / jobs, "count")
    out["geometry.gram_boxes"] = (counters.get("geometry.gram_boxes", 0.0) / jobs, "count")
    out["geometry.gram_entries_per_s"] = (
        ratio(counters.get("geometry.gram_entries", 0.0), self_s.get("geometry.gram_matrix", 0.0)),
        "1/s")
    out["uncertainty.resolvable_ratio"] = (
        ratio(counters.get("uncertainty.resolvable", 0.0),
              counters.get("uncertainty.constants", 0.0)),
        "ratio")
    out["control.refusals"] = (
        ratio(counters.get("control.refusals", 0.0), counters.get("control.attempts", 0.0)),
        "ratio")
    out["control.problems"] = (counters.get("control.problems", 0.0) / jobs, "count")
    out["linalg.eig_in_control.busy_s"] = (
        counters.get("linalg.eig_in_control_s", 0.0) / jobs, "s")
    out["linalg.eig_per_problem"] = (
        ratio(counters.get("linalg.eig_in_control", 0.0), counters.get("control.problems", 0.0)),
        "ratio")
    out["process.minor_faults"] = (counters.get("process.minor_faults", 0.0) / jobs, "count")
    out["cli.interp_s"] = (interp_s, "s")
    out["cli.import_s"] = (import_s, "s")
    traced = [r["s"] for r in run["records"]]
    untraced = [r["untraced_s"] for r in run["records"]]
    out["trace.job_s"] = (sum(traced) / jobs, "s")
    out["trace.overhead_s"] = ((sum(traced) - sum(untraced)) / jobs, "s")
    return out


def _detail(args, run, setup_samples):
    records = run["records"]
    by_slot = {}
    for r in records:
        by_slot.setdefault(f"{r['kind']}:{r['slot']}", []).append(r["s"])
    times = job_times(records)
    tail = percentile(times, TAIL_LEVEL)
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tail_level": TAIL_LEVEL, "samples": len(records),
        "jobs_above_tail": sum(1 for t in times if t > tail),
        "rounds": run["rounds"], "loop_s": run["timed_s"],
        "setup_samples_s": setup_samples,
        "slot_median_s": {k: statistics.median(v) for k, v in sorted(by_slot.items())},
        "errors": ([r["error"] for r in records if r["error"]]
                   + run.get("cli", {}).get("errors", []))[:5],
    }


# ----------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one round, for the harness smoke test")
    args = parser.parse_args(argv)
    try:
        preflight()
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        # warm-up import: compiles bytecode once, so set-up times exclude it
        probe = json.loads(run_child(["-c", PROBE]))
        interp_s = import_s = None
        if args.trace:
            samples = 1 if args.tiny else 3
            interp_s = statistics.median(timed_child(["-c", "pass"]) for _ in range(samples))
            import_s = statistics.median(json.loads(run_child(["-c", PROBE]))["import_s"]
                                         for _ in range(samples))
            setup_s, run = run_worker(args.workload, args.seed, args.seconds, "trace", args.tiny)
            setup = [setup_s]
        else:
            # the timed worker's own start is one of the samples before the loop
            setup = setup_samples(args, 0 if args.tiny else SETUP_BEFORE - 1)
            setup_s, run = run_worker(args.workload, args.seed, args.seconds, "run", args.tiny)
            setup += [setup_s] + run["setup_s"]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2

    metrics = (per_layer(run, interp_s, import_s) if args.trace
               else end_to_end(run, setup))
    cli = run.get("cli", {"runs": 0, "errors": []})
    failed = sum(1 for r in run["records"] if r["error"]) + len(cli["errors"])
    detail = _detail(args, run, setup)
    for error in detail["errors"]:
        print(f"bench: failed job: {error}", file=sys.stderr)
    print(json.dumps({"env": environment(args.seed, probe)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run["records"]) + cli["runs"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
