"""Benchmark worker: one process that imports heatctl and runs a job stream.

Started by ``run.py``.  It prints one JSON line when it is ready (after the
import and the input generation of the first round), then, unless it was
started for set-up timing only, runs whole rounds of jobs until the time is
up and prints one JSON result line.  The workload is a closed loop with one
client: each job starts when the previous one has been checked.  An untraced
run also times fresh set-up processes between some rounds, outside the loop
time.  A traced run ends with in-process CLI runs of the shipped configs, so
that the ``cli`` and ``runio`` layers are measured too.
"""

import argparse
import json
import resource
import shutil
import sys
import time
import traceback

import heatctl  # the import is part of the measured set-up

import jobs
import tracing
from run import (CLI_TINY, ROOT, check_cli_outputs, cli_configs, cli_out_dir, cli_work_dir,
                 sample_between_rounds)

# each shipped config runs this many times in a traced run; the repeats
# must write byte-identical artifacts
CLI_REPEATS = 2


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(job):
    """Run one job; returns (seconds, output, error or None)."""
    t0 = time.perf_counter()
    try:
        out = jobs.JOBS[job["kind"]](job)
    except Exception as exc:  # a raising job is a failed job, and the run goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def _check_job(job, out):
    try:
        jobs.CHECKS[job["kind"]](job, out)
    except jobs.CheckFailed as exc:
        return f"check: {exc}"
    return None


def _traced_cli_runs(tracer, seed, tiny):
    """Run every shipped config in process with tracing on; returns (runs, errors)."""
    from heatctl import cli  # imported before the tracer was installed

    runs, errors = 0, []
    tracer.job = -1  # the spans of the CLI runs belong to no job
    for experiment, path in cli_configs(ROOT, CLI_TINY if tiny else None):
        first = {}
        for _ in range(CLI_REPEATS):
            out_dir = cli_out_dir(path)
            argv = [experiment, "--config", path, "--out", out_dir, "--seed", str(seed)]
            tracer.enabled = True
            try:
                code = cli.main(argv)
            finally:
                tracer.enabled = False
            runs += 1
            error = check_cli_outputs(code, out_dir, first)
            if error:
                errors.append(f"{path}: {error}")
    shutil.rmtree(cli_work_dir(), ignore_errors=True)
    return runs, errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=tuple(jobs.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    rounds = jobs.ROUNDS[args.workload]
    pending = rounds(args.seed, 0, args.tiny)
    print(json.dumps({"ready": True}), flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import heatctl.cli  # noqa: F401  (loaded so that the tracer wraps cli.main)
        tracer = tracing.Tracer()
        tracer.install()

    def run_checked(job, traced=False):
        """Time one job, then check it with tracing off."""
        if traced:
            tracer.start_job(len(records))
            tracer.enabled = True
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        seconds, out, error = _run_job(job)
        if traced:
            tracer.enabled = False
            tracer.end_job()
            tracer.counters["process.minor_faults"] += (
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        return seconds, error or _check_job(job, out)

    records, setup = [], []
    rnd, paused = 0, 0.0
    start = time.perf_counter()
    while True:
        for job in pending:
            record = {"slot": job["slot"], "kind": job["kind"]}
            if tracer is None:
                record["s"], record["error"] = run_checked(job)
            else:
                # traced and untraced runs of the same job, alternating which goes first
                order = (True, False) if len(records) % 2 == 0 else (False, True)
                runs = {traced: run_checked(job, traced) for traced in order}
                record["s"], record["untraced_s"] = runs[True][0], runs[False][0]
                record["error"] = runs[True][1] or runs[False][1]
            records.append(record)
        rnd += 1
        elapsed = time.perf_counter() - start - paused
        if tracer is None:
            paused += sample_between_rounds(args, elapsed, setup)
        # stop when another round would end more than half a round past the time
        if elapsed + 0.5 * elapsed / rnd >= args.seconds or args.tiny:
            break
        pending = rounds(args.seed, rnd, args.tiny)

    result = {"records": records, "timed_s": elapsed, "rounds": rnd, "setup_s": setup,
              "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        # the job metrics are taken before the CLI runs add to the same names
        result["trace"] = {"calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
                           "counters": dict(tracer.counters)}
        cli_runs, cli_errors = _traced_cli_runs(tracer, args.seed, args.tiny)
        result["cli"] = {"runs": cli_runs, "errors": cli_errors,
                         "self_s": {name: tracer.self_s.get(name, 0.0)
                                    for name in ("cli.main", "runio.write_outputs")}}
        tracer.write(ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
