"""End-to-end benchmark of the fglthh command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI jobs.  One parent process runs them
as a closed loop: one job at a time, each a fresh
``python -m fglthh.cli ... --format json`` process, so every job pays the
interpreter start and the package import exactly as a CLI user does.  The
seed only shuffles the job order within a pass.  Jobs run until the next
one would end after ``--seconds``; every job runs at least once.  Each
job's time is the mean over its samples, and ``wall_s``, the time of one
pass, is the sum of those means.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
job twice per pass, untraced and then under ``traced_cli.py``, and
reports the per-layer metrics and the tracing overhead.  Every output,
traced or not, is checked against the exit code and sha256 recorded in
``reference.json`` (see ``record_reference.py``).

``--workload all`` runs every workload in turn.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = BENCH / ".work"
HASH_SEED = "0"
YARDSTICK = "yardstick"
YARDSTICK_CMD = [sys.executable, str(BENCH / "yardstick.py")]
# The host's speed drifts by up to a factor of two over minutes, longer
# than a run.  Job and set-up times are therefore scaled by YARDSTICK_S over
# the mean time of the fixed yardstick work run next to them: they read as
# seconds on a machine where the yardstick takes exactly YARDSTICK_S.
YARDSTICK_S = 1.0
SETUP_SAMPLES = 11
# A job still running this long after the run started is killed and
# counted as failed, so a run always ends within three minutes.
RUN_DEADLINE_S = 170.0

WORKLOADS = {
    "deep-cohomology": {
        "coh-moving-24": "cohomology --flavor mu-moving --max-degree 24 -N 12",
        "coh-split-24": "cohomology --flavor mu-split --max-degree 24 -N 12",
    },
    "structure-tables": {
        "struct-split-14": "structure-maps --flavor mu-split --max-n 14 -N 14",
        "sigma-split-14": "sigma --flavor mu-split --max-n 14 -N 14",
    },
    "verify-suite": {
        "verify-split-10": "verify --flavor mu-split --max-degree 10",
        "de-rham-14": "de-rham --max-degree 14 -N 12",
        "verify-bp-p2": "verify --flavor bp --prime 2 --max-degree 10",
        "coh-bp-p2": "cohomology --flavor bp --prime 2 --max-degree 10",
        "verify-bp-p3": "verify --flavor bp --prime 3 --max-degree 24",
        "coh-bp-p3": "cohomology --flavor bp --prime 3 --max-degree 24",
        "verify-bp-p5": "verify --flavor bp --prime 5 --max-degree 64",
        "coh-bp-p5": "cohomology --flavor bp --prime 5 --max-degree 64",
    },
}
# Each workload has exactly two jobs of a second or more; their times are
# reported under workload-independent names so every run has the same
# metric set.  The per-job table printed above the result names them.
LONG_JOBS = {
    "deep-cohomology": {"job_s.major": "coh-split-24", "job_s.minor": "coh-moving-24"},
    "structure-tables": {"job_s.major": "sigma-split-14", "job_s.minor": "struct-split-14"},
    "verify-suite": {"job_s.major": "verify-split-10", "job_s.minor": "de-rham-14"},
}


class BenchmarkError(Exception):
    """The benchmark cannot run here: no package, or no reference."""


def job_argv(job):
    for jobs in WORKLOADS.values():
        if job in jobs:
            return jobs[job].split() + ["--format", "json"]
    raise KeyError(job)


def child_env():
    """Environment every child runs in: the checkout's source tree first,
    no thread fan-out, a fixed hash seed."""
    env = dict(os.environ)
    env.pop("FGLTHH_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def resolve_package(env):
    """Where the children import fglthh from; refuses any other copy."""
    probe = ("import json, sys, fglthh, fglthh.cli; "
             "print(json.dumps({'file': fglthh.__file__, "
             "'python': sys.version.split()[0]}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchmarkError(f"fglthh does not import from {SRC}: "
                             f"{proc.stderr.strip().splitlines()[-1:]}")
    info = json.loads(proc.stdout)
    if not Path(info["file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"fglthh resolves to {info['file']}, outside {SRC}")
    return info


def load_reference(jobs):
    if not REFERENCE.is_file():
        raise BenchmarkError(f"missing {REFERENCE.relative_to(ROOT)}")
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    missing = [job for job in jobs if job not in ref]
    if missing:
        raise BenchmarkError(f"no reference output for {missing}")
    return ref


@dataclass
class JobRun:
    job: str
    traced: bool
    wall_s: float
    cpu_s: float
    rss_kb: int
    status: int
    digest: str
    out_bytes: int
    stderr: str
    trace: dict | None = None


def cli_cmd(argv, trace_path=None):
    if trace_path is None:
        return [sys.executable, "-m", "fglthh.cli", *argv]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_path), *argv]


def run_job(job, cmd, env, deadline, trace_path=None):
    """One fresh process; wall time from spawn to reap, rusage from wait4.
    A traced job leaves its span aggregate at ``trace_path``."""
    err = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    killer.start()
    drain.start()
    try:
        out = proc.stdout.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
    finally:
        killer.cancel()
        drain.join()
        proc.stdout.close()
        proc.stderr.close()
    trace = None
    if trace_path is not None and proc.returncode == 0:
        trace = json.loads(Path(trace_path).read_text(encoding="utf-8"))
        Path(trace_path).unlink()
    return JobRun(job, trace_path is not None, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss, proc.returncode, hashlib.sha256(out).hexdigest(),
                  len(out), err[0].decode(errors="replace") if err else "", trace)


def matches(run, expected):
    want = expected[run.job]
    return run.status == want["exit"] and run.digest == want["sha256"]


def measure_setup(env, deadline):
    """Median time of a fresh interpreter that only imports fglthh.cli.
    It is reaped by ``run_job``'s blocking wait: a wait with a timeout
    polls, and its growing sleeps would round the time up by up to 50 ms."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = run_job("setup", [sys.executable, "-c", "import fglthh.cli"], env,
                        deadline)
        if probe.status != 0:
            raise BenchmarkError(f"import fglthh.cli failed: {probe.stderr.strip()}")
        samples.append(probe.wall_s)
    return statistics.median(samples)


def run_loop(jobs, env, seed, seconds, deadline, traced=False, paired=()):
    """Closed loop over shuffled passes, one job at a time, until the next
    job would end after ``seconds``; every job runs at least once.  Each
    job in ``paired`` is preceded by a run of the yardstick.
    Returns (job runs, yardstick runs)."""
    rng = random.Random(seed)
    runs, sticks, last = [], [], {}
    end = time.perf_counter() + seconds
    WORK.mkdir(exist_ok=True)
    while True:
        order = list(jobs)
        rng.shuffle(order)
        for job in order:
            start = time.perf_counter()
            if start >= deadline or (job in last and start + last[job] > end):
                return runs, sticks
            if job in paired:
                sticks.append(run_job(YARDSTICK, YARDSTICK_CMD, env, deadline))
            argv = job_argv(job)
            runs.append(run_job(job, cli_cmd(argv), env, deadline))
            if traced:
                trace_path = WORK / f"{job}.trace.json"
                runs.append(run_job(job, cli_cmd(argv, trace_path), env, deadline,
                                    trace_path))
            last[job] = time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _merge_traces(traces):
    """Sum the span aggregates of one pass's jobs."""
    merged = {"calls": {}, "self_s": {}, "layer_self_s": {}, "layer_wall_s": {},
              "counts": {}}
    for trace in traces:
        for part in merged:
            for key, value in trace[part].items():
                if key == "snf_transform_bits":
                    merged[part][key] = max(merged[part].get(key, 0), value)
                else:
                    merged[part][key] = merged[part].get(key, 0) + value
    return merged


def _span(key, part="self_s"):
    return lambda t: t[part].get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from one pass's merged trace)
TRACE_METRICS = {
    "exactalg.snf_s": ("s", _span("exactalg.snf")),
    "exactalg.snf_calls": ("count", _span("exactalg.snf", "calls")),
    "exactalg.snf_cells": ("count", _span("snf_cells", "counts")),
    "exactalg.snf_transform_bits": ("bits", _span("snf_transform_bits", "counts")),
    "exactalg.mul_s": ("s", _span("exactalg.mul")),
    "exactalg.mul_calls": ("count", _span("exactalg.mul", "calls")),
    "exactalg.mul_ops": ("count", _span("mul_ops", "counts")),
    "exactalg.hnf_s": ("s", _span("exactalg.hnf")),
    "exactalg.subquotient_s": ("s", _span("exactalg.subquotient")),
    "exactalg.subquotient_calls": ("count", _span("exactalg.subquotient", "calls")),
    "exactalg.poly_mul_s": ("s", _span("exactalg.poly_mul")),
    "exactalg.poly_mul_calls": ("count", _span("exactalg.poly_mul", "calls")),
    "exactalg.substitute_s": ("s", _span("exactalg.substitute")),
    "exactalg.solve_s": ("s", _span("exactalg.solve")),
    "fgl.basis_s": ("s", _span("fgl.basis")),
    "fgl.rewrite_s": ("s", _span("fgl.rewrite")),
    "series.compose_s": ("s", _span("series.compose")),
    "series.inverse_s": ("s", _span("series.inverse")),
    "series.fgl_s": ("s", _span("series.fgl")),
    "algebroid.s": ("s", _span("algebroid.maps")),
    "algebroid.calls": ("count", _span("algebroid.maps", "calls")),
    "thh.table_s": ("s", _span("thh.table")),
    "thh.apply_s": ("s", _span("thh.apply")),
    "thh.apply_calls": ("count", _span("thh.apply", "calls")),
    "thh.hurewicz_s": ("s", _span("thh.hurewicz")),
    "cohomology.staircase_s": ("s", _span("cohomology.staircase")),
    "cohomology.staircase_calls": ("count", _span("cohomology.staircase", "calls")),
    "cohomology.staircase_reuse": ("ratio", lambda t: _ratio(
        t["counts"].get("staircase_distinct", 0),
        t["calls"].get("cohomology.staircase", 0))),
    "cohomology.groups_s": ("s", _span("cohomology.groups")),
    "cohomology.bar_s": ("s", _span("cohomology.bar")),
    "cohomology.de_rham_s": ("s", _span("cohomology.de_rham")),
    "verify.oracle_s": ("s", _span("verify.oracle")),
    "verify.s": ("s", _span("verify.checks")),
    "cli.command_s": ("s", _span("cli.command")),
    "cli.render_s": ("s", _span("cli.render")),
}
for _name in LAYERS:
    TRACE_METRICS[f"{_name}.self_s"] = ("s", _span(_name, "layer_self_s"))
    TRACE_METRICS[f"{_name}.wall_s"] = ("s", _span(_name, "layer_wall_s"))

END_TO_END_UNITS = {"wall_s": "s", "job_s.major": "s", "job_s.minor": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**{name: unit for name, (unit, _) in TRACE_METRICS.items()},
                   "cli.output_bytes": "bytes", "cli.cpu_s": "s",
                   "trace.overhead": "ratio"}


def _samples(runs, job, traced=False):
    return [r for r in runs if r.job == job and r.traced == traced]


def _mean_wall(runs, job, traced=False):
    return statistics.fmean(r.wall_s for r in _samples(runs, job, traced))


def end_to_end_metrics(workload, runs, scale, setup_s):
    """Means over each job's samples and the set-up time, times ``scale``;
    a pass is one sample of every job."""
    values = {"wall_s": scale * sum(_mean_wall(runs, job) for job in WORKLOADS[workload])}
    for metric, job in LONG_JOBS[workload].items():
        values[metric] = scale * _mean_wall(runs, job)
    values["setup_s"] = scale * setup_s
    values["peak_rss_mb"] = max(r.rss_kb for r in runs) / 1024
    return values


def _mean_trace(traces):
    """Average one job's span aggregates over its traced samples; counts
    repeat exactly, so their mean is the count itself."""
    return {part: {key: statistics.mean(t[part][key] for t in traces)
                   for key in traces[0][part]}
            for part in traces[0]}


def per_layer_metrics(workload, runs):
    """Per-layer values for one pass: each job's mean over its samples,
    summed over the workload's jobs."""
    jobs = WORKLOADS[workload]
    traced = {job: [r.trace for r in _samples(runs, job, traced=True)] for job in jobs}
    if not all(traced.values()) or any(t is None for ts in traced.values() for t in ts):
        return {}
    merged = _merge_traces(_mean_trace(ts) for ts in traced.values())
    values = {name: fn(merged) for name, (_, fn) in TRACE_METRICS.items()}
    values["cli.output_bytes"] = sum(_samples(runs, job)[0].out_bytes for job in jobs)
    values["cli.cpu_s"] = sum(statistics.fmean(r.cpu_s for r in _samples(runs, job))
                              for job in jobs)
    values["trace.overhead"] = _ratio(
        sum(_mean_wall(runs, job, traced=True) for job in jobs),
        sum(_mean_wall(runs, job) for job in jobs))
    return values


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    env = child_env()
    jobs = list(WORKLOADS[workload])
    expected = load_reference(jobs)
    info = resolve_package(env)
    print(f"fglthh: {info['file']} (python {info['python']})")
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds}  trace: {trace}")
    setup_s = None if trace else measure_setup(env, deadline)
    paired = () if trace else set(LONG_JOBS[workload].values())
    runs, sticks = run_loop(jobs, env, seed, seconds, deadline, trace, paired)
    if any(r.status != 0 for r in sticks):
        raise BenchmarkError("the yardstick failed")
    failed = [r for r in runs if not matches(r, expected)]
    for r in failed:
        tail = r.stderr.strip().splitlines()[-1:] if r.stderr.strip() else []
        print(f"FAILED {r.job}{' (traced)' if r.traced else ''}: exit {r.status}, "
              f"sha256 {r.digest[:12]} {tail}", file=sys.stderr)
    for job in jobs:
        mine = _samples(runs, job)
        print(f"  job_s.{job:<16} {statistics.fmean(r.wall_s for r in mine):8.3f} s"
              f"  cpu {statistics.fmean(r.cpu_s for r in mine):7.3f} s"
              f"  rss {max(r.rss_kb for r in mine) / 1024:6.1f} MB"
              f"  {mine[0].out_bytes:>8} bytes  n={len(mine)}"
              f"  samples {' '.join(f'{r.wall_s:.3f}' for r in mine)}")
    print(f"  jobs attempted: {len(runs)}  jobs failed: {len(failed)}")

    if trace:
        values, units = per_layer_metrics(workload, runs), PER_LAYER_UNITS
    else:
        stick_s = statistics.fmean(r.wall_s for r in sticks)
        scale = YARDSTICK_S / stick_s
        print(f"  yardstick {stick_s:8.3f} s  n={len(sticks)}  samples "
              f"{' '.join(f'{r.wall_s:.3f}' for r in sticks)}; times below are "
              f"scaled by {YARDSTICK_S:g} s / {stick_s:.3f} s = {scale:.4f}")
        values = end_to_end_metrics(workload, runs, scale, setup_s)
        units = END_TO_END_UNITS
    metrics = {}
    for name, unit in units.items():
        if name not in values:
            continue
        print(f"  {name:<30} {values[name]:14.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    correct = not failed and len(metrics) == len(units)
    return {"correct": correct, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
