"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import fglthh.cli  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, SPANS, Tracer  # noqa: E402

SMALL_JOBS = (
    ["cohomology", "--flavor", "mu-moving", "--max-degree", "14", "-N", "7",
     "--format", "json"],
    ["verify", "--flavor", "bp", "--prime", "3", "--max-degree", "24",
     "--format", "json"],
)
REPEATING = ("exactalg.snf_calls", "exactalg.snf_cells", "exactalg.snf_transform_bits",
             "exactalg.mul_ops", "cohomology.staircase_calls",
             "cohomology.staircase_reuse", "exactalg.poly_mul_calls",
             "thh.apply_calls")


def _bindings():
    """Every name in every fglthh module and every class attribute that
    the tracer's targets refer to, mapped to the object it holds."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "fglthh" or name.startswith("fglthh."):
            out.update({(name, key): value for key, value in vars(mod).items()})
    for targets in SPANS.values():
        for target in targets:
            modname, qualname = target.split(":")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(sys.modules[f"fglthh.{modname}"], cls_name)
                out[(cls, attr)] = cls.__dict__[attr]
    return out


def _traced_main(argv):
    tracer = Tracer()
    with contextlib.redirect_stdout(io.StringIO()) as out, tracer.installed():
        status = fglthh.cli.main(argv)
    return tracer, status, out.getvalue()


def test_every_binding_is_wrapped_then_restored():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        from fglthh import cohomology, exactalg, verify
        assert cohomology.subquotient_group is not before[("fglthh.exactalg",
                                                           "subquotient_group")]
        assert cohomology.subquotient_group is exactalg.subquotient_group
        assert verify.staircase is cohomology.staircase
        assert verify.staircase is not before[("fglthh.cohomology", "staircase")]
        assert exactalg.GradedPoly.__mul__ is not before[(exactalg.GradedPoly, "__mul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_install_restores_when_a_target_is_missing():
    before = _bindings()
    tracer = Tracer(spans={**SPANS, "exactalg.missing": ["exactalg:no_such_function"]})
    with pytest.raises(AttributeError):
        with tracer.installed():
            pass
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []


@pytest.mark.parametrize("argv", SMALL_JOBS, ids=lambda a: a[0])
def test_tracing_changes_no_output_and_self_time_fits_wall(argv, capsys):
    status = fglthh.cli.main(argv)
    plain = capsys.readouterr().out
    tracer, traced_status, traced = _traced_main(argv)
    assert (traced_status, traced) == (status, plain)
    summary = tracer.summary()
    for layer in LAYERS:
        assert summary["layer_self_s"][layer] <= summary["layer_wall_s"][layer] + 1e-9
    assert sum(summary["self_s"].values()) <= summary["layer_wall_s"]["cli"] + 1e-9
    assert summary["calls"]["cli.command"] == 1


def test_self_time_excludes_nested_spans():
    tracer = Tracer(spans={})
    outer = tracer._wrap("cohomology.outer", lambda: inner() or time.sleep(0.02))
    inner = tracer._wrap("exactalg.inner", lambda: time.sleep(0.05))
    outer()
    assert tracer.self_s["exactalg.inner"] >= 0.05
    assert 0.02 <= tracer.self_s["cohomology.outer"] < 0.05
    assert tracer.layer_wall_s["cohomology"] >= 0.07
    assert tracer.layer_wall_s["exactalg"] == tracer.self_s["exactalg.inner"]


def _traced_counts():
    env = run.child_env()
    run.WORK.mkdir(exist_ok=True)
    traces = []
    for argv in SMALL_JOBS:
        trace_path = run.WORK / f"test-{argv[0]}.trace.json"
        result = run.run_job(argv[0], run.cli_cmd(argv, trace_path), env,
                             time.perf_counter() + 120, trace_path)
        assert result.status == 0
        traces.append(result.trace)
    merged = run._merge_traces(traces)
    return {name: run.TRACE_METRICS[name][1](merged) for name in REPEATING}


def test_counts_repeat_exactly_across_processes():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert all(first[name] > 0 for name in REPEATING)


def test_resolve_refuses_a_missing_or_foreign_package(monkeypatch):
    env = run.child_env()
    info = run.resolve_package(env)
    assert Path(info["file"]).is_relative_to(run.SRC)
    with pytest.raises(run.BenchmarkError):
        run.resolve_package({**env, "PYTHONPATH": str(BENCH / "no-such-dir")})
    monkeypatch.setattr(run, "SRC", BENCH)
    with pytest.raises(run.BenchmarkError):
        run.resolve_package(env)


def test_child_env_is_pinned(monkeypatch):
    monkeypatch.setenv("FGLTHH_THREADS", "4")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.child_env()
    assert "FGLTHH_THREADS" not in env
    assert env["PYTHONHASHSEED"] == run.HASH_SEED
    assert env["PYTHONPATH"] == str(run.SRC)


def test_reference_covers_every_job():
    ref = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    jobs = {job for jobs in run.WORKLOADS.values() for job in jobs}
    assert set(ref) == jobs
    for job in jobs:
        assert ref[job]["argv"] == " ".join(run.job_argv(job))
        assert ref[job]["exit"] == 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    for workload, long_jobs in run.LONG_JOBS.items():
        assert set(long_jobs) == {"job_s.major", "job_s.minor"}
        assert set(long_jobs.values()) <= set(run.WORKLOADS[workload])
