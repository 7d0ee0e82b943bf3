import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

import fglthh
import fglthh.algebroid
import fglthh.cli
import fglthh.fgl
from fglthh.cli import Report, emit_report, main, write_json
from fglthh.cohomology import SMALL_PRIMES
from fglthh.exactalg import GradedPoly
from fglthh.fgl import TYPICAL_MAX_N
from fglthh.series import SeriesError
from fglthh.thh import ExtElement


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sigma_bp_text(capsys):
    code, out, _ = run(capsys, "sigma", "--flavor", "bp", "--prime", "2",
                       "--max-n", "3", "--format", "text")
    assert code == 0
    assert "sigma(v_1) = 2*lambda_1" in out.splitlines()[1:]
    assert "sigma(lambda_3) = 0" in out


def test_sigma_tex_line(capsys):
    code, out, _ = run(capsys, "sigma", "--flavor", "mu-moving", "--max-n", "1",
                       "--truncation", "4", "--format", "tex")
    assert code == 0
    assert "\\begin{align*}" in out
    flat = re.sub(r"[\s&]", "", out)
    assert "\\sigma(x_1)=-2\\lambda'_1" in flat


def test_tex_braces_multi_digit_subscripts(capsys):
    code, out, _ = run(capsys, "sigma", "--flavor", "mu-moving", "--max-n", "10",
                       "-N", "10", "--format", "tex")
    assert code == 0
    assert "\\sigma(x_{10}) &=" in out
    assert "\\sigma(\\lambda'_{10}) &= 0" in out
    code, out, _ = run(capsys, "structure-maps", "--flavor", "mu-split",
                       "--max-n", "10", "-N", "10", "--format", "tex")
    assert code == 0
    assert "\nx_{10} &=" in out
    assert "\\eta_R(x_{10}) &=" in out
    assert "_10" not in out


def readme_commands():
    """The ``fglthh ...`` lines of README.md's "Command line" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return [line.split()[1:] for line in section.splitlines() if line.startswith("fglthh ")]


def test_readme_command_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if argv[:3] == ["sigma", "--flavor", "bp"]:
            assert "sigma(v_1) = 2*lambda_1" in out


@pytest.mark.parametrize("command", ["structure-maps", "sigma"])
def test_json_run_renders_no_text_or_tex(capsys, monkeypatch, command):
    def refuse(*_args):
        raise AssertionError("a JSON run rendered text or TeX")

    monkeypatch.setattr(fglthh.cli, "poly_tex", refuse)
    monkeypatch.setattr(fglthh.cli, "ext_tex", refuse)
    monkeypatch.setattr(GradedPoly, "__str__", refuse)
    monkeypatch.setattr(ExtElement, "__str__", refuse)
    monkeypatch.setattr(GradedPoly, "render", refuse)
    monkeypatch.setattr(ExtElement, "render", refuse)
    code, out, _ = run(capsys, command, "--flavor", "mu-split", "--max-n", "3",
                       "-N", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]


def test_cohomology_json_degree_nine(capsys):
    code, out, _ = run(capsys, "cohomology", "--flavor", "mu-moving",
                       "--max-degree", "10", "--truncation", "5",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "fgl-thh/1"
    table = {entry["degree"]: entry for entry in doc["results"]["cohomology"]}
    assert table[9]["invariant_factors"] == [2, 240]
    assert table[9]["primary"] == [2, 3, 5, 16]
    assert table[0]["free_rank"] == 1
    assert table[5]["invariant_factors"] == [12]
    # the finer exterior-count breakdown: the degree-10 class sits at q = 2
    assert table[10]["by_exterior_count"]["2"]["invariant_factors"] == [2]


def test_json_round_trip_and_determinism(capsys):
    code, out1, _ = run(capsys, "cohomology", "--flavor", "bp", "--prime", "3",
                        "--max-degree", "24", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "cohomology", "--flavor", "bp", "--prime", "3",
                        "--max-degree", "24", "--format", "json")
    assert code == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert json.loads(json.dumps(doc)) == doc


class CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_json_is_written_in_batches_of_json_dump_bytes(monkeypatch):
    # json.dump writes each encoder chunk separately, one system call each
    # on an unbuffered stream; the batches must carry the same bytes
    out = CountingStream()
    monkeypatch.setattr(sys, "stdout", out)
    assert main("structure-maps --flavor mu-split --max-n 8 -N 8 "
                "--format json".split()) == 0
    text = out.getvalue()
    doc = json.loads(text)
    expected = io.StringIO()
    json.dump(doc, expected, indent=2)
    assert text == expected.getvalue() + "\n"
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc))
    assert chunks > 2048
    assert out.writes <= chunks // 1024 + 2


json_leaves = (st.integers(-2 ** 100, 2 ** 100) | st.booleans() | st.none()
               | st.text())
json_trees = st.recursive(
    json_leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30)


@settings(max_examples=300)
@given(tree=json_trees)
@example(tree={"\x00\n\"\\": ["\u00e9\u2603\U0001f600", {}, [], ()],
               "": {"a": [[{}], True, None]}, "big": 2 ** 64 + 1})
def test_write_json_matches_json_dumps(tree):
    out = io.StringIO()
    write_json(tree, out)
    assert out.getvalue() == json.dumps(tree, indent=2) + "\n"


@pytest.mark.parametrize("tree", [1.5, {"a": [Fraction(1, 2)]}, {1: 2}],
                         ids=["float", "fraction", "int-key"])
def test_write_json_refuses_inexact_values_and_non_str_keys(tree):
    with pytest.raises(TypeError):
        write_json(tree, io.StringIO())


class LiveDict(dict):
    """A dict that counts its live instances and their peak."""
    live = peak = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        LiveDict.live += 1
        LiveDict.peak = max(LiveDict.peak, LiveDict.live)

    def __del__(self):
        LiveDict.live -= 1


class LiveRow(NamedTuple):
    n: int

    def render(self, fmt):
        return LiveDict(n=self.n, terms=list(range(self.n)))


def test_json_rows_are_rendered_one_at_a_time(monkeypatch):
    monkeypatch.setattr(LiveDict, "live", 0)
    monkeypatch.setattr(LiveDict, "peak", 0)
    monkeypatch.setattr(fglthh.cli, "_value", lambda n, fmt: LiveDict(n=n))
    report = Report([("rows", "rows", [LiveRow(n) for n in range(20)]),
                     ("equations", "equations", {f"e_{n}": n for n in range(20)})],
                    {"all_ok": True})
    out = io.StringIO()
    emit_report(report, "json", {"command": "test"}, out)
    assert (LiveDict.peak, LiveDict.live) == (1, 0)
    doc = json.loads(out.getvalue())
    assert doc["results"]["rows"][19] == {"n": 19, "terms": list(range(19))}
    assert doc["results"]["equations"]["e_7"] == {"n": 7}
    assert doc["results"]["all_ok"] is True


@pytest.mark.parametrize("argv", [
    *(f"{command} --flavor {flavor} --max-n 3 -N 3"
      for command in ("structure-maps", "sigma")
      for flavor in ("mu-moving", "mu-split", "bp --prime 2")),
    "cohomology --flavor mu-moving --max-degree 6 -N 3",
    "cohomology --flavor mu-split --max-degree 6 -N 3",
    "cohomology --flavor bp --prime 2 --max-degree 10",
    "bar-tor --max-weight 5 --max-q 2",
    "de-rham --max-degree 6 -N 3",
    "de-rham --weights 1,2 --max-degree 8",
    "verify --max-degree 6 -N 3",
])
def test_every_command_writes_json_dump_bytes(capsys, argv):
    code, out, _ = run(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_structure_maps_empty_table_is_valid_json(capsys):
    code, out, _ = run(capsys, "structure-maps", "--flavor", "mu-moving",
                       "--max-n", "0", "--truncation", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["x_in_m"] == {}


@pytest.mark.parametrize("command", ["structure-maps", "sigma"])
def test_bp_max_n_zero_is_an_empty_table(capsys, command):
    code, out, err = run(capsys, command, "--flavor", "bp", "--prime", "2",
                         "--max-n", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert all(rows == {} for rows in json.loads(out)["results"].values())


def test_verify_split_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--flavor", "mu-split",
                       "--max-degree", "10", "--truncation", "5")
    assert code == 0
    assert "[FAIL]" not in out


def test_bp_without_prime_is_usage_error(capsys):
    code, _, err = run(capsys, "sigma", "--flavor", "bp", "--max-n", "2")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("max_n", [TYPICAL_MAX_N + 1, 40])
@pytest.mark.parametrize("command", ["sigma", "structure-maps"])
def test_bp_past_the_max_n_cap_fails_fast(capsys, command, max_n):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--flavor", "bp", "--prime", "2",
                         "--max-n", str(max_n))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert f"capped at max_n {TYPICAL_MAX_N}, got {max_n}" in err


def test_all_exports_resolve():
    for name in fglthh.__all__:
        assert getattr(fglthh, name) is not None, name


def test_large_prime_guard(capsys):
    code, _, err = run(capsys, "cohomology", "--flavor", "bp", "--prime", "7",
                       "--max-degree", "10")
    assert code == 2
    assert "--prime must be one of (2, 3, 5), got 7" in err


# Each flag a command accepts changes its answer or is refused before any
# table is built: a prime outside the established set (the 19-digit one is
# prime, so only a membership test answers it at once), a p-typical degree
# past the oracle, a prime with an MU flavor, and a de-rham flavor the
# comparison does not read.
REFUSED_ARGVS = [
    "cohomology --flavor bp --prime 1000000000000000003",
    "cohomology --flavor bp --prime 7",
    "verify --flavor bp --prime 2 --max-degree 12",
    "bar-tor --prime 3",
    "de-rham --flavor bp --prime 2",
    "de-rham --flavor mu-split",
]


@pytest.mark.parametrize("argv", REFUSED_ARGVS)
def test_a_flag_that_changes_nothing_is_refused_at_once(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(fglthh.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fglthh.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=120)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage error: ")
    assert proc.stderr.count("\n") == 1


def test_verify_refuses_a_bp_degree_with_the_cohomology_message(capsys):
    tail = ("--flavor", "bp", "--prime", "2", "--max-degree", "12")
    refusals = [run(capsys, command, *tail) for command in ("cohomology", "verify")]
    assert refusals[0] == refusals[1] == (
        2, "", "usage error: the p-typical table is established only through degree 10\n")


def test_truncation_guard(capsys):
    code, _, err = run(capsys, "cohomology", "--flavor", "mu-moving",
                       "--max-degree", "10", "--truncation", "3")
    assert code == 2
    assert "truncation" in err


def test_verify_refuses_a_small_truncation_at_once():
    # the guard answers before any table is built, as cohomology's does
    env = dict(os.environ, PYTHONPATH=str(Path(fglthh.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "fglthh.cli", "verify", "--max-degree", "60"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("usage error: truncation 12 is too small for degree 60; "
                           "need at least 30\n")


def _json_without_truncation(out):
    doc = json.loads(out)
    del doc["config"]["truncation"]
    return doc


# (argv, the highest generator weight the answer reads)
_READ_WEIGHT_RUNS = [
    *((f"cohomology --flavor {flavor} --max-degree {d}", max(1, (d + 1) // 2))
      for flavor in ("mu-moving", "mu-split") for d in (0, 1, 9, 14)),
    *((f"de-rham --max-degree {d}", max(1, (d + 1) // 2)) for d in (0, 1, 9, 14)),
    *((f"{command} --flavor {flavor} --max-n {n}", max(n, 1))
      for command in ("structure-maps", "sigma")
      for flavor in ("mu-moving", "mu-split") for n in (0, 1, 4)),
]


@pytest.mark.parametrize("argv, weight", _READ_WEIGHT_RUNS)
def test_the_read_weight_gives_the_bytes_of_the_full_truncation(
        capsys, monkeypatch, argv, weight):
    # at the read weight as the command builds it, and at -N 12 with the
    # base ring built through the whole truncation
    read = [run(capsys, *argv.split(), "-N", str(weight), "--format", fmt)
            for fmt in ("json", "text")]
    monkeypatch.setattr(fglthh.cli, "_lazard_basis", lambda w: fglthh.fgl.LazardBasis(12))
    full = [run(capsys, *argv.split(), "-N", "12", "--format", fmt)
            for fmt in ("json", "text")]
    assert [code for code, _, _ in read + full] == [0] * 4
    assert _json_without_truncation(read[0][1]) == _json_without_truncation(full[0][1])
    assert read[1][1] == full[1][1]
    assert json.loads(read[0][1])["config"]["truncation"] == weight
    assert json.loads(full[0][1])["config"]["truncation"] == 12


@pytest.mark.parametrize("argv, built", [
    ("de-rham --max-degree 14 -N 12", [7]),
    ("cohomology --flavor mu-split --max-degree 9 -N 12", [5]),
    ("structure-maps --max-n 0 -N 12", [1]),
    ("sigma --flavor mu-split --max-n 3 -N 12", [3]),
    ("verify --max-degree 6 -N 3", [3]),
])
def test_each_command_builds_the_lazard_basis_it_reads(capsys, monkeypatch, argv, built):
    sizes = []
    init = fglthh.fgl.LazardBasis.__init__

    def recording(self, N):
        sizes.append(N)
        init(self, N)

    monkeypatch.setattr(fglthh.fgl.LazardBasis, "__init__", recording)
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    assert sizes == built


@pytest.mark.parametrize("argv, built", [
    ("de-rham --max-degree 14 -N 12", 0),
    *((f"{command} --flavor {flavor} {rest}", built)
      for flavor in ("mu-moving", "mu-split")
      for command, rest, built in (("cohomology", "--max-degree 9", 0),
                                   ("sigma", "--max-n 3", 0),
                                   ("structure-maps", "--max-n 3", 1),
                                   ("verify", "--max-degree 6 -N 3", 1))),
])
def test_each_command_builds_the_structure_maps_it_reads(capsys, monkeypatch, argv, built):
    # the structure-map tables are read only by structure-maps and verify
    made = []
    init = fglthh.algebroid.MuStructure.__init__

    def recording(self, basis):
        made.append(basis)
        init(self, basis)

    monkeypatch.setattr(fglthh.algebroid.MuStructure, "__init__", recording)
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    assert len(made) == built


def test_bar_tor_reads_the_same_weights_for_both_mu_flavors(capsys):
    rows = [json.loads(run(capsys, "bar-tor", "--flavor", flavor, "--format", "json")[1])
            ["results"]["bar_tor"] for flavor in ("mu-moving", "mu-split")]
    assert rows[0] and rows[0] == rows[1]


@pytest.mark.parametrize("argv", [
    "sigma --flavor mu-split --max-n 4 -N 3",
    "sigma --flavor mu-moving --max-n 6 -N 2",
    "structure-maps --flavor mu-split --max-n 4 -N 3",
    "structure-maps --flavor mu-moving --max-n 13",
])
def test_max_n_above_the_truncation_is_refused(capsys, monkeypatch, argv):
    # -N is the ceiling of the MU tables; nothing is built past it
    built = []
    monkeypatch.setattr(fglthh.fgl.LazardBasis, "__init__",
                        lambda self, N: built.append(N))
    max_n, N = re.search(r"--max-n (\d+)(?: -N (\d+))?", argv).groups(default="12")
    assert run(capsys, *argv.split()) == (
        2, "", f"usage error: truncation {N} is too small for --max-n {max_n}; "
               f"need at least {max_n}\n")
    assert built == []


@pytest.mark.parametrize("argv", [
    ("de-rham", "--weights", "1,a"),
    ("cohomology", "--max-degree", "0", "-N", "0"),
    ("verify", "--max-degree", "-3"),
    ("cohomology", "--max-degree", "-1"),
    ("bar-tor", "--max-q", "-1"),
    ("bar-tor", "--max-weight", "-1"),
    ("structure-maps", "--max-n", "-1"),
    ("de-rham", "--weights", "0,2"),
    ("bar-tor", "--max-q", "4"),
    ("bar-tor", "--max-weight", "9"),
])
def test_bad_input_is_usage_error_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(fglthh.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fglthh.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage error: ")
    assert proc.stderr.count("\n") == 1


def test_output_file(tmp_path, capsys):
    for fmt in ("json", "text"):
        argv = ("sigma", "--flavor", "bp", "--prime", "2", "--max-n", "2",
                "--format", fmt)
        target = tmp_path / f"out.{fmt}"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        # the file and stdout receive the same streamed bytes
        assert target.read_bytes() == stdout.encode("utf-8")
    assert json.loads((tmp_path / "out.json").read_text())["schema"] == "fgl-thh/1"


def test_series_error_is_a_contract_violation(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise SeriesError("insufficient truncation data for the requested bound")

    monkeypatch.setattr(fglthh.fgl, "lazard_coefficients", broken)
    code, _, err = run(capsys, "structure-maps", "--flavor", "mu-moving",
                       "--max-n", "2", "-N", "2")
    assert code == 1
    assert err.startswith("contract violation: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_out_of_memory_is_a_usage_error_without_traceback(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(fglthh.cli.COMMANDS, "de-rham", exhausted)
    code, out, err = run(capsys, "de-rham", "--weights", "1,2", "--max-degree", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("out of memory: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_bar_tor_command(capsys):
    code, out, _ = run(capsys, "bar-tor", "--flavor", "mu-moving",
                       "--max-weight", "5", "--max-q", "2")
    assert code == 0
    assert "MISMATCH" not in out


def test_de_rham_single_generator(capsys):
    code, out, _ = run(capsys, "de-rham", "--weights", "1", "--max-degree", "9",
                       "--truncation", "5")
    assert code == 0
    assert "H^9 = Z/4" in out


def test_usage_error_unknown_flavor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "--flavor", "nonsense"])
    assert exc.value.code == 2


# Flags each subcommand accepts beyond the common ones, with small ranges
# that include one invalid value below and, where there is a guard, above.
_COMMAND_FLAGS = {
    "structure-maps": {"--max-n": (-1, 3)},
    "sigma": {"--max-n": (-1, 3)},
    "cohomology": {"--max-degree": (-1, 6)},
    "bar-tor": {"--max-weight": (-1, 9), "--max-q": (-1, 4)},
    "de-rham": {"--max-degree": (-1, 6)},
    "verify": {"--max-degree": (-1, 6)},
}


@st.composite
def small_argvs(draw):
    """A small argv that mostly computes: ``--prime`` only with bp, a
    refused or missing prime about one draw in eight, and ``-N`` from the
    highest generator weight the request reads."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flavor = draw(st.sampled_from(fglthh.cli.FLAVORS))
    flags = {flag: draw(st.integers(lo, hi))
             for flag, (lo, hi) in _COMMAND_FLAGS[command].items()}
    if "--max-degree" in flags:
        read = max((flags["--max-degree"] + 1) // 2, 1)
    else:
        read = max(flags.get("--max-n", 0), 1)
    argv = [command, "--flavor", flavor, "-N", str(draw(st.integers(read, read + 2))),
            "--format", draw(st.sampled_from(fglthh.cli.FORMATS))]
    if flavor == "bp":
        prime = draw(st.sampled_from((*SMALL_PRIMES * 5, None, 7)))
        if prime is not None:
            argv += ["--prime", str(prime)]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60)
@given(argv=small_argvs())
def test_small_argvs_keep_the_exit_contract(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert _run_in_process(argv) == (code, out, err)
