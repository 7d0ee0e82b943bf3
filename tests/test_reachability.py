"""Only what a command reaches stays in ``src/``.

A small matrix of CLI runs (every command, flavor and format, plus the
usage errors) runs under ``sys.setprofile``.  Every function and method
defined in the ``fglthh`` package that no run calls must be named in
``UNREACHED`` with the reason it stays; a function that drops out of the
commands' reach, or an entry that has become reachable or gone, fails the
test.
"""

import inspect
import sys
from functools import cached_property

from fglthh import algebroid, cli, cohomology, exactalg, fgl, series, thh, verify

MODULES = (algebroid, cli, cohomology, exactalg, fgl, series, thh, verify)

RUNS = [
    # weight 5 is the first Lazard generator chosen automatically
    "structure-maps --max-n 5 --format tex",
    "structure-maps --flavor mu-split --max-n 3 -N 3",
    "structure-maps --flavor bp --prime 2 --max-n 2 --format json",
    "sigma --max-n 3 --format json",
    "sigma --flavor mu-split --max-n 3 -N 3 --format tex",
    "sigma --flavor bp --prime 3 --max-n 2",
    "cohomology --max-degree 8 -N 4 --format tex",
    "cohomology --flavor mu-split --max-degree 8 -N 4 --format json",
    "cohomology --flavor bp --prime 2 --max-degree 10",
    "bar-tor --max-weight 4 --max-q 2 --format json",
    "bar-tor --flavor mu-split --max-weight 4 --max-q 2",
    "bar-tor --flavor bp --prime 2 --max-weight 4 --max-q 2 --format tex",
    "de-rham --max-degree 6 -N 3 --format json",
    "de-rham --weights 1,2 --max-degree 8 --format tex",
    "verify --max-degree 6 -N 3 --format json",
    "verify --flavor mu-split --max-degree 6 -N 3",
    "verify --flavor bp --prime 2 --format tex",
]

USAGE_ERRORS = [
    "cohomology --flavor bp",
    "cohomology --flavor bp --prime 4",
    "cohomology --flavor bp --prime 7",
    "cohomology --flavor bp --prime 2 --max-degree 12",
    "cohomology --max-degree 9 -N 4",
    "de-rham --max-degree 9 -N 4",
    "de-rham --weights 1,a",
    "de-rham --weights 0,2",
    "bar-tor --max-q 4",
    "sigma --max-n -1",
    "sigma -N 0",
    "sigma --flavor bp --prime 2 --max-n 13",
    "structure-maps --max-n 4 -N 3",
    "cohomology --flavor bp --prime 1000000000000000003",
    "verify --flavor bp --prime 2 --max-degree 12",
    "bar-tor --prime 3",
    "de-rham --flavor bp --prime 2",
    "de-rham --flavor mu-split",
]

TRACED = "a span target of perfbench's tracer, and a test reference"
SHOWN = "the readable form of a value in test failures and the REPL"
TRANSFORM = "a Smith transform, which the exactalg tests check"

# qualified name -> why it stays although no command calls it
UNREACHED = {
    "cohomology:CohomologyTable.class_order": TRACED,
    "cohomology:CohomologyTable.generates": TRACED,
    "exactalg:solve_integer": TRACED,
    "exactalg:solve_rational_linear": TRACED,
    "fgl:TypicalBasis.rewrite_ell_to_v": TRACED,
    "exactalg:generates": "the lattice test behind CohomologyTable.generates",
    "exactalg:UnderdeterminedSystemError.__init__":
        "raised by solve_rational_linear, an error class",
    "exactalg:SmithDecomposition.U": TRANSFORM,
    "exactalg:SmithDecomposition.U_inv": TRANSFORM,
    "exactalg:SmithDecomposition.V": TRANSFORM,
    "exactalg:SmithDecomposition.V_inv": TRANSFORM,
    "exactalg:SmithDecomposition._transform": "builds each Smith transform",
    "exactalg:IntMatrix.identity": "the start of each Smith transform, and of tests",
    "exactalg:IntMatrix.from_rows": "the exactalg tests build matrices with it",
    "exactalg:smith_normal_form_full.<locals>.row_op":
        "the Smith form's fix-up of a pivot that does not divide the rest, "
        "which no small command meets; the exactalg tests do",
    "exactalg:FinAbGroup.is_trivial": "the cohomology and acceptance tests read it",
    "exactalg:GradedPoly.const": "the tests build constant coefficients with it",
    "exactalg:GenTable.pack": "the kernel tests build monomials with it",
    "exactalg:GenTable.__hash__": "GenTable defines __eq__, so it must define a hash",
    "exactalg:FinAbGroup.__str__": SHOWN,
    "exactalg:GenTable.__repr__": SHOWN,
    "exactalg:GradedPoly.__repr__": SHOWN,
    "series:TruncatedSeries.__repr__": SHOWN,
    "thh:ExtElement.__repr__": SHOWN,
    "thh:ExtElement.__rmul__": "poly * elt, which the tests write",
}


def defined_functions():
    """``module:qualname`` -> code object for every function and method
    defined in the package, nested functions included (lambdas and
    comprehensions are left out)."""
    found = {}

    def add(module, code):
        if code.co_filename != module.__file__:
            return  # written by ``dataclass``
        key = f"{module.__name__.rsplit('.', 1)[-1]}:{code.co_qualname}"
        found[key] = code
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                add(module, const)

    def visit(module, obj):
        if isinstance(obj, (staticmethod, classmethod)):
            obj = obj.__func__
        if isinstance(obj, cached_property):
            obj = obj.func
        if isinstance(obj, property):
            for part in (obj.fget, obj.fset):
                if part is not None:
                    visit(module, part)
        elif inspect.isfunction(obj) and obj.__module__ == module.__name__:
            add(module, obj.__code__)
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                visit(module, member)

    for module in MODULES:
        for obj in vars(module).values():
            visit(module, obj)
    return found


def reached_codes(capsys, tmp_path):
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for argv in RUNS:
            assert cli.main(argv.split()) == 0, argv
        assert cli.main(["de-rham", "--weights", "1", "--max-degree", "4",
                         "--output", str(tmp_path / "out.txt")]) == 0
        for argv in USAGE_ERRORS:
            assert cli.main(argv.split()) == 2, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    return codes


def test_every_unreached_function_is_allow_listed(capsys, tmp_path):
    functions = defined_functions()
    reached = reached_codes(capsys, tmp_path)
    unreached = {name for name, code in functions.items() if code not in reached}
    assert sorted(unreached - UNREACHED.keys()) == []
    assert sorted(UNREACHED.keys() - unreached) == []
