"""Batch command-line front end.

Subcommands compute structure-map tables, sigma tables, cohomology
tables, the bar and de Rham cross-checks, and the full consistency
suite, emitting deterministic JSON, TeX or plain text.  Exit status 0
means every internal contract held, 1 reports a violated contract with
the failing identity, 2 is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .exactalg import ExactAlgError, ResourceGuardError, Style
from .fgl import LazardBasis, TypicalBasis, x_name, v_name
from .algebroid import MuStructure, TypicalStructure
from .thh import (ExtElement, sigma_mu_moving, sigma_mu_split, sigma_bp,
                  _split_with_conversion)
from .cohomology import (SMALL_PRIMES, cohomology_groups, localize_table,
                         bp_degree_range, bar_tor_check, de_rham_cohomology,
                         de_rham_comparison)
from .verify import verify_mu, verify_bp

SCHEMA = "fgl-thh/1"
FLAVORS = ("mu-moving", "mu-split", "bp")
FORMATS = ("text", "json", "tex")


class ContractFailure(Exception):
    """An internal identity or integrality contract failed."""


class UsageError(Exception):
    """Invalid configuration values (reported with exit status 2)."""


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def coeff_json(c):
    if isinstance(c, Fraction):
        return [c.numerator, c.denominator]
    return c


def poly_json(poly):
    terms = []
    table = poly.table
    for mono, c in poly.sorted_terms():
        terms.append({"coeff": coeff_json(c),
                      "mono": {table.name(i): e for i, e in table.exponents(mono)}})
    return {"terms": terms}


def ext_json(elt):
    terms = []
    for subset, poly in elt.sorted_terms():
        terms.append({"ext": [f"{elt.flavor.ext_prefix}_{n}" for n in subset],
                      "coeff": poly_json(poly)})
    return {"terms": terms}


def group_json(group, generators=()):
    return {
        "free_rank": group.free_rank,
        "invariant_factors": list(group.invariant_factors),
        "primary": list(group.primary()),
        "generators": [str(g) for g in generators],
    }


_TEX_HEADS = {"lambda'": "\\lambda'", "lambda": "\\lambda", "ell": "\\ell",
              "sigma": "\\sigma", "psi": "\\psi", "chi": "\\chi",
              "eta_R": "\\eta_R"}


def tex_gen(name):
    if name in _TEX_HEADS or "_" not in name:
        return _TEX_HEADS.get(name, name)
    head, idx = name.rsplit("_", 1)
    head = _TEX_HEADS.get(head, head)
    return f"{head}_{{{idx}}}" if len(idx) > 1 else f"{head}_{idx}"


def tex_coeff(c):
    if isinstance(c, Fraction):
        return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


TEX = Style(tex_gen, "{}^{{{}}}", tex_coeff, " ")


def poly_tex(poly):
    return poly.render(TEX)


def ext_tex(elt):
    return elt.render(TEX)


def group_text(group, generators=()):
    base = group.describe()
    if generators:
        gens = ", ".join(str(g) for g in generators)
        return f"{base}  generators: {gens}"
    return base


def group_tex(group):
    parts = ["\\mathbb{Z}"] * group.free_rank
    parts += [f"\\mathbb{{Z}}/{d}" for d in group.invariant_factors]
    return " \\oplus ".join(parts) if parts else "0"


@dataclass
class Report:
    """What one command found, before it is rendered in any format.

    ``sections`` are ``(title, json_key, rows)`` triples.  Equation rows are
    a dict from label to value; any other section is a list of rows with a
    ``render(fmt)`` method.  ``flags`` follow the sections in the JSON
    results, and ``failed`` names the checks that make the exit status 1.
    """
    sections: list
    flags: dict = field(default_factory=dict)
    failed: list = field(default_factory=list)


class Line(NamedTuple):
    """A row that reads the same in text and TeX."""
    line: str
    obj: dict

    def render(self, fmt):
        return self.obj if fmt == "json" else self.line


class Degree(NamedTuple):
    """The degree-``d`` row of a cohomology table."""
    table: object
    d: int

    def render(self, fmt):
        table, d = self.table, self.d
        g = table.groups[d]
        gens = [elt for _o, elt in table.generators[d]]
        if fmt == "text":
            return f"H^{d} = {group_text(g, gens)}"
        if fmt == "tex":
            gen_tex = ", ".join(ext_tex(e) for e in gens)
            suffix = f" \\{{{gen_tex}\\}}" if gen_tex else ""
            return f"H^{{{d}}} &\\cong {group_tex(g)}{suffix}"
        entry = group_json(g, gens)
        entry["degree"] = d
        entry["by_exterior_count"] = {
            str(q): group_json(table.by_q[(dd, q)])
            for (dd, q) in sorted(table.by_q) if dd == d}
        return entry


def _label(label, fmt):
    """A label string is its own text and JSON form, and its TeX form is
    derived from it; a ``FORMATS``-ordered tuple spells out all three."""
    if isinstance(label, tuple):
        return label[FORMATS.index(fmt)]
    if fmt != "tex":
        return label
    head, paren, arg = label.partition("(")
    return f"{tex_gen(head)}({tex_gen(arg[:-1])})" if paren else tex_gen(head)


def _value(value, fmt):
    """An equation's right side: a polynomial, an exterior element, or the
    ``(left, right)`` pairs of a coproduct."""
    if isinstance(value, list):
        if fmt == "json":
            return [{"left": poly_json(l), "right": poly_json(r)} for l, r in value]
        sep = " (x) " if fmt == "text" else " \\otimes "
        return " + ".join(f"{_value(l, fmt)}{sep}{_value(r, fmt)}" for l, r in value)
    if fmt == "text":
        return str(value)
    if isinstance(value, ExtElement):
        return ext_tex(value) if fmt == "tex" else ext_json(value)
    return poly_tex(value) if fmt == "tex" else poly_json(value)


def _rows(rows, fmt):
    """A section's rendered rows; in JSON each row is deferred, so that
    ``write_json`` renders it only when it writes it."""
    if not isinstance(rows, dict):
        if fmt == "json":
            return [partial(row.render, fmt) for row in rows]
        return [row.render(fmt) for row in rows]
    if fmt == "json":
        return {_label(label, fmt): partial(_value, v, fmt) for label, v in rows.items()}
    eq = " = " if fmt == "text" else " &= "
    return [f"{_label(label, fmt)}{eq}{_value(v, fmt)}" for label, v in rows.items()]


def write_json(obj, out):
    """Write the bytes of ``json.dump(obj, out, indent=2)`` and a newline.

    A callable value is called when the walk reaches it, and its result is
    written in its place.  Strings, ints, bools, ``None``, dicts, lists and
    tuples are written as the library writes them; anything else, a float
    or a non-``str`` key included, raises ``TypeError``.  Parts are flushed
    to ``out`` in batches of about 4,096.
    """
    parts = []
    append = parts.append

    def flush():
        out.write("".join(parts))
        parts.clear()

    def walk(o, nl):
        # ``nl`` is a newline and the indent of the line that holds ``o``
        if isinstance(o, str):
            append(_quote(o))
        elif o is None:
            append("null")
        elif o is True or o is False:
            append("true" if o else "false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            inner, sep = nl + "  ", "{"
            for key, value in o.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                append(f"{sep}{inner}{_quote(key)}: ")
                walk(value, inner)
                sep = ","
                if len(parts) > 4096:
                    flush()
            append(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                append("[]")
                return
            inner, sep = nl + "  ", "["
            for value in o:
                append(sep + inner)
                walk(value, inner)
                sep = ","
                if len(parts) > 4096:
                    flush()
            append(nl + "]")
        elif callable(o):
            walk(o(), nl)
        else:
            raise TypeError(f"{type(o).__name__} is not written as exact JSON")

    walk(obj, "\n")
    append("\n")
    flush()


def emit_report(report, fmt, config, out):
    """Serialize a command's report deterministically in ``fmt`` alone,
    writing it to the text stream ``out``.  JSON comes from one walk of
    ``write_json``, which renders each row as it writes it, so only one
    row's tree is alive at a time."""
    if fmt == "json":
        results = {key: _rows(rows, fmt) for _title, key, rows in report.sections}
        results.update(report.flags)
        write_json({"schema": SCHEMA, "config": config, "results": results}, out)
        return
    lines = []
    for title, _key, rows in report.sections:
        if fmt == "tex":
            lines += [f"% {title}", "\\begin{align*}",
                      *(f"{row} \\\\" for row in _rows(rows, fmt)),
                      "\\end{align*}", ""]
        else:
            lines += [f"# {title}", *_rows(rows, fmt), ""]
    out.write("\n".join(lines) + "\n")


def write_output(report, fmt, config, path):
    if path is None:
        emit_report(report, fmt, config, sys.stdout)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            emit_report(report, fmt, config, fh)


# ---------------------------------------------------------------------------
# context builders
# ---------------------------------------------------------------------------

def _require_prime(args):
    """A p-typical request's prime, one of ``SMALL_PRIMES``, where the oracle holds."""
    p = args.prime
    if p is None:
        raise UsageError("the p-typical flavor requires --prime")
    if p not in SMALL_PRIMES:
        raise UsageError(f"--prime must be one of {SMALL_PRIMES}, got {p}")
    return p


def _require_bp_degree(p, d_max):
    """Refuse a p-typical table past the degree its oracle establishes."""
    limit = bp_degree_range(p)
    if d_max > limit:
        raise UsageError(
            f"the p-typical table is established only through degree {limit}")


def _bp_max_n(p, d_max):
    n = 1
    while p ** (n + 1) - 1 <= d_max // 2 + 1:
        n += 1
    return max(n, 1)


def _require_truncation(N, d_max=None, max_n=None):
    """The highest generator weight a request reads: ⌈d_max/2⌉ for a table
    through degree ``d_max``, ``max_n`` for one through generator ``max_n``.
    A truncation ``N`` below it is refused."""
    if max_n is None:
        weight, request = (d_max + 1) // 2, f"degree {d_max}"
    else:
        weight, request = max_n, f"--max-n {max_n}"
    if N < weight:
        raise UsageError(f"truncation {N} is too small for {request}; "
                         f"need at least {weight}")
    return weight


def _lazard_basis(weight):
    """The MU base ring through ``weight``, the highest generator weight the
    answer reads: x_n sits in degree 2n and lambda'_n in 2n + 1, so no
    generator past it moves a byte.  ``-N`` is only the ceiling a request
    is checked against, and it is echoed in the config."""
    return LazardBasis(max(weight, 1))


def _config(args):
    cfg = {"command": args.command, "flavor": getattr(args, "flavor", None),
           "prime": getattr(args, "prime", None),
           "truncation": getattr(args, "truncation", None),
           "format": args.format}
    return {k: v for k, v in cfg.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_structure_maps(args):
    ns = range(1, args.max_n + 1)
    if args.flavor == "bp":
        p = _require_prime(args)
        tbasis = TypicalBasis(p, max(args.max_n, 1))
        tstruct = TypicalStructure(tbasis)
        rows = {}
        for n in ns:
            # the JSON key keeps a literal p
            pn_label = (f"{p}^{n}*ell_{n}", f"p^{n} ell_{n}", f"{p}^{n} \\ell_{{{n}}}")
            rows[pn_label] = tbasis.pn_ell(n)
            rows[f"eta_R(ell_{n})"] = tstruct.eta_ell(n)
        return Report([(f"p-typical structure maps at p={p}", "typical", rows)])
    basis = _lazard_basis(_require_truncation(args.truncation, max_n=args.max_n))
    structure = MuStructure(basis)
    sections = [("integral generators in the logarithmic basis", "x_in_m",
                 {f"x_{n}": basis.x_in_m[n] for n in ns})]
    if args.flavor == "mu-split":
        sections += [
            ("right unit on integral generators", "eta_R",
             {f"eta_R(x_{n})": structure.eta_x(n) for n in ns}),
            ("conjugation", "chi", {f"chi(b_{n})": structure.chi[n] for n in ns}),
            ("coproduct", "psi", {f"psi(b_{n})": structure.psi(n) for n in ns})]
    else:
        sections += [
            ("right unit in moving coordinates", "eta_R_moving",
             {f"eta_R(m_{n})": structure.eta_m_moving(n) for n in ns}),
            ("moving coordinates", "moving_coordinates",
             {f"c_{n}": structure.c_in_xb(n) for n in ns})]
    return Report(sections)


def cmd_sigma(args):
    ns = range(1, args.max_n + 1)
    if args.flavor == "bp":
        p = _require_prime(args)
        sig, name = sigma_bp(TypicalBasis(p, max(args.max_n, 1))), v_name
        title = f"sigma on the p-typical ring at p={p}"
    else:
        basis = _lazard_basis(_require_truncation(args.truncation, max_n=args.max_n))
        if args.flavor == "mu-split":
            sig, conv = _split_with_conversion(basis, sigma_mu_moving(basis))
            rows = {f"sigma(x_{n})": sig.on_base[x_name(n)] for n in ns}
            rows.update({f"sigma(e_{n})": sig.on_ext[n] for n in ns})
            rows.update({f"lambda'_{n}": conv[n] for n in ns})
            return Report([("sigma in split coordinates", "sigma", rows)])
        sig, name, title = sigma_mu_moving(basis), x_name, "sigma in moving coordinates"
    rows = {f"sigma({name(n)})": sig.on_base[name(n)] for n in ns}
    zero = ExtElement.zero(sig.flavor)
    rows.update({f"sigma({sig.flavor.ext_prefix}_{n})": zero for n in ns})
    return Report([(title, "sigma", rows)])


def cmd_cohomology(args):
    d_max = args.max_degree
    if args.flavor == "bp":
        p = _require_prime(args)
        _require_bp_degree(p, d_max)
        tbasis = TypicalBasis(p, _bp_max_n(p, d_max))
        sig = sigma_bp(tbasis)
        table = localize_table(cohomology_groups(sig, d_max), p)
        title = f"sigma cohomology of the p-typical ring, p={p}"
    else:
        basis = _lazard_basis(_require_truncation(args.truncation, d_max))
        if args.flavor == "mu-moving":
            sig = sigma_mu_moving(basis)
        else:
            sig = sigma_mu_split(basis)
        table = cohomology_groups(sig, d_max)
        title = f"sigma cohomology, {args.flavor} coordinates"
    return Report([(title, "cohomology", [Degree(table, d) for d in range(d_max + 1)])])


# the coordinate coalgebra each flavor's bar check stands for
_BAR_TAGS = {"mu-moving": "moving-c", "mu-split": "absolute-b", "bp": "typical-t"}


def cmd_bar_tor(args):
    p = _require_prime(args) if args.flavor == "bp" else None
    rep = bar_tor_check(p, args.max_weight, args.max_q)
    if not rep.all_ok:
        raise ContractFailure("bar homology does not match the exterior algebra")
    rows = []
    for (q, w) in sorted(rep.table):
        g, exp = rep.table[(q, w)], rep.expected[(q, w)]
        torsion = list(g.invariant_factors)
        rows.append(Line(f"q={q} weight={w}: rank {g.free_rank} expected {exp}"
                         f" torsion {torsion} -> ok",
                         {"q": q, "weight": w, "rank": g.free_rank, "expected": exp,
                          "torsion": torsion}))
    title = f"bar homology vs exterior algebra ({_BAR_TAGS[args.flavor]})"
    return Report([(title, "bar_tor", rows)], {"all_ok": True})


def cmd_de_rham(args):
    d_max = args.max_degree
    if args.flavor != "mu-moving":
        raise UsageError(f"de-rham reads only --flavor mu-moving, got {args.flavor}")
    if args.weights:
        try:
            weights = [int(w) for w in args.weights.split(",")]
        except ValueError:
            raise UsageError(f"--weights must be comma-separated integers, "
                             f"got {args.weights!r}") from None
        if min(weights) < 1:
            raise UsageError(f"--weights must be positive, got {args.weights!r}")
        gens = [(f"y_{k + 1}", w) for k, w in enumerate(weights)]
        table = de_rham_cohomology(gens, d_max)
        title = f"de Rham cohomology for generator weights {weights}"
        return Report([(title, "de_rham", [Degree(table, d) for d in range(d_max + 1)])])
    basis = _lazard_basis(_require_truncation(args.truncation, d_max))
    sig = sigma_mu_moving(basis)
    thh = cohomology_groups(sig, d_max)
    cmp = de_rham_comparison(basis, sig, thh, d_max)
    if not cmp.chain_map_residuals_zero:
        raise ContractFailure("a de Rham inclusion fails to be a chain map")
    rows = []
    for d in range(d_max + 1):
        # the base and homology rings have the same de Rham groups
        forms, mid = cmp.forms.groups[d], thh.groups[d]
        rows.append(Line(
            f"degree {d}: H_dR(base) = {forms.describe()} | H(sigma) = {mid.describe()}"
            f" | H_dR(coords) = {forms.describe()}  induced: {list(cmp.induced[d])}",
            {"degree": d, "H_dR_base": group_json(forms), "H_sigma": group_json(mid),
             "H_dR_coords": group_json(forms),
             "induced": [list(t) for t in cmp.induced[d]]}))
    title = "de Rham complexes bracketing the sigma cohomology"
    return Report([(title, "comparison", rows)], {"chain_maps_ok": True})


def cmd_verify(args):
    d_max = args.max_degree
    if args.flavor == "bp":
        p = _require_prime(args)
        _require_bp_degree(p, d_max)
        results = verify_bp(p, max(_bp_max_n(p, d_max), 3), d_max)
    else:
        _require_truncation(args.truncation, d_max)
        results = verify_mu(args.flavor, args.truncation, d_max)
    rows = []
    for r in results:
        detail = f"  [{r.detail}]" if r.detail else ""
        rows.append(Line(f"[{'ok' if r.ok else 'FAIL'}] {r.name}{detail}",
                         {"name": r.name, "ok": r.ok, "detail": r.detail}))
    failed = [r.name for r in results if not r.ok]
    return Report([("consistency suite", "checks", rows)], {"all_ok": not failed}, failed)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fglthh",
        description="Formal-group Hopf algebroid structure maps, sigma tables "
                    "and torsion cohomology, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_default=None):
        p.add_argument("--flavor", choices=FLAVORS, default="mu-moving")
        p.add_argument("--prime", type=int, default=None)
        p.add_argument("--truncation", "-N", type=int, default=12)
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--output", default=None)
        if degree_default is not None:
            p.add_argument("--max-degree", type=int, default=degree_default)

    p = sub.add_parser("structure-maps", help="right units, conjugation, "
                       "coproduct and moving coordinates")
    common(p)
    p.add_argument("--max-n", type=int, default=4)

    p = sub.add_parser("sigma", help="sigma tables on ring and exterior generators")
    common(p)
    p.add_argument("--max-n", type=int, default=4)

    p = sub.add_parser("cohomology", help="sigma cohomology tables")
    common(p, degree_default=10)

    p = sub.add_parser("bar-tor", help="bar homology of the coordinate algebra")
    common(p)
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--max-q", type=int, default=3)

    p = sub.add_parser("de-rham", help="de Rham cohomology and the bracketing "
                       "inclusions")
    common(p, degree_default=10)
    p.add_argument("--weights", default=None,
                   help="comma-separated generator weights for a standalone ring")

    p = sub.add_parser("verify", help="run the full consistency suite")
    common(p, degree_default=10)
    return parser


COMMANDS = {
    "structure-maps": cmd_structure_maps,
    "sigma": cmd_sigma,
    "cohomology": cmd_cohomology,
    "bar-tor": cmd_bar_tor,
    "de-rham": cmd_de_rham,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.truncation < 1:
            raise UsageError(f"truncation must be at least 1, got {args.truncation}")
        if args.prime is not None and args.flavor != "bp":
            raise UsageError(f"--prime applies only to --flavor bp, not {args.flavor}")
        for flag in ("max_degree", "max_n", "max_weight", "max_q"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative, "
                                 f"got {value}")
        report = COMMANDS[args.command](args)
        write_output(report, args.format, _config(args), args.output)
        if report.failed:
            sys.stderr.write(f"failed: {'; '.join(report.failed)}\n")
            return 1
        return 0
    except (UsageError, ResourceGuardError) as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except (ContractFailure, ExactAlgError) as err:
        sys.stderr.write(f"contract violation: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return 1
    except MemoryError:
        sys.stderr.write("out of memory: the request is too large; ask for a smaller "
                         "degree or range\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
