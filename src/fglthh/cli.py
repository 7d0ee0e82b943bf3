"""Batch command-line front end.

Subcommands compute structure-map tables, sigma tables, cohomology
tables, the bar and de Rham cross-checks, and the full consistency
suite, emitting deterministic JSON, TeX or plain text.  Exit status 0
means every internal contract held, 1 reports a violated contract with
the failing identity, 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .exactalg import ExactAlgError
from .fgl import LazardBasis, TypicalBasis, x_name, v_name
from .algebroid import MuStructure, TypicalStructure, CoordFlavor
from .thh import sigma_mu_moving, sigma_mu_split, sigma_bp, lambda_in_e
from .cohomology import (SigmaDifferential, cohomology_groups, localize_table,
                         bp_degree_range, bar_tor_check,
                         de_rham_cohomology, de_rham_comparison)
from .verify import verify_mu, verify_bp

SCHEMA = "fgl-thh/1"
FLAVORS = ("mu-moving", "mu-split", "bp")
SMALL_PRIMES = (2, 3, 5)


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
    for mono, c in poly.sorted_terms():
        terms.append({"coeff": coeff_json(c),
                      "mono": {poly.table.name(i): e for i, e in mono}})
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
              "eta_R": "\\eta_R", "mbar": "\\bar m"}


def tex_gen(name):
    if "_" in name:
        head, idx = name.rsplit("_", 1)
        head = _TEX_HEADS.get(head, head)
        return f"{head}_{{{idx}}}" if len(idx) > 1 else f"{head}_{idx}"
    return _TEX_HEADS.get(name, name)


def tex_coeff(c):
    if isinstance(c, Fraction):
        return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


def poly_tex(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for mono, c in poly.sorted_terms():
        body = " ".join(
            f"{tex_gen(poly.table.name(i))}^{{{e}}}" if e > 1 else tex_gen(poly.table.name(i))
            for i, e in mono)
        if mono == ():
            text = tex_coeff(c)
        elif c == 1:
            text = body
        elif c == -1:
            text = f"-{body}"
        else:
            text = f"{tex_coeff(c)} {body}"
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        out += f" {part}" if part.startswith("-") else f" + {part}"
    return out


def ext_tex(elt):
    if elt.is_zero():
        return "0"
    parts = []
    for subset, poly in elt.sorted_terms():
        ext = " ".join(tex_gen(f"{elt.flavor.ext_prefix}_{n}") for n in subset)
        items = poly.sorted_terms()
        if len(items) == 1:
            text = poly_tex(poly)
            text = f"{text} {ext}".strip() if text != "1" or not ext else ext
        else:
            text = f"({poly_tex(poly)}) {ext}".strip()
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        out += f" {part}" if part.startswith("-") else f" + {part}"
    return out


def group_text(group, generators=()):
    base = group.describe()
    if generators:
        gens = ", ".join(str(g) for g in generators)
        return f"{base}  generators: {gens}"
    return base


def render_lines_text(sections):
    lines = []
    for title, rows in sections:
        lines.append(f"# {title}")
        lines.extend(rows)
        lines.append("")
    return "\n".join(lines)


def render_lines_tex(sections):
    lines = []
    for title, rows in sections:
        lines.append(f"% {title}")
        lines.append("\\begin{align*}")
        for row in rows:
            lines.append(f"{row} \\\\")
        lines.append("\\end{align*}")
        lines.append("")
    return "\n".join(lines)


def emit_report(results, fmt, config):
    """Serialize a command result deterministically."""
    if fmt == "json":
        doc = {"schema": SCHEMA, "config": config, "results": results["json"]}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "tex":
        return render_lines_tex(results["tex"]) + "\n"
    return render_lines_text(results["text"]) + "\n"


def write_output(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# context builders
# ---------------------------------------------------------------------------

def _require_prime(args):
    p = args.prime
    if p is None:
        raise UsageError("the p-typical flavor requires --prime")
    if p < 2 or any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
        raise UsageError(f"--prime must be prime, got {p}")
    if p not in SMALL_PRIMES and not args.unsafe_large_prime:
        raise UsageError(
            f"prime {p} is outside the supported range {SMALL_PRIMES}; "
            "pass --unsafe-large-prime to override")
    return p


def _bp_max_n(p, d_max):
    n = 1
    while p ** (n + 1) - 1 <= d_max // 2 + 1:
        n += 1
    return max(n, 1)


def _config(args, **extra):
    cfg = {"command": args.command, "flavor": getattr(args, "flavor", None),
           "prime": getattr(args, "prime", None),
           "truncation": getattr(args, "truncation", None),
           "format": args.format}
    cfg.update(extra)
    return {k: v for k, v in cfg.items() if v is not None}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_structure_maps(args):
    max_n = args.max_n
    N = max(args.truncation, max_n)
    sections_text, sections_tex, out_json = [], [], {}
    if args.flavor == "bp":
        p = _require_prime(args)
        tbasis = TypicalBasis(p, max_n)
        tstruct = TypicalStructure(tbasis)
        rows_t, rows_x, js = [], [], {}
        for n in range(1, max_n + 1):
            pn = tbasis.pn_ell(n)
            eta = tstruct.eta_ell(n)
            rows_t.append(f"{p}^{n}*ell_{n} = {pn}")
            rows_t.append(f"eta_R(ell_{n}) = {eta}")
            rows_x.append(f"{p}^{n} \\ell_{{{n}}} &= {poly_tex(pn)}")
            rows_x.append(f"\\eta_R(\\ell_{{{n}}}) &= {poly_tex(eta)}")
            js[f"p^{n} ell_{n}"] = poly_json(pn)
            js[f"eta_R(ell_{n})"] = poly_json(eta)
        sections_text.append((f"p-typical structure maps at p={p}", rows_t))
        sections_tex.append((f"p-typical structure maps at p={p}", rows_x))
        out_json["typical"] = js
    else:
        basis = LazardBasis(N)
        structure = MuStructure(basis)
        rows_t, rows_x, js = [], [], {}
        for n in range(1, max_n + 1):
            rows_t.append(f"x_{n} = {basis.x_in_m[n]}")
            rows_x.append(f"x_{n} &= {poly_tex(basis.x_in_m[n])}")
            js[f"x_{n}"] = poly_json(basis.x_in_m[n])
        sections_text.append(("integral generators in the logarithmic basis", rows_t))
        sections_tex.append(("integral generators in the logarithmic basis", rows_x))
        out_json["x_in_m"] = js
        if args.flavor == "mu-split":
            rows_t, rows_x, js = [], [], {}
            for n in range(1, max_n + 1):
                eta = structure.eta_x(n)
                rows_t.append(f"eta_R(x_{n}) = {eta}")
                rows_x.append(f"\\eta_R(x_{n}) &= {poly_tex(eta)}")
                js[f"eta_R(x_{n})"] = poly_json(eta)
            sections_text.append(("right unit on integral generators", rows_t))
            sections_tex.append(("right unit on integral generators", rows_x))
            out_json["eta_R"] = js
            rows_t, rows_x, js = [], [], {}
            for n in range(1, max_n + 1):
                rows_t.append(f"chi(b_{n}) = {structure.chi[n]}")
                rows_x.append(f"\\chi(b_{n}) &= {poly_tex(structure.chi[n])}")
                js[f"chi(b_{n})"] = poly_json(structure.chi[n])
            sections_text.append(("conjugation", rows_t))
            sections_tex.append(("conjugation", rows_x))
            out_json["chi"] = js
            rows_t, rows_x, js = [], [], {}
            for n in range(1, max_n + 1):
                pairs = structure.psi(n)
                text = " + ".join(f"{l} (x) {r}" for l, r in pairs)
                tex = " + ".join(f"{poly_tex(l)} \\otimes {poly_tex(r)}"
                                 for l, r in pairs)
                rows_t.append(f"psi(b_{n}) = {text}")
                rows_x.append(f"\\psi(b_{n}) &= {tex}")
                js[f"psi(b_{n})"] = [{"left": poly_json(l), "right": poly_json(r)}
                                     for l, r in pairs]
            sections_text.append(("coproduct", rows_t))
            sections_tex.append(("coproduct", rows_x))
            out_json["psi"] = js
        else:
            rows_t, rows_x, js = [], [], {}
            for n in range(1, max_n + 1):
                eta = structure.eta_m_moving(n)
                rows_t.append(f"eta_R(m_{n}) = {eta}")
                rows_x.append(f"\\eta_R(m_{n}) &= {poly_tex(eta)}")
                js[f"eta_R(m_{n})"] = poly_json(eta)
            sections_text.append(("right unit in moving coordinates", rows_t))
            sections_tex.append(("right unit in moving coordinates", rows_x))
            out_json["eta_R_moving"] = js
            rows_t, rows_x, js = [], [], {}
            for n in range(1, max_n + 1):
                c = structure.c_in_xb(n)
                rows_t.append(f"c_{n} = {c}")
                rows_x.append(f"c_{n} &= {poly_tex(c)}")
                js[f"c_{n}"] = poly_json(c)
            sections_text.append(("moving coordinates", rows_t))
            sections_tex.append(("moving coordinates", rows_x))
            out_json["moving_coordinates"] = js
    return {"text": sections_text, "tex": sections_tex, "json": out_json}


def cmd_sigma(args):
    max_n = args.max_n
    sections_text, sections_tex, out_json = [], [], {}
    if args.flavor == "bp":
        p = _require_prime(args)
        tbasis = TypicalBasis(p, max_n)
        sig = sigma_bp(tbasis)
        rows_t, rows_x, js = [], [], {}
        for n in range(1, max_n + 1):
            val = sig.on_base[v_name(n)]
            rows_t.append(f"sigma(v_{n}) = {val}")
            rows_x.append(f"\\sigma(v_{n}) &= {ext_tex(val)}")
            js[f"sigma(v_{n})"] = ext_json(val)
        for n in range(1, max_n + 1):
            rows_t.append(f"sigma(lambda_{n}) = 0")
            rows_x.append(f"\\sigma(\\lambda_{n}) &= 0")
            js[f"sigma(lambda_{n})"] = {"terms": []}
        sections_text.append((f"sigma on the p-typical ring at p={p}", rows_t))
        sections_tex.append((f"sigma on the p-typical ring at p={p}", rows_x))
        out_json["sigma"] = js
        return {"text": sections_text, "tex": sections_tex, "json": out_json}

    N = max(args.truncation, max_n)
    basis = LazardBasis(N)
    if args.flavor == "mu-moving":
        sig = sigma_mu_moving(basis)
        rows_t, rows_x, js = [], [], {}
        for n in range(1, max_n + 1):
            val = sig.on_base[x_name(n)]
            rows_t.append(f"sigma(x_{n}) = {val}")
            rows_x.append(f"\\sigma(x_{n}) &= {ext_tex(val)}")
            js[f"sigma(x_{n})"] = ext_json(val)
        for n in range(1, max_n + 1):
            rows_t.append(f"sigma(lambda'_{n}) = 0")
            rows_x.append(f"\\sigma(\\lambda'_{n}) &= 0")
            js[f"sigma(lambda'_{n})"] = {"terms": []}
        sections_text.append(("sigma in moving coordinates", rows_t))
        sections_tex.append(("sigma in moving coordinates", rows_x))
        out_json["sigma"] = js
    else:
        structure = MuStructure(basis)
        sig = sigma_mu_split(structure)
        conv = lambda_in_e(structure)
        rows_t, rows_x, js = [], [], {}
        for n in range(1, max_n + 1):
            val = sig.on_base[x_name(n)]
            rows_t.append(f"sigma(x_{n}) = {val}")
            rows_x.append(f"\\sigma(x_{n}) &= {ext_tex(val)}")
            js[f"sigma(x_{n})"] = ext_json(val)
        for n in range(1, max_n + 1):
            val = sig.on_ext[n]
            rows_t.append(f"sigma(e_{n}) = {val}")
            rows_x.append(f"\\sigma(e_{n}) &= {ext_tex(val)}")
            js[f"sigma(e_{n})"] = ext_json(val)
        for n in range(1, max_n + 1):
            rows_t.append(f"lambda'_{n} = {conv[n]}")
            rows_x.append(f"\\lambda'_{n} &= {ext_tex(conv[n])}")
            js[f"lambda'_{n}"] = ext_json(conv[n])
        sections_text.append(("sigma in split coordinates", rows_t))
        sections_tex.append(("sigma in split coordinates", rows_x))
        out_json["sigma"] = js
    return {"text": sections_text, "tex": sections_tex, "json": out_json}


def group_tex(group):
    parts = ["\\mathbb{Z}"] * group.free_rank
    parts += [f"\\mathbb{{Z}}/{d}" for d in group.invariant_factors]
    return " \\oplus ".join(parts) if parts else "0"


def _degree_rows(table, d_max):
    rows_t, rows_x, js = [], [], []
    for d in range(d_max + 1):
        g = table.groups[d]
        gens = [elt for _o, elt in table.generators[d]]
        rows_t.append(f"H^{d} = {group_text(g, gens)}")
        gen_tex = ", ".join(ext_tex(e) for e in gens)
        suffix = f" \\{{{gen_tex}\\}}" if gen_tex else ""
        rows_x.append(f"H^{{{d}}} &\\cong {group_tex(g)}{suffix}")
        entry = group_json(g, gens)
        entry["degree"] = d
        entry["by_exterior_count"] = {
            str(q): group_json(table.by_q[(d, q)])
            for (dd, q) in sorted(table.by_q) if dd == d}
        js.append(entry)
    return rows_t, rows_x, js


def cmd_cohomology(args):
    d_max = args.max_degree
    if args.flavor == "bp":
        p = _require_prime(args)
        limit = bp_degree_range(p)
        if d_max > limit:
            raise UsageError(
                f"the p-typical table is established only through degree {limit}")
        tbasis = TypicalBasis(p, _bp_max_n(p, d_max))
        sig = sigma_bp(tbasis)
        table = localize_table(cohomology_groups(SigmaDifferential(sig), d_max), p)
        title = f"sigma cohomology of the p-typical ring, p={p}"
    else:
        N = args.truncation
        if N < (d_max + 1) // 2:
            raise UsageError(
                f"truncation {N} is too small for degree {d_max}; "
                f"need at least {(d_max + 1) // 2}")
        basis = LazardBasis(N)
        if args.flavor == "mu-moving":
            sig = sigma_mu_moving(basis)
        else:
            sig = sigma_mu_split(MuStructure(basis))
        table = cohomology_groups(SigmaDifferential(sig), d_max)
        title = f"sigma cohomology, {args.flavor} coordinates"
    rows_t, rows_x, js = _degree_rows(table, d_max)
    return {"text": [(title, rows_t)], "tex": [(title, rows_x)],
            "json": {"cohomology": js}}


def cmd_bar_tor(args):
    if args.flavor == "bp":
        p = _require_prime(args)
        flavor = CoordFlavor.typical(p)
    elif args.flavor == "mu-split":
        flavor = CoordFlavor.absolute()
    else:
        flavor = CoordFlavor.moving()
    rep = bar_tor_check(flavor, args.max_weight, args.max_q)
    rows_t, js = [], []
    for (q, w) in sorted(rep.table):
        g = rep.table[(q, w)]
        exp = rep.expected[(q, w)]
        ok = g.free_rank == exp and not g.invariant_factors
        rows_t.append(f"q={q} weight={w}: rank {g.free_rank} expected {exp}"
                      f" torsion {list(g.invariant_factors)} -> {'ok' if ok else 'MISMATCH'}")
        js.append({"q": q, "weight": w, "rank": g.free_rank, "expected": exp,
                   "torsion": list(g.invariant_factors)})
    if not rep.all_ok:
        raise ContractFailure("bar homology does not match the exterior algebra")
    title = f"bar homology vs exterior algebra ({flavor.tag})"
    return {"text": [(title, rows_t)], "tex": [(title, rows_t)],
            "json": {"bar_tor": js, "all_ok": rep.all_ok}}


def cmd_de_rham(args):
    d_max = args.max_degree
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
        rows_t, rows_x, js = _degree_rows(table, d_max)
        title = f"de Rham cohomology for generator weights {weights}"
        return {"text": [(title, rows_t)], "tex": [(title, rows_x)],
                "json": {"de_rham": js}}
    N = args.truncation
    if N < (d_max + 1) // 2:
        raise UsageError(
            f"truncation {N} is too small for degree {d_max}")
    basis = LazardBasis(N)
    structure = MuStructure(basis)
    sig = sigma_mu_moving(basis)
    cmp = de_rham_comparison(structure, sig, d_max)
    if not cmp.chain_map_residuals_zero:
        raise ContractFailure("a de Rham inclusion fails to be a chain map")
    rows_t, js = [], []
    for d in range(d_max + 1):
        left = cmp.forms_base.groups[d].describe()
        mid = cmp.thh.groups[d].describe()
        right = cmp.forms_coords.groups[d].describe()
        rows_t.append(f"degree {d}: H_dR(base) = {left} | H(sigma) = {mid}"
                      f" | H_dR(coords) = {right}  induced: {list(cmp.induced[d])}")
        js.append({"degree": d, "H_dR_base": group_json(cmp.forms_base.groups[d]),
                   "H_sigma": group_json(cmp.thh.groups[d]),
                   "H_dR_coords": group_json(cmp.forms_coords.groups[d]),
                   "induced": [list(t) for t in cmp.induced[d]]})
    title = "de Rham complexes bracketing the sigma cohomology"
    return {"text": [(title, rows_t)], "tex": [(title, rows_t)],
            "json": {"comparison": js, "chain_maps_ok": True}}


def cmd_verify(args):
    d_max = args.max_degree
    if args.flavor == "bp":
        p = _require_prime(args)
        limit = bp_degree_range(p)
        d_max = min(d_max, limit)
        results = verify_bp(p, max(_bp_max_n(p, d_max), 3), d_max,
                            allow_large_prime=args.unsafe_large_prime)
    else:
        N = max(args.truncation, (d_max + 1) // 2)
        results = verify_mu(args.flavor, N, d_max)
    rows = []
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "ok" if r.ok else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        rows.append(f"[{status}] {r.name}{detail}")
    js = [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results]
    out = {"text": [("consistency suite", rows)],
           "tex": [("consistency suite", rows)],
           "json": {"checks": js, "all_ok": not failed}}
    if failed:
        out["failure"] = "; ".join(r.name for r in failed)
    return out


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
        p.add_argument("--format", choices=("text", "json", "tex"), default="text")
        p.add_argument("--output", default=None)
        p.add_argument("--unsafe-large-prime", action="store_true")
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
        for flag in ("max_degree", "max_n", "max_weight", "max_q"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be nonnegative, "
                                 f"got {value}")
        results = COMMANDS[args.command](args)
        config = _config(args)
        text = emit_report(results, args.format, config)
        write_output(text, args.output)
        if results.get("failure"):
            sys.stderr.write(f"failed: {results['failure']}\n")
            return 1
        return 0
    except UsageError as err:
        sys.stderr.write(f"usage error: {err}\n")
        return 2
    except (ContractFailure, ExactAlgError) as err:
        sys.stderr.write(f"contract violation: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"i/o error: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
