"""The one term writer against the per-format renderers it replaced.

``reference_text`` and ``reference_tex`` are the former ``__str__`` methods
of ``GradedPoly`` and ``ExtElement`` and the former ``cli.poly_tex`` and
``cli.ext_tex``, kept verbatim (only ``self`` and the removed helpers are
spelled as arguments).  Text must not change at all; TeX changes by exactly
the two rules of ``two_rules``.
"""

import re
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from fglthh.cli import TEX, ext_tex, poly_tex, tex_gen
from fglthh.exactalg import TEXT, GenTable, GradedPoly, coeff_text, signed_sum
from fglthh.thh import ExtElement, ThhFlavor

BASE = GenTable([("x_1", 1), ("x_2", 2), ("x_10", 3)], 8)
FLAVORS = {prefix: ThhFlavor("toy", BASE, prefix) for prefix in ("lambda'", "e", "lambda")}


# -- the former renderers ---------------------------------------------------

def old_mono_text(table, mono):
    if not mono:
        return "1"
    return "*".join(
        f"{table.gens[i][0]}^{e}" if e > 1 else table.gens[i][0]
        for i, e in table.exponents(mono))


def old_ext_text(flavor, subset):
    return "*".join(f"{flavor.ext_prefix}_{n}" for n in subset)


def old_poly_str(self):
    if not self.terms:
        return "0"
    parts = []
    for mono, c in self.sorted_terms():
        mtext = old_mono_text(self.table, mono)
        if not mono:
            body = coeff_text(abs(c))
        elif abs(c) == 1:
            body = mtext
        else:
            body = f"{coeff_text(abs(c))}*{mtext}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def old_ext_str(self):
    if not self.terms:
        return "0"
    chunks = []
    for s, p in self.sorted_terms():
        ext = old_ext_text(self.flavor, s)
        items = p.sorted_terms()
        if len(items) == 1:
            mono, c = items[0]
            body = old_mono_text(self.flavor.base, mono)
            factors = [x for x in ([body] if mono else []) + ([ext] if ext else [])]
            core = "*".join(factors) if factors else "1"
            if c == 1:
                text = core
            elif c == -1:
                text = f"-{core}"
            else:
                cstr = str(c) if not isinstance(c, Fraction) else f"{c.numerator}/{c.denominator}"
                text = f"{cstr}*{core}" if factors else cstr
        else:
            text = f"({old_poly_str(p)})*{ext}" if ext else f"({old_poly_str(p)})"
        chunks.append(text)
    out = chunks[0]
    for ch in chunks[1:]:
        if ch.startswith("-"):
            out += " - " + ch[1:]
        else:
            out += " + " + ch
    return out


def old_tex_coeff(c):
    if isinstance(c, Fraction):
        return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
    return str(c)


def old_poly_tex(poly):
    if poly.is_zero():
        return "0"
    parts = []
    for mono, c in poly.sorted_terms():
        body = " ".join(
            f"{tex_gen(poly.table.name(i))}^{{{e}}}" if e > 1 else tex_gen(poly.table.name(i))
            for i, e in poly.table.exponents(mono))
        if not mono:
            text = old_tex_coeff(c)
        elif c == 1:
            text = body
        elif c == -1:
            text = f"-{body}"
        else:
            text = f"{old_tex_coeff(c)} {body}"
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        out += f" {part}" if part.startswith("-") else f" + {part}"
    return out


def old_ext_tex(elt):
    if elt.is_zero():
        return "0"
    parts = []
    for subset, poly in elt.sorted_terms():
        ext = " ".join(tex_gen(f"{elt.flavor.ext_prefix}_{n}") for n in subset)
        items = poly.sorted_terms()
        if len(items) == 1:
            text = old_poly_tex(poly)
            text = f"{text} {ext}".strip() if text != "1" or not ext else ext
        else:
            text = f"({old_poly_tex(poly)}) {ext}".strip()
        parts.append(text)
    out = parts[0]
    for part in parts[1:]:
        out += f" {part}" if part.startswith("-") else f" + {part}"
    return out


def reference_text(x):
    return old_ext_str(x) if isinstance(x, ExtElement) else old_poly_str(x)


def reference_tex(x):
    return old_ext_tex(x) if isinstance(x, ExtElement) else old_poly_tex(x)


def two_rules(tex):
    """1. A later negative term is written `` - 3 x_3``, not `` -3 x_3``, and
    a negative fraction's sign leaves ``\\tfrac``.  2. A coefficient of -1
    before an exterior monomial with no base factor is not written."""
    tex = tex.replace("\\tfrac{-", "-\\tfrac{").replace(" + -", " - ")
    tex = re.sub(r" -(?=\S)", " - ", tex)
    return re.sub(r"(^-|- )1 (?=[^-+])", r"\1", tex)


# -- random elements ----------------------------------------------------------

coefficients = st.one_of(
    st.sampled_from([1, -1]),
    st.integers(-30, 30).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool))


@st.composite
def polys(draw):
    """Homogeneous polynomials: weight 0 gives the constants."""
    w = draw(st.integers(0, 4))
    monos = draw(st.lists(st.sampled_from(BASE.monomials_of_weight(w)), unique=True,
                          min_size=1, max_size=4))
    return GradedPoly(BASE, {m: draw(coefficients) for m in monos})


SUBSETS = [s for q in range(4) for s in combinations((1, 2, 12), q)]


@st.composite
def ext_elements(draw):
    flavor = FLAVORS[draw(st.sampled_from(sorted(FLAVORS)))]
    subsets = draw(st.lists(st.sampled_from(SUBSETS), unique=True, max_size=4))
    return ExtElement(flavor, {s: draw(polys()) for s in subsets})


def ext(prefix, terms):
    return ExtElement(FLAVORS[prefix], terms)


def const(c):
    return GradedPoly.const(BASE, c)


X1 = GradedPoly.gen(BASE, "x_1")
X2 = GradedPoly.gen(BASE, "x_2")


@settings(max_examples=300)
@given(st.one_of(polys(), ext_elements()))
@example(GradedPoly(BASE))
@example(ext("e", {}))
@example(ext("e", {(1,): const(-1)}))
@example(ext("e", {(1,): X1, (2,): const(-1)}))
@example(ext("lambda'", {(): const(-1), (1, 2): 2 * X1 * X1 - 2 * X2}))
@example(ext("lambda", {(): const(Fraction(-1, 2)), (12,): const(Fraction(-3, 4))}))
@example(X2 - Fraction(1, 3) * X1 * X1)
def test_writer_matches_the_former_renderers(x):
    assert str(x) == reference_text(x)
    assert x.render(TEXT) == str(x)
    tex = poly_tex(x) if isinstance(x, GradedPoly) else ext_tex(x)
    assert tex == x.render(TEX) == two_rules(reference_tex(x))


def test_tex_and_text_agree_on_signs():
    lam = ext("e", {(1,): const(-1)})
    assert (str(lam), ext_tex(lam)) == ("-e_1", "-e_1")
    coeff = ext("e", {(1,): 2 * X1 * X2 - 2 * GradedPoly.gen(BASE, "x_10")})
    assert str(coeff) == "(2*x_1*x_2 - 2*x_10)*e_1"
    assert ext_tex(coeff) == "(2 x_1 x_2 - 2 x_{10}) e_1"
    half = X2 - Fraction(1, 2) * X1 * X1
    assert (str(half), poly_tex(half)) == ("-1/2*x_1^2 + x_2", "-\\tfrac{1}{2} x_1^{2} + x_2")


def test_signed_sum():
    assert signed_sum([]) == "0"
    assert signed_sum([(True, "a"), (False, "b"), (True, "c")]) == "-a + b - c"
