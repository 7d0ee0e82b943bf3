"""Reference tests for the one derivative routine.

The de Rham differential's kernel (``SigmaTable.sigma`` on a
``DeRhamDifferential``) takes every derivative: it replaced a per-generator
``GradedPoly.partial``, the de Rham differential's loop over that method,
a hand-built matrix for the rational-collapse derivation, and the
``GradedPoly.partials`` that the logarithmic derivative once read.  Each
replaced loop is kept here as the oracle for the code that now stands in
its place.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fglthh.exactalg import GenTable, GradedPoly, _norm_coeff, rational_rank
from fglthh.fgl import TypicalBasis
from fglthh.thh import ExtElement
from fglthh.cohomology import (DeRhamDifferential, bp_degree_range,
                               log_basis_injectivity, staircase)


TABLE = GenTable([("b_1", 1), ("b_2", 2), ("b_3", 3),
                  ("x_1", 1), ("x_2", 2), ("x_3", 3)], 5)

coeffs = st.integers(min_value=-9, max_value=9)
mixed_coeffs = st.one_of(coeffs, st.builds(Fraction, coeffs, st.integers(1, 4)))


def partial_oracle(poly, name):
    """The former ``GradedPoly.partial``: one generator per pass, on the
    ``(index, exponent)`` pairs of each monomial."""
    table = poly.table
    gi = table.index(name)
    out = {}
    for packed, c in poly.terms.items():
        mono = table.exponents(packed)
        for k, (i, e) in enumerate(mono):
            if i == gi:
                rest = table.pack(mono[:k] + ((i, e - 1),) * (e > 1) + mono[k + 1:])
                s = out.get(rest, 0) + c * e
                if s:
                    out[rest] = _norm_coeff(s)
                else:
                    out.pop(rest, None)
                break
    return GradedPoly._raw(poly.table, out)


def de_rham_partials(poly):
    """Every nonzero first partial of ``poly``, keyed by generator index in
    ascending order: the coefficients of its de Rham differential, read as
    ``thh.sigma_mu_moving`` reads them."""
    diff = DeRhamDifferential(poly.table)
    d_poly = diff.sigma(ExtElement.from_base(diff.flavor, poly))
    return {k - 1: part for (k,), part in sorted(d_poly.terms.items())}


def de_rham_apply_oracle(diff, elt):
    """The former ``DeRhamDifferential.apply``: one partial per generator
    for every term."""
    gen_names = {k + 1: name for k, name in enumerate(diff.flavor.base.names)}
    out = ExtElement.zero(diff.flavor)
    for subset, coeff in elt.terms.items():
        lam = ExtElement(diff.flavor, {subset: GradedPoly.one(diff.flavor.base)})
        for n, gname in gen_names.items():
            if n in subset:
                continue
            part = partial_oracle(coeff, gname)
            if not part.is_zero():
                out = out + ExtElement(diff.flavor, {(n,): part}) * lam
    return out


def log_basis_rank_oracle(log_table, weight):
    """The former explicit matrix of the log-basis derivation on weight
    ``weight``: returns ``(rank, column count)``."""
    monos = log_table.monomials_of_weight(weight)
    rows_index = {}
    rows = []
    cols = []
    for packed in monos:
        mono = log_table.exponents(packed)
        col = {}
        for k, (gi, e) in enumerate(mono):
            rest = mono[:k] + ((gi, e - 1),) * (e > 1) + mono[k + 1:]
            key = (gi, rest)
            if key not in rows_index:
                rows_index[key] = len(rows)
                rows.append(key)
            col[rows_index[key]] = col.get(rows_index[key], 0) + e
        cols.append(col)
    matrix = [[cols[j].get(i, 0) for j in range(len(cols))]
              for i in range(len(rows))]
    return rational_rank(matrix), len(monos)


def _typed(poly):
    return {m: (c, type(c)) for m, c in poly.terms.items()}


@st.composite
def mixed_poly(draw, table=TABLE, weight=None):
    w = draw(st.integers(0, 5)) if weight is None else weight
    monos = table.monomials_of_weight(w)
    if not monos:
        return GradedPoly.zero(table)
    picks = draw(st.lists(st.sampled_from(monos), max_size=5, unique=True))
    return GradedPoly(table, {m: draw(mixed_coeffs) for m in picks})


@given(mixed_poly())
def test_partials_match_the_per_generator_partial(poly):
    parts = de_rham_partials(poly)
    for gi, name in enumerate(TABLE.names):
        want = partial_oracle(poly, name)
        if want.is_zero():
            assert gi not in parts
        else:
            assert _typed(parts[gi]) == _typed(want)


def test_partials_normalize_integral_fractions():
    pk = TABLE.pack
    poly = GradedPoly(TABLE, {pk(((0, 2),)): Fraction(1, 2), pk(((0, 1), (3, 1))): 3})
    parts = de_rham_partials(poly)
    assert _typed(parts[0]) == {pk(((0, 1),)): (1, int), pk(((3, 1),)): (3, int)}
    assert _typed(parts[3]) == {pk(((0, 1),)): (3, int)}
    assert de_rham_partials(GradedPoly.const(TABLE, 5)) == {}


DE_RHAM = DeRhamDifferential(GenTable([("y_1", 1), ("y_2", 2), ("y_3", 3)], 8))


@st.composite
def de_rham_form(draw):
    """A homogeneous form with exterior counts 0 to 2."""
    flavor = DE_RHAM.flavor
    degree = draw(st.integers(0, 16))
    terms = {}
    for subset in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        rest = degree - sum(2 * flavor.base.gens[n - 1][1] + 1 for n in subset)
        if rest >= 0 and rest % 2 == 0 and draw(st.booleans()):
            terms[subset] = draw(mixed_poly(flavor.base, rest // 2))
    return ExtElement(flavor, terms)


@given(de_rham_form())
def test_de_rham_apply_matches_the_per_generator_loop(form):
    assert DE_RHAM.apply(form) == de_rham_apply_oracle(DE_RHAM, form)


@pytest.mark.parametrize("p", (None, 2, 3, 5))
def test_log_basis_injectivity_matches_the_explicit_matrix(lazard8, p):
    # the Lazard logarithm alphabet m_1..m_8, or ell_1..ell_3 at the prime p
    if p is None:
        log_table, w_max = lazard8.m_table, 8
    else:
        log_table, w_max = TypicalBasis(p, 3).ell_table, bp_degree_range(p) // 2
    for w in range(w_max + 1):
        rank, count = log_basis_rank_oracle(log_table, w)
        d0 = staircase(DeRhamDifferential(log_table), 2 * w).diffs[0]
        assert (rational_rank(d0.entries), d0.cols) == (rank, count), w
        assert log_basis_injectivity(log_table, w) == (rank == count), w
    assert log_basis_rank_oracle(log_table, 0) == (0, 1)
    assert not log_basis_injectivity(log_table, 0)
