import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fglthh import series
from fglthh.exactalg import GenTable, GradedPoly
from fglthh.series import (TruncatedSeries, SeriesError, compose, comp_inverse,
                           series_from_coefficient_table, fgl_from_log,
                           fgl_formal_sum, lazard_coefficients)


N = 7
B = GenTable([(f"b_{n}", n) for n in range(1, N + 1)], N)
M = GenTable([(f"m_{n}", n) for n in range(1, N + 1)], N)


def bgen(n):
    return GradedPoly.gen(B, f"b_{n}")


def mgen(n):
    return GradedPoly.gen(M, f"m_{n}")


def mixed_coefficients(law):
    """The coefficients ``a_ij`` of a law with ``i, j >= 1``."""
    return {e: p for e, p in law.series.coeffs.items() if e[0] >= 1 and e[1] >= 1}


def generic_b_series(bound=N + 1):
    return series_from_coefficient_table(B, bound, {n: bgen(n) for n in range(1, N + 1)})


def generic_log(bound=N + 1):
    return series_from_coefficient_table(M, bound, {n: mgen(n) for n in range(1, N + 1)})


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_identity():
    f = generic_b_series()
    x = TruncatedSeries.variable(B, N + 1)
    assert compose(f, x) == f


def test_compose_hand_expansion():
    # f(x) = x + b1 x^2 composed with itself, expanded by hand through x^4
    bound = 4
    f = series_from_coefficient_table(B, bound, {1: bgen(1)})
    c = compose(f, f)
    assert c.coeff(1) == GradedPoly.one(B)
    assert c.coeff(2) == 2 * bgen(1)
    assert c.coeff(3) == 2 * bgen(1) ** 2
    assert c.coeff(4) == bgen(1) ** 3


def test_compose_bound_mismatch():
    f = generic_b_series(6)
    x = TruncatedSeries.variable(B, 5)
    with pytest.raises(SeriesError):
        compose(f, x)


def test_log_exp_inverse():
    log = generic_log()
    exp = comp_inverse(log)
    assert compose(log, exp) == TruncatedSeries.variable(M, N + 1)
    assert compose(exp, log) == TruncatedSeries.variable(M, N + 1)


# ---------------------------------------------------------------------------
# compositional inversion
# ---------------------------------------------------------------------------

def test_inverse_low_degree_conjugates():
    inv = comp_inverse(generic_b_series())
    b1, b2, b3, b4 = bgen(1), bgen(2), bgen(3), bgen(4)
    assert inv.coeff(2) == -b1
    assert inv.coeff(3) == 2 * b1 ** 2 - b2
    assert inv.coeff(4) == -5 * b1 ** 3 + 5 * b1 * b2 - b3
    assert inv.coeff(5) == 14 * b1 ** 4 - 21 * b1 ** 2 * b2 + 3 * b2 ** 2 + 6 * b1 * b3 - b4


def test_inverse_of_identity():
    x = TruncatedSeries.variable(B, N + 1)
    assert comp_inverse(x) == x


def test_inverse_involution():
    f = generic_b_series()
    assert comp_inverse(comp_inverse(f)) == f


def test_inverse_requires_strict():
    bad = series_from_coefficient_table(B, 5, {1: bgen(1)})
    bad = bad + TruncatedSeries.monomial(B, 5, GradedPoly.one(B), 0)
    with pytest.raises(SeriesError):
        comp_inverse(bad)


def test_weight_homogeneity_of_coefficients():
    inv = comp_inverse(generic_b_series())
    for (k,), poly in inv.coeffs.items():
        if k > 1:
            assert poly.weight() == k - 1


def recomposing_inverse(f):
    """The inversion that recomposed ``f(g)`` once per degree, kept verbatim
    as the reference for ``comp_inverse``."""
    if not f.is_strict():
        raise SeriesError("compositional inverse requires a strict series")
    table, bound = f.table, f.bound
    g = TruncatedSeries.variable(table, bound)
    for k in range(2, bound + 1):
        h = compose(f, g)
        err = h.coeff((k,))
        if not err.is_zero():
            g = g + TruncatedSeries.monomial(table, bound, -err, (k,))
    return g


SMALL = GenTable([("c_1", 1), ("c_2", 2), ("d_2", 2), ("c_3", 3)], 8)
exact_coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def strict_series(draw):
    """``x + sum c_k x^(k+1)`` with sparse weight-``k`` coefficients."""
    bound = draw(st.integers(2, 9))
    table = {}
    for k in range(1, bound):
        monos = SMALL.monomials_of_weight(k)
        picks = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
        table[k] = GradedPoly(SMALL, {m: draw(exact_coeffs) for m in picks})
    return series_from_coefficient_table(SMALL, bound, table)


@given(strict_series())
def test_inverse_matches_recomposition(f):
    inv = comp_inverse(f)
    assert inv == recomposing_inverse(f)
    assert compose(f, inv) == TruncatedSeries.variable(SMALL, f.bound)


def test_inverse_never_recomposes(monkeypatch):
    calls = []

    def counting_compose(outer, inner):
        calls.append(outer.bound)
        return compose(outer, inner)

    monkeypatch.setattr(series, "compose", counting_compose)
    comp_inverse(generic_b_series())
    assert calls == []


# ---------------------------------------------------------------------------
# the universal formal group law
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def law():
    return fgl_from_log([mgen(n) for n in range(1, N + 1)], 6)


def test_law_low_coefficients(law):
    m1, m2, m3, m4 = (mgen(n) for n in range(1, 5))
    assert law.a(1, 1) == -2 * m1
    assert law.a(1, 2) == 4 * m1 ** 2 - 3 * m2
    assert law.a(2, 2) == -20 * m1 ** 3 + 24 * m1 * m2 - 6 * m3
    assert law.a(1, 4) == 16 * m1 ** 4 - 36 * m1 ** 2 * m2 + 9 * m2 ** 2 + 16 * m1 * m3 - 5 * m4
    assert law.a(2, 3) == 72 * m1 ** 4 - 132 * m1 ** 2 * m2 + 27 * m2 ** 2 + 44 * m1 * m3 - 10 * m4


def test_additive_law():
    zeros = [GradedPoly.zero(M) for _ in range(5)]
    law = fgl_from_log(zeros, 6)
    assert not mixed_coefficients(law)


def test_law_symmetry(law):
    for (i, j) in mixed_coefficients(law):
        assert law.a(i, j) == law.a(j, i)


def test_law_coefficient_weights(law):
    for (i, j), poly in mixed_coefficients(law).items():
        assert poly.weight() == i + j - 1


def test_log_of_law_is_additive(law):
    # log F(x, y) = log(x) + log(y) through the bound
    bound = law.bound
    m_list = [mgen(n) for n in range(1, N + 1)]
    log = series_from_coefficient_table(M, bound, {n: m_list[n - 1] for n in range(1, N + 1)})
    left = compose(log, law.series)
    right = TruncatedSeries(M, 2, bound, {(k, 0): p for (k,), p in log.coeffs.items()})
    right = right + TruncatedSeries(M, 2, bound, {(0, k): p for (k,), p in log.coeffs.items()})
    assert left == right


def test_law_associativity_three_variables():
    bound = 5
    law = fgl_from_log([mgen(n) for n in range(1, N + 1)], bound)
    x = TruncatedSeries.variable(M, bound, nvars=3, which=0)
    y = TruncatedSeries.variable(M, bound, nvars=3, which=1)
    z = TruncatedSeries.variable(M, bound, nvars=3, which=2)
    assert law.evaluate(law.evaluate(x, y), z) == law.evaluate(x, law.evaluate(y, z))


def test_law_commutativity(law):
    x = TruncatedSeries.variable(M, law.bound, nvars=2, which=0)
    y = TruncatedSeries.variable(M, law.bound, nvars=2, which=1)
    assert law.evaluate(x, y) == law.evaluate(y, x)


# ---------------------------------------------------------------------------
# formal sums
# ---------------------------------------------------------------------------

def test_formal_sum_additive_case():
    mc = GenTable([(f"m_{n}", n) for n in range(1, 8)] + [("c_1", 1)], N)
    add = fgl_from_log([GradedPoly.zero(mc) for _ in range(5)], 6)
    x = TruncatedSeries.variable(mc, 6)
    t = TruncatedSeries.monomial(mc, 6, GradedPoly.gen(mc, "c_1"), 2)
    assert fgl_formal_sum(add, [x, t]) == x + t


def test_formal_sum_hand_expansion(law):
    # F(x, c1 x^2) = x + c1 x^2 + a_{11} c1 x^3 + ... by direct substitution
    mc = GenTable([(f"m_{n}", n) for n in range(1, 8)] + [("c_1", 1)], N)
    lawc = fgl_from_log([GradedPoly.gen(mc, f"m_{n}") for n in range(1, N + 1)], law.bound)
    assert mixed_coefficients(lawc) == {e: p.extend_to(mc) for e, p in mixed_coefficients(law).items()}
    x = TruncatedSeries.variable(mc, lawc.bound)
    c1 = GradedPoly.gen(mc, "c_1")
    t = TruncatedSeries.monomial(mc, lawc.bound, c1, 2)
    s = fgl_formal_sum(lawc, [x, t])
    assert s.coeff(1) == GradedPoly.one(mc)
    assert s.coeff(2) == c1
    assert s.coeff(3) == lawc.a(1, 1) * c1


def test_formal_sum_empty():
    with pytest.raises(SeriesError):
        fgl_formal_sum(None, [])


# ---------------------------------------------------------------------------
# the binomial construction against two-variable composition
# ---------------------------------------------------------------------------

def composed_law(m_list, bound):
    """The law as ``compose(exp, log(x) + log(y))``, the route
    ``fgl_from_log`` took before the binomial formula, kept verbatim as its
    reference."""
    table = m_list[0].table
    log = series_from_coefficient_table(
        table, bound, {n + 1: p for n, p in enumerate(m_list)})
    exp = comp_inverse(log)
    log_xy = TruncatedSeries(table, 2, bound,
                             {(k, 0): p for (k,), p in log.coeffs.items()})
    log_xy = log_xy + TruncatedSeries(table, 2, bound,
                                      {(0, k): p for (k,), p in log.coeffs.items()})
    return compose(exp, log_xy)


@pytest.mark.parametrize("n", range(1, 11))
def test_law_matches_composition(n):
    table = GenTable([(f"m_{k}", k) for k in range(1, n + 1)], n)
    m_list = [GradedPoly.gen(table, f"m_{k}") for k in range(1, n + 1)]
    assert fgl_from_log(m_list, n + 1).series == composed_law(m_list, n + 1)


def test_additive_law_matches_composition():
    zeros = [GradedPoly.zero(M) for _ in range(N)]
    law = fgl_from_log(zeros, N + 1)
    assert law.series == composed_law(zeros, N + 1)
    assert law.series == (TruncatedSeries.variable(M, N + 1, nvars=2, which=0)
                          + TruncatedSeries.variable(M, N + 1, nvars=2, which=1))


def test_fraction_log_matches_composition():
    # log(x) = x + m_1 x^2 / 2 + m_2 x^3 / 3 + ..., the logarithm of a
    # p-typical-like shape with non-integral coefficients
    m_list = [mgen(k).scale(Fraction(1, k + 1)) for k in range(1, N + 1)]
    law = fgl_from_log(m_list, N + 1)
    assert law.series == composed_law(m_list, N + 1)
    assert not all(p.is_integral() for p in mixed_coefficients(law).values())


def test_law_makes_no_composition(monkeypatch):
    calls = []

    def counting_compose(outer, inner):
        calls.append(inner.nvars)
        return compose(outer, inner)

    monkeypatch.setattr(series, "compose", counting_compose)
    fgl_from_log([mgen(n) for n in range(1, N + 1)], N + 1)
    assert calls == []


def test_symmetry_check_catches_a_broken_law(monkeypatch):
    # a binomial weight that is wrong only where both variables appear:
    # the identity F(x, 0) = x still holds, the symmetry does not
    def skewed(n, k):
        return math.comb(n, k) + (k if 0 < k < n else 0)

    monkeypatch.setattr(series, "comb", skewed)
    with pytest.raises(SeriesError, match="not symmetric"):
        fgl_from_log([mgen(n) for n in range(1, N + 1)], 6)


def test_fgl_from_log_insufficient_data():
    with pytest.raises(SeriesError):
        fgl_from_log([mgen(1)], 6)
    with pytest.raises(SeriesError):
        lazard_coefficients([mgen(1)], 6)
    with pytest.raises(SeriesError):
        lazard_coefficients([], 6)


# ---------------------------------------------------------------------------
# the half law a Lazard basis reads
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_lazard_coefficients_are_the_upper_half_of_the_law(n):
    table = GenTable([(f"m_{k}", k) for k in range(1, n + 1)], n)
    m_list = [GradedPoly.gen(table, f"m_{k}") for k in range(1, n + 1)]
    law = fgl_from_log(m_list, n + 1)
    half = {(i, j): p for (i, j), p in mixed_coefficients(law).items() if i <= j}
    assert lazard_coefficients(m_list, n + 1) == half


def test_lazard_coefficients_of_a_fraction_log():
    m_list = [mgen(k).scale(Fraction(1, k + 1)) for k in range(1, N + 1)]
    law = fgl_from_log(m_list, N + 1)
    assert lazard_coefficients(m_list, N + 1) == {
        (i, j): p for (i, j), p in mixed_coefficients(law).items() if i <= j}
