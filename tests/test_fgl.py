from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fglthh.fgl
from fglthh.exactalg import (GenTable, GradedPoly, DegreeGuardError, GeneratorTableError,
                             IntegralityError, solve_rational_linear, row_hnf,
                             reduce_mod_rows, ext_gcd)
from fglthh.fgl import (LazardBasis, TypicalBasis, lazard_indecomposable_unit,
                        m_name, x_name, ell_name, v_name)


def mg(basis, n, exp=1):
    return GradedPoly.gen(basis.m_table, m_name(n), exp)


def xg(basis, n, exp=1):
    return GradedPoly.gen(basis.x_table, x_name(n), exp)


# ---------------------------------------------------------------------------
# integral generators
# ---------------------------------------------------------------------------

def test_generators_low_weights(lazard6):
    b = lazard6
    m1, m2, m3, m4 = (mg(b, n) for n in range(1, 5))
    assert b.x_in_m[1] == -2 * m1
    assert b.x_in_m[2] == 4 * m1 ** 2 - 3 * m2
    assert b.x_in_m[3] == -12 * m1 ** 3 + 12 * m1 * m2 - 2 * m3
    assert b.x_in_m[4] == (16 * m1 ** 4 - 36 * m1 ** 2 * m2 + 9 * m2 ** 2
                           + 16 * m1 * m3 - 5 * m4)


def test_indecomposable_units():
    # one less than a prime power gives that prime, otherwise a unit
    assert [lazard_indecomposable_unit(n) for n in range(1, 11)] == \
        [2, 3, 2, 5, 1, 7, 2, 3, 1, 11]


def test_auto_generator_top_coefficients(lazard10):
    b = lazard10
    for n in range(5, 11):
        top = b.x_in_m[n].coefficient_of_gen(m_name(n))
        assert abs(top) == lazard_indecomposable_unit(n), n
        assert b.x_in_m[n].is_integral()


def test_auto_generator_weight_five_is_unit(lazard6):
    # 6 is not a prime power, so the top coefficient is a unit
    assert abs(lazard6.x_in_m[5].coefficient_of_gen(m_name(5))) == 1


def _ext_gcd_combo(values):
    """Deterministic integer combination achieving gcd(values)."""
    g = 0
    combo = [0] * len(values)
    for k, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            combo = [0] * len(values)
            combo[k] = 1 if v > 0 else -1
            continue
        g, s, t = ext_gcd(g, v)
        combo = [c * s for c in combo]
        combo[k] += t
    return g, combo


def ext_gcd_generator(self, n):
    """The weight-n generator by the extended-gcd route: the combination of
    the a_ij that ``_ext_gcd_combo`` picks, reduced modulo the decomposables."""
    mono_list = self.m_table.monomials_of_weight(n)
    mono_index = {m: k for k, m in enumerate(mono_list)}
    top = self.m_table.units[self.m_table.index(m_name(n))]

    linear = [(i, n + 1 - i) for i in range(1, (n + 1) // 2 + 1)]
    tops = [int(self.a_in_m[(i, j)].coefficient_of_gen(m_name(n))) for (i, j) in linear]
    d, combo = _ext_gcd_combo(tops)
    expect = lazard_indecomposable_unit(n)
    if d != expect:
        raise IntegralityError(
            f"indecomposable coefficient {d} at weight {n}, expected {expect}")

    vec = [0] * len(mono_list)
    for c, (i, j) in zip(combo, linear):
        if not c:
            continue
        for mono, coeff in self.a_in_m[(i, j)].terms.items():
            vec[mono_index[mono]] += c * int(coeff)
    # orient the top coefficient negative, matching the low-weight table
    if vec[mono_index[top]] > 0:
        vec = [-v for v in vec]

    decomposables = []
    for mono in self.x_table.monomials_of_weight(n):
        pairs = self.x_table.exponents(mono)
        if len(pairs) == 1 and pairs[0][1] == 1:
            continue
        poly = GradedPoly.one(self.m_table)
        for gi, e in pairs:
            k = int(self.x_table.name(gi).split("_")[1])
            poly = poly * self.x_in_m[k] ** e
        row = [0] * len(mono_list)
        for m, c in poly.terms.items():
            row[mono_index[m]] = int(c)
        decomposables.append(row)
    if decomposables:
        rank_expected = len(mono_list) - 1
        hnf, pivots = row_hnf(decomposables)
        if len(hnf) != rank_expected:
            raise DegreeGuardError(
                f"decomposable lattice at weight {n} is rank-deficient; "
                "truncation too small")
        vec = reduce_mod_rows(hnf, pivots, vec)
    return GradedPoly(self.m_table,
                      {mono_list[k]: v for k, v in enumerate(vec) if v})


def test_generators_match_the_extended_gcd_route():
    """Two integral combinations of the a_ij with the same top coefficient
    differ by a decomposable, so the echelon row and the extended-gcd
    combination reduce to the same representative."""
    basis = LazardBasis(16)
    for n in range(5, 17):
        assert basis.x_in_m[n] == ext_gcd_generator(basis, n), n


def test_a_wrong_indecomposable_unit_is_an_integrality_error(monkeypatch):
    monkeypatch.setattr(fglthh.fgl, "lazard_indecomposable_unit",
                        lambda n: 2 * lazard_indecomposable_unit(n))
    with pytest.raises(IntegralityError, match="at weight 5, expected 2"):
        LazardBasis(5)


def test_rewrite_examples(lazard6):
    b = lazard6
    m1, m2, m3, m4 = (mg(b, n) for n in range(1, 5))
    poly = 16 * m1 ** 4 - 36 * m1 ** 2 * m2 + 9 * m2 ** 2 + 16 * m1 * m3 - 5 * m4
    out, integral = b.rewrite_m_to_x(poly)
    assert out == xg(b, 4) and integral

    out, integral = b.rewrite_m_to_x(m1)
    assert out == xg(b, 1).scale(Fraction(-1, 2)) and not integral

    out, integral = b.rewrite_m_to_x(8 * m1)
    assert out == -4 * xg(b, 1) and integral


def test_round_trip(lazard10):
    b = lazard10
    for n in range(1, 11):
        out, integral = b.rewrite_m_to_x(b.x_in_m[n])
        assert out == xg(b, n) and integral
        back = b.m_in_x(n).substitute(
            {x_name(k): b.x_in_m[k] for k in range(1, 11)}, b.m_table)
        assert back == mg(b, n)


def test_basis_multiplication_count(monkeypatch):
    """``LazardBasis(12)`` multiplies 1,451 pairs of polynomials, 21,701
    pairs of terms in all: the law is built only where ``a_ij`` has
    i <= j, and each decomposable x-monomial is one lighter product times
    one generator.  Splitting off the heaviest generator instead keeps the
    1,451 products but makes them larger (22,225 term pairs)."""
    sizes = []
    mul = GradedPoly.__mul__

    def counting_mul(self, other):
        sizes.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    monkeypatch.setattr(GradedPoly, "__mul__", counting_mul)
    LazardBasis(12)
    assert len(sizes) == 1451
    assert sum(sizes) == 21701


def dense_rewrite(basis, poly):
    """Reference m -> x rewrite: one rational solve per weight, whose
    columns are the weight's x-monomials expanded in the m basis."""
    w = poly.weight()
    m_monos = basis.m_table.monomials_of_weight(w)
    x_monos = basis.x_table.monomials_of_weight(w)
    index = {m: k for k, m in enumerate(m_monos)}
    matrix = [[0] * len(x_monos) for _ in m_monos]
    for j, mono in enumerate(x_monos):
        expanded = GradedPoly.one(basis.m_table)
        for gi, e in basis.x_table.exponents(mono):
            k = int(basis.x_table.name(gi).split("_")[1])
            expanded = expanded * basis.x_in_m[k] ** e
        for m, c in expanded.terms.items():
            matrix[index[m]][j] = c
    rhs = [poly.terms.get(m, 0) for m in m_monos]
    sol = solve_rational_linear(matrix, rhs)
    out = GradedPoly(basis.x_table, dict(zip(x_monos, sol)))
    return out, out.is_integral()


@st.composite
def m_polys(draw, basis):
    monos = basis.m_table.monomials_of_weight(draw(st.integers(1, 8)))
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6,
                          unique=True))
    coeff = st.fractions(min_value=-20, max_value=20,
                         max_denominator=12).filter(bool)
    return GradedPoly(basis.m_table, {mono: draw(coeff) for mono in picks})


@given(st.data())
def test_rewrite_substitution_matches_dense_solve(lazard8, data):
    poly = data.draw(m_polys(lazard8))
    assert lazard8.rewrite_m_to_x(poly) == dense_rewrite(lazard8, poly)


def test_m_in_x_matches_dense_solve(lazard10):
    for n in range(1, 11):
        expected, _ = dense_rewrite(lazard10, mg(lazard10, n))
        assert lazard10.m_in_x(n) == expected


def test_generators_in_integer_span(lazard6):
    assert all(lazard6.integral_in_a(n) for n in range(1, 6))


def a_span_columns_oracle(basis, n):
    """The former column lattice of ``integral_in_a``: products of powers of
    the a_ij of total weight ``n``, from a recursive expansion generator."""
    m_monos = basis.m_table.monomials_of_weight(n)
    index = {m: k for k, m in enumerate(m_monos)}

    def expansions(remaining, budget):
        if budget == 0:
            yield GradedPoly.one(basis.m_table)
            return
        if not remaining:
            return
        (i, j) = remaining[0]
        wt = i + j - 1
        yield from expansions(remaining[1:], budget)
        power = GradedPoly.one(basis.m_table)
        for e in range(1, budget // wt + 1):
            power = power * basis.a_in_m[(i, j)]
            for rest in expansions(remaining[1:], budget - e * wt):
                yield power * rest

    cols = []
    for poly in expansions([ij for ij in sorted(basis.a_in_m) if sum(ij) - 1 <= n], n):
        col = [0] * len(m_monos)
        for m, c in poly.terms.items():
            col[index[m]] = int(c)
        if any(col):
            cols.append(col)
    return cols


def test_a_span_lattice_matches_the_recursive_expansion(lazard10, monkeypatch):
    seen = []

    def spy(rows):
        rows = list(rows)
        seen.append(rows)
        return row_hnf(rows)

    monkeypatch.setattr(fglthh.fgl, "row_hnf", spy)
    for n in range(1, 11):
        seen.clear()
        assert lazard10.integral_in_a(n)
        new = seen[0]
        old = a_span_columns_oracle(lazard10, n)
        # the same lattice: each spanning set reduces to zero modulo the
        # other (the columns come in another order, so the echelon bases
        # agree in their pivots, not in every entry)
        for a, b in ((new, old), (old, new)):
            hnf, pivots = row_hnf(b)
            assert not any(any(reduce_mod_rows(hnf, pivots, v)) for v in a), n


def test_weight_guard(lazard6):
    with pytest.raises(DegreeGuardError):
        lazard6.rewrite_m_to_x(mg(lazard6, 1) ** 7)


def test_rewrite_refuses_another_table(lazard6):
    # the m -> x rewrite is prepared over the log table and widens nothing
    wider = GenTable(lazard6.m_table.gens, 12)
    with pytest.raises(GeneratorTableError):
        lazard6.rewrite_m_to_x(GradedPoly.gen(wider, m_name(1)))


# ---------------------------------------------------------------------------
# p-typical bases
# ---------------------------------------------------------------------------

def vg(tb, n, exp=1):
    return GradedPoly.gen(tb.v_table, v_name(n), exp)


def test_hazewinkel_low_degrees(typical_bases):
    for p, tb in typical_bases.items():
        assert tb.pn_ell(1) == vg(tb, 1)
        assert tb.pn_ell(2) == p * vg(tb, 2) + vg(tb, 1, p + 1)
        expected3 = (p ** 2 * vg(tb, 3)
                     + p * (vg(tb, 1) * vg(tb, 2, p) + vg(tb, 1, p ** 2) * vg(tb, 2))
                     + vg(tb, 1, p ** 2 + p + 1))
        assert tb.pn_ell(3) == expected3


def test_hazewinkel_p2_weight_two():
    tb = TypicalBasis(2, 2)
    assert tb.ell_in_v[2].scale(4) == 2 * vg(tb, 2) + vg(tb, 1, 3)


def test_recursion_residuals(typical_bases):
    for tb in typical_bases.values():
        for n in range(1, tb.max_n + 1):
            assert tb.recursion_residual(n).is_zero()


def test_pn_ell_integral(typical_bases):
    for tb in typical_bases.values():
        for n in range(1, 5):
            assert tb.pn_ell(n).is_integral()


def test_rewrite_ell_to_v_examples():
    tb = TypicalBasis(5, 2)
    poly = GradedPoly.gen(tb.ell_table, ell_name(2)).scale(25)
    out, integral = tb.rewrite_ell_to_v(poly)
    assert out == 5 * vg(tb, 2) + vg(tb, 1, 6) and integral

    out, integral = tb.rewrite_ell_to_v(GradedPoly.gen(tb.ell_table, ell_name(1)))
    assert out == vg(tb, 1).scale(Fraction(1, 5)) and not integral


def test_v_in_ell_round_trip(typical_bases):
    for tb in typical_bases.values():
        for n in range(1, 4):
            out, integral = tb.rewrite_ell_to_v(tb.v_in_ell(n))
            assert out == vg(tb, n) and integral
