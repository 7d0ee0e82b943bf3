from fractions import Fraction

import pytest

from fglthh.exactalg import GradedPoly, DegreeGuardError
from fglthh.fgl import (lazard_generators, hazewinkel_generators,
                        lazard_indecomposable_unit,
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
        back = b.m_in_x(n).substitute(b.x_images(b.m_table), b.m_table)
        assert back == mg(b, n)


def test_generators_in_integer_span(lazard6):
    assert all(lazard6.integral_in_a(n) for n in range(1, 6))


def test_weight_guard(lazard6):
    with pytest.raises(DegreeGuardError):
        lazard6.rewrite_m_to_x(mg(lazard6, 1) ** 7)


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
    tb = hazewinkel_generators(2, 2)
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
    tb = hazewinkel_generators(5, 2)
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
