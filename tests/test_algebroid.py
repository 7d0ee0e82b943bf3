import sys
from functools import cached_property

import pytest
from hypothesis import given, strategies as st

import fglthh.algebroid
import fglthh.series
from fglthh.cli import main
from fglthh.exactalg import GenTable, GradedPoly, IntegralityError
from fglthh.fgl import LazardBasis, m_name, x_name, ell_name
from fglthh.series import (TruncatedSeries, compose, comp_inverse, fgl_formal_sum,
                           fgl_from_log, series_from_coefficient_table)
from fglthh.algebroid import (MuStructure, generic_strict_series,
                              moving_right_unit, typicality_filter, b_name, c_name)
from fglthh.thh import lambda_in_e
from fglthh.verify import verify_mu


def gens(table, *names):
    return [GradedPoly.gen(table, n) for n in names]


# ---------------------------------------------------------------------------
# right unit, absolute coordinates
# ---------------------------------------------------------------------------

def test_eta_on_integral_generators(structure6):
    ms = structure6
    x1, x2, x3, x4 = gens(ms.xb_table, "x_1", "x_2", "x_3", "x_4")
    b1, b2, b3, b4 = gens(ms.xb_table, "b_1", "b_2", "b_3", "b_4")
    assert ms.eta_x(1) == x1 + 2 * b1
    assert ms.eta_x(2) == x2 + x1 * b1 + (3 * b2 - 2 * b1 ** 2)
    assert ms.eta_x(3) == (x3 + (2 * x2 + x1 ** 2) * b1
                           + x1 * (4 * b2 - b1 ** 2)
                           + (2 * b3 + 2 * b1 * b2 - 2 * b1 ** 3))
    assert ms.eta_x(4) == (x4 + (2 * x1 * x2 - 2 * x3) * b1
                           + x2 * (b2 - b1 ** 2)
                           + x1 * (3 * b3 - 8 * b1 * b2 + 5 * b1 ** 3)
                           + (5 * b4 - 14 * b1 * b3 - 6 * b2 ** 2
                              + 25 * b1 ** 2 * b2 - 10 * b1 ** 4))


def test_eta_m_unit_element():
    assert moving_right_unit(0) == GradedPoly.one(moving_right_unit(0).table)


def test_moving_right_unit_private_table_holds_the_divisor_pairs():
    # (i+1)(j+1) = 31^3 pairs i, j in {0, 30, 960, 29790}: m_i and c_j for
    # the three nonzero indices of each
    poly = moving_right_unit(31 ** 3 - 1)
    assert poly.table.names == ("c_30", "m_30", "c_960", "m_960", "c_29790", "m_29790")
    assert len(poly.terms) == 4


def test_eta_m_matches_inverting_over_the_larger_table(structure6):
    # reference: invert the conjugate series again over the m and b alphabets
    ms = structure6
    table = ms.mb_table
    log_mb = series_from_coefficient_table(
        table, 7, {k: GradedPoly.gen(table, m_name(k)) for k in range(1, 7)})
    f_mb = generic_strict_series(table, {k: b_name(k) for k in range(1, 7)}, 7)
    eta = compose(log_mb, comp_inverse(f_mb))
    for n in range(1, 7):
        assert ms.eta_m(n) == eta.coeff(n + 1)


def test_counit_after_eta(structure6):
    ms = structure6
    zeros = {b_name(k): GradedPoly.zero(ms.basis.m_table) for k in range(1, 7)}
    for n in range(1, 7):
        assert (ms.eta_m(n).substitute(zeros, ms.basis.m_table)
                == GradedPoly.gen(ms.basis.m_table, m_name(n)))


@given(i=st.integers(min_value=1, max_value=3), j=st.integers(min_value=1, max_value=3),
       k=st.integers(min_value=1, max_value=3), l=st.integers(min_value=1, max_value=3))
def test_eta_ring_map_on_monomials(structure6, i, j, k, l):
    # eta on a product of logarithm monomials equals the product of images
    ms = structure6
    table = ms.basis.m_table
    images = {m_name(n): ms.eta_m(n) for n in range(1, 7)}
    p1 = GradedPoly.gen(table, m_name(i)) * GradedPoly.gen(table, m_name(j))
    p2 = GradedPoly.gen(table, m_name(k)) * GradedPoly.gen(table, m_name(l))
    if i + j + k + l > 6:  # past the truncation, and past the table bound
        return
    lhs = (p1 * p2).substitute(images, ms.mb_table)
    rhs = p1.substitute(images, ms.mb_table) * p2.substitute(images, ms.mb_table)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# moving coordinates
# ---------------------------------------------------------------------------

def test_eta_moving_divisor_sums(structure6):
    ms = structure6
    m1, m3, c1, c3 = gens(ms.mc_table, "m_1", "m_3", "c_1", "c_3")
    assert ms.eta_m_moving(1) == m1 + c1
    assert ms.eta_m_moving(3) == m3 + m1 * c1 ** 2 + c3
    assert ms.eta_m_moving(0) == GradedPoly.one(ms.mc_table)


def test_moving_coordinates_low_degrees(structure6):
    ms = structure6
    x1, x2, x3 = gens(ms.xb_table, "x_1", "x_2", "x_3")
    b1, b2, b3, b4 = gens(ms.xb_table, "b_1", "b_2", "b_3", "b_4")
    assert ms.c_in_xb(1) == -b1
    assert ms.c_in_xb(2) == x1 * b1 + (2 * b1 ** 2 - b2)
    assert ms.c_in_xb(3) == (x2 * b1 - x1 ** 2 * b1 + x1 * (b2 - 2 * b1 ** 2)
                             + (-5 * b1 ** 3 + 5 * b1 * b2 - b3))
    expected4 = (14 * b1 ** 4 + (x1 ** 2 - x2) * b1 ** 2 - 21 * b1 ** 2 * b2
                 + (x1 ** 2 + x1 * b1 - x2) * (2 * b1 ** 2 - b2)
                 + x1 * (5 * b1 ** 3 - 5 * b1 * b2 + b3)
                 + (x1 ** 3 - 4 * x1 * x2 + 2 * x3) * b1
                 + 3 * b2 ** 2 + 6 * b1 * b3 - b4)
    assert ms.c_in_xb(4) == expected4


def test_moving_coordinates_additive_specialization(structure6):
    # with the integral generators killed the formal sum degenerates and
    # the moving coordinates reduce to the conjugates
    ms = structure6
    kill = {x_name(k): GradedPoly.zero(ms.b_table) for k in range(1, 7)}
    for n in range(1, 7):
        assert ms.c_in_xb(n).substitute(kill, ms.b_table) == ms.chi[n]


def test_c_in_xb_maps_back_to_c_in_mb(structure6):
    # the printed integral coordinates expand back to the formal-sum solve
    ms = structure6
    x_images = {x_name(n): ms.basis.x_in_m[n].extend_to(ms.mb_table) for n in range(1, 7)}
    for n in range(1, 7):
        assert ms.c_in_xb(n).substitute(x_images, ms.mb_table) == ms.c_in_mb(n)


def test_structure_maps_invert_the_conjugate_series_once(monkeypatch):
    calls = []

    def counting(series):
        calls.append(series.table)
        return comp_inverse(series)

    monkeypatch.setattr(fglthh.algebroid, "comp_inverse", counting)
    ms = MuStructure(LazardBasis(6))
    for read in (ms.eta_x, ms.c_in_xb, ms.c_in_mb, ms.psi):
        for n in range(1, 7):
            read(n)
    assert calls == [ms.b_table]


def test_moving_absolute_consistency(structure6):
    # the definition of the moving coordinates, which the right-unit solve
    # does not build: x +_F c_1 x^2 +_F ... +_F c_6 x^7 is the conjugate series
    ms = structure6
    mb = ms.mb_table
    law = fgl_from_log([GradedPoly.gen(mb, m_name(k)) for k in range(1, 7)], 7)
    terms = [TruncatedSeries.variable(mb, 7)] + [
        TruncatedSeries.monomial(mb, 7, ms.c_in_mb(k), k + 1) for k in range(1, 7)]
    fbar = comp_inverse(generic_strict_series(mb, {k: b_name(k) for k in range(1, 7)}, 7))
    assert fgl_formal_sum(law, terms) == fbar


# ---------------------------------------------------------------------------
# conjugation and coproduct
# ---------------------------------------------------------------------------

def test_chi_low_degrees(structure6):
    ms = structure6
    b1, b2, b3 = gens(ms.b_table, "b_1", "b_2", "b_3")
    assert ms.chi[1] == -b1
    assert ms.chi[3] == -5 * b1 ** 3 + 5 * b1 * b2 - b3


def test_chi_involution(structure6):
    ms = structure6
    images = {b_name(k): ms.chi[k] for k in range(1, 7)}
    for n in range(1, 7):
        assert (ms.chi[n].substitute(images, ms.b_table)
                == GradedPoly.gen(ms.b_table, b_name(n)))


def test_exp_coefficients(structure6):
    table = structure6.basis.m_table
    m1, m2, m3, m4 = gens(table, "m_1", "m_2", "m_3", "m_4")
    exp = comp_inverse(series_from_coefficient_table(
        table, 5, {n: GradedPoly.gen(table, m_name(n)) for n in range(1, 5)}))
    assert exp.coeff(2) == -m1
    assert exp.coeff(3) == 2 * m1 ** 2 - m2
    assert exp.coeff(4) == -5 * m1 ** 3 + 5 * m1 * m2 - m3
    assert exp.coeff(5) == (14 * m1 ** 4 - 21 * m1 ** 2 * m2 + 3 * m2 ** 2
                            + 6 * m1 * m3 - m4)


def _tensor_dict(pairs, table):
    return {tuple(sorted(l.terms)): r for l, r in pairs}


def test_psi_tables(structure6):
    ms = structure6
    b1, b2, b3, b4 = gens(ms.b_table, "b_1", "b_2", "b_3", "b_4")

    def pair_map(n):
        return {str(l): r for l, r in ms.psi(n)}

    p2 = pair_map(2)
    assert p2["b_2"] == GradedPoly.one(ms.b_table)
    assert p2["b_1"] == 2 * b1
    assert p2["1"] == b2

    p3 = pair_map(3)
    assert p3["b_3"] == GradedPoly.one(ms.b_table)
    assert p3["b_1^2"] == b1
    assert p3["b_2"] == 2 * b1
    assert p3["b_1"] == 3 * b2
    assert p3["1"] == b3

    p4 = pair_map(4)
    assert p4["b_4"] == GradedPoly.one(ms.b_table)
    assert p4["b_1*b_2"] == 2 * b1
    assert p4["b_3"] == 2 * b1
    assert p4["b_1^2"] == 3 * b2
    assert p4["b_2"] == 3 * b2
    assert p4["b_1"] == 4 * b3
    assert p4["1"] == b4


def test_psi_axioms(structure6):
    ms = structure6
    for n in range(1, 6):
        assert ms.counit_residual(n).is_zero()
        assert ms.coassociativity_residual(n).is_zero()
        assert ms.antipode_residual(n).is_zero()


def _collect_by(poly, names):
    """Group terms by their sub-monomial over the named generators.

    Returns a dict mapping the sub-monomial (on this table) to the
    cofactor polynomial in the remaining generators.
    """
    table = poly.table
    idxs = {table.index(n) for n in names}
    groups = {}
    for mono, c in poly.terms.items():
        key = sum(e * table.units[i] for i, e in table.exponents(mono) if i in idxs)
        groups.setdefault(key, {})[mono - key] = c
    return {k: GradedPoly._raw(table, v) for k, v in groups.items()}


class ReferenceMuStructure(MuStructure):
    """The earlier routes, kept as references.  The coproduct is composed
    from two copies of the split series over a doubled alphabet, ``b''`` for
    the left tensor factor and ``b'`` for the right, and renamed back to
    ``b``: the reference for the power-table coproduct and its axiom
    residuals.  The moving coordinates are solved from the formal sum
    ``x +_F c_1 x^2 +_F ... +_F c_N x^(N+1) = fbar(x)``: the reference for
    the right-unit solve."""

    @cached_property
    def _c_in_mb_table(self):
        """Moving coordinates solved degree by degree from the formal sum,
        over the logarithm and split alphabets: each coefficient of the sum
        is ``c_n`` plus a tail in the m's and the lower c's."""
        N = self.N
        mc, mb = self.mc_table, self.mb_table
        bound = N + 1
        law = fgl_from_log([GradedPoly.gen(mc, m_name(n)) for n in range(1, N + 1)], bound)
        terms = [TruncatedSeries.variable(mc, bound)]
        for k in range(1, N + 1):
            terms.append(TruncatedSeries.monomial(
                mc, bound, GradedPoly.gen(mc, c_name(k)), k + 1))
        phi = fgl_formal_sum(law, terms)

        c_solved = {}
        for n in range(1, N + 1):
            coeff = phi.coeff(n + 1)
            if coeff.coefficient_of_gen(c_name(n)) != 1:
                raise IntegralityError(
                    f"moving coordinate {n} does not enter the formal sum linearly")
            tail = coeff - GradedPoly.gen(mc, c_name(n))
            lowered = tail.substitute({c_name(j): c_solved[j] for j in range(1, n)}, mb)
            c_solved[n] = self.chi[n].extend_to(mb) - lowered
        return c_solved

    @cached_property
    def psi_tables(self):
        """Coproduct data: raw polynomials over the doubled alphabet, with the
        inner alphabet carrying the left tensor factor."""
        N = self.N
        inner = GenTable([(f"b''_{n}", n) for n in range(1, N + 1)], N)
        outer = GenTable([(f"b'_{n}", n) for n in range(1, N + 1)], N)
        both = inner.union(outer)
        f_inner = generic_strict_series(both,
                                        {n: f"b''_{n}" for n in range(1, N + 1)},
                                        N + 1)
        f_outer = generic_strict_series(both,
                                        {n: f"b'_{n}" for n in range(1, N + 1)},
                                        N + 1)
        comp = compose(f_outer, f_inner)
        return {"inner": inner, "outer": outer, "table": both,
                "raw": {n: comp.coeff(n + 1) for n in range(1, N + 1)}}

    def psi(self, n):
        """Coproduct of the weight-n split coordinate as sorted tensor pairs
        ``(left monomial, right polynomial)`` over the split alphabet."""
        self._check_range(n)
        data = self.psi_tables
        raw = data["raw"][n]
        groups = _collect_by(raw, data["inner"].names)
        pairs = []
        for inner_mono, outer_poly in groups.items():
            left = GradedPoly(data["table"], {inner_mono: 1}).substitute(
                {f"b''_{k}": GradedPoly.gen(self.b_table, b_name(k))
                 for k in range(1, self.N + 1)}, self.b_table)
            right = outer_poly.substitute(
                {f"b'_{k}": GradedPoly.gen(self.b_table, b_name(k))
                 for k in range(1, self.N + 1)}, self.b_table)
            pairs.append((left, right))
        pairs.sort(key=lambda lr: self.b_table.mono_key(next(iter(lr[0].terms))))
        return pairs

    # -- axioms -----------------------------------------------------------------

    def counit_residual(self, n):
        """``(id (x) eps) psi(b_n) - b_n``; zero when the counit axiom holds."""
        data = self.psi_tables
        images = {f"b'_{k}": GradedPoly.zero(self.b_table) for k in range(1, self.N + 1)}
        images.update({f"b''_{k}": GradedPoly.gen(self.b_table, b_name(k))
                       for k in range(1, self.N + 1)})
        folded = data["raw"][n].substitute(images, self.b_table)
        return folded - GradedPoly.gen(self.b_table, b_name(n))

    def coassociativity_residual(self, n):
        """Difference of the two double coproducts on the weight-n generator."""
        data = self.psi_tables
        N = self.N
        triple = GenTable([(f"u_{k}", k) for k in range(1, N + 1)]
                          + [(f"v_{k}", k) for k in range(1, N + 1)]
                          + [(f"w_{k}", k) for k in range(1, N + 1)], N)

        def psi_on(k, left_prefix, right_prefix):
            images = {f"b''_{j}": GradedPoly.gen(triple, f"{left_prefix}_{j}")
                      for j in range(1, N + 1)}
            images.update({f"b'_{j}": GradedPoly.gen(triple, f"{right_prefix}_{j}")
                           for j in range(1, N + 1)})
            return data["raw"][k].substitute(images, triple)

        left_first = data["raw"][n].substitute(
            {**{f"b''_{j}": psi_on(j, "u", "v") for j in range(1, N + 1)},
             **{f"b'_{j}": GradedPoly.gen(triple, f"w_{j}") for j in range(1, N + 1)}},
            triple)
        right_first = data["raw"][n].substitute(
            {**{f"b''_{j}": GradedPoly.gen(triple, f"u_{j}") for j in range(1, N + 1)},
             **{f"b'_{j}": psi_on(j, "v", "w") for j in range(1, N + 1)}},
            triple)
        return left_first - right_first

    def antipode_residual(self, n):
        """Multiply-then-fold of ``(chi (x) id) psi(b_n)``; equals the counit
        value, so it must vanish for positive weight."""
        data = self.psi_tables
        images = {f"b''_{k}": self.chi[k] for k in range(1, self.N + 1)}
        images.update({f"b'_{k}": GradedPoly.gen(self.b_table, b_name(k))
                       for k in range(1, self.N + 1)})
        return data["raw"][n].substitute(images, self.b_table)


@pytest.fixture(scope="module")
def reference8(lazard8):
    return ReferenceMuStructure(lazard8)


def test_psi_matches_the_doubled_alphabet_reference(lazard8, reference8):
    ms = MuStructure(lazard8)
    for n in range(1, 9):
        assert ms.psi(n) == reference8.psi(n)


def test_psi_makes_no_substitution_or_composition(monkeypatch, lazard8):
    ms = MuStructure(lazard8)
    calls = []
    substitute, compose_ = GradedPoly.substitute, fglthh.series.compose

    def counting_substitute(poly, images, target):
        calls.append("substitute")
        return substitute(poly, images, target)

    def counting_compose(outer, inner):
        calls.append("compose")
        return compose_(outer, inner)

    monkeypatch.setattr(GradedPoly, "substitute", counting_substitute)
    monkeypatch.setattr(fglthh.series, "compose", counting_compose)
    monkeypatch.setattr(fglthh.algebroid, "compose", counting_compose)
    for n in range(1, 9):
        ms.psi(n)
    assert calls == []


def test_c_in_mb_matches_the_formal_sum_reference(lazard8, reference8):
    ms = MuStructure(lazard8)
    for n in range(1, 9):
        assert ms.c_in_mb(n) == reference8.c_in_mb(n)


def test_structure_maps_make_no_formal_sum(monkeypatch, capsys, lazard6):
    calls = []

    def counting(law, terms):
        calls.append(len(terms))
        return fgl_formal_sum(law, terms)

    for name, module in list(sys.modules.items()):
        if name.startswith("fglthh") and hasattr(module, "fgl_formal_sum"):
            monkeypatch.setattr(module, "fgl_formal_sum", counting)
    ms = MuStructure(lazard6)
    for n in range(1, 7):
        ms.c_in_xb(n)
    lambda_in_e(lazard6)
    assert main(["sigma", "--flavor", "mu-split", "--max-n", "6", "-N", "6"]) == 0
    capsys.readouterr()
    assert calls == []


def test_verify_sees_a_wrong_right_unit(monkeypatch):
    name = "moving and absolute right units agree (n <= 6)"

    def verdict():
        return {r.name: r.ok for r in verify_mu("mu-split", 6, 6)}[name]

    assert verdict()
    eta_m = MuStructure.eta_m

    def mutated(self, n):
        out = eta_m(self, n)
        if n == 3:
            out = out + GradedPoly.gen(self.mb_table, b_name(1)) * GradedPoly.gen(
                self.mb_table, m_name(2))
        return out

    monkeypatch.setattr(MuStructure, "eta_m", mutated)
    assert not verdict()


def test_antipode_residual_sees_a_wrong_conjugate(lazard6):
    ms, ref = MuStructure(lazard6), ReferenceMuStructure(lazard6)
    for s in (ms, ref):
        s.chi[2] = s.chi[2] + GradedPoly.gen(s.b_table, b_name(2))
    assert ms.antipode_residual(1).is_zero()
    for n in range(2, 7):
        assert not ms.antipode_residual(n).is_zero()
        assert ms.antipode_residual(n) == ref.antipode_residual(n)


def test_coassociativity_residual_sees_a_wrong_power(lazard6):
    ms = MuStructure(lazard6)
    powers = ms._powers
    powers[2][4] = powers[2][4] + GradedPoly.gen(ms.b_table, b_name(2))
    for n in (1, 2):
        assert ms.coassociativity_residual(n).is_zero()
    for n in range(3, 7):
        assert not ms.coassociativity_residual(n).is_zero()


# ---------------------------------------------------------------------------
# p-typical right unit
# ---------------------------------------------------------------------------

def test_eta_typical(typical_structures):
    for p, ts in typical_structures.items():
        t = ts.ellt_table
        l1, l2, t1, t2 = gens(t, "ell_1", "ell_2", "t_1", "t_2")
        assert ts.eta_ell(1) == l1 + t1
        assert ts.eta_ell(2) == l2 + l1 * t1 ** p + t2
        for n in range(1, 4):
            assert (ts.epsilon_eta_ell(n)
                    == GradedPoly.gen(ts.tbasis.ell_table, ell_name(n)))


def test_typicality_filter(typical_structures):
    # the correspondence keeps exactly the prime-power indices
    for p, ts in typical_structures.items():
        for k in (1, 2):
            assert typicality_filter(ts, p ** k - 1) == ts.eta_ell(k)


def test_truncation_shortfall(structure6):
    from fglthh.exactalg import DegreeGuardError
    with pytest.raises(DegreeGuardError):
        structure6.eta_m(7)
    with pytest.raises(DegreeGuardError):
        structure6.eta_x(7)
    with pytest.raises(DegreeGuardError):
        structure6.psi(7)
