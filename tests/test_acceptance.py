"""Acceptance suite.

One test per acceptance criterion; each runs its full corpus at exact
(zero) tolerance and prints a single pass/fail line.  Expected values are
the frozen low-degree tables and the independent oracles exercised in the
unit suites.
"""

from fglthh.exactalg import FinAbGroup, GradedPoly, invariant_factors
from fglthh.fgl import TypicalBasis, m_name, x_name, v_name, ell_name
from fglthh.algebroid import b_name, t_name
from fglthh.series import comp_inverse, series_from_coefficient_table
from fglthh.thh import ExtElement, lambda_in_e, hurewicz_mu, hurewicz_bp
from fglthh.cohomology import (staircase, basis_element,
                               cohomology_groups, localize_table,
                               bp_degree_range, rational_collapse_check,
                               bar_tor_check, de_rham_cohomology,
                               de_rham_comparison)
from fglthh.verify import minor_gcd_invariants


def report(criterion, checks):
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] acceptance criterion {criterion} "
          f"({len(checks) - len(failed)}/{len(checks)} checks)")
    assert not failed, f"criterion {criterion} failed: {failed}"


def xg(basis, n, exp=1):
    return GradedPoly.gen(basis.x_table, x_name(n), exp)


# ---------------------------------------------------------------------------
# criterion 1: structure-map corpus
# ---------------------------------------------------------------------------

def test_criterion_1_structure_maps(lazard10, structure10):
    checks = []
    b, ms = lazard10, structure10
    m1, m2, m3, m4 = (GradedPoly.gen(b.m_table, m_name(n)) for n in range(1, 5))

    expected_x = {
        1: -2 * m1,
        2: 4 * m1 ** 2 - 3 * m2,
        3: -12 * m1 ** 3 + 12 * m1 * m2 - 2 * m3,
        4: 16 * m1 ** 4 - 36 * m1 ** 2 * m2 + 9 * m2 ** 2 + 16 * m1 * m3 - 5 * m4,
    }
    for n in range(1, 5):
        checks.append((f"x_{n} in m", b.x_in_m[n] == expected_x[n]))

    x1, x2, x3, x4 = (GradedPoly.gen(ms.xb_table, x_name(n)) for n in range(1, 5))
    B1, B2, B3, B4 = (GradedPoly.gen(ms.xb_table, b_name(n)) for n in range(1, 5))
    expected_eta = {
        1: x1 + 2 * B1,
        2: x2 + x1 * B1 + (3 * B2 - 2 * B1 ** 2),
        3: (x3 + (2 * x2 + x1 ** 2) * B1 + x1 * (4 * B2 - B1 ** 2)
            + (2 * B3 + 2 * B1 * B2 - 2 * B1 ** 3)),
        4: (x4 + (2 * x1 * x2 - 2 * x3) * B1 + x2 * (B2 - B1 ** 2)
            + x1 * (3 * B3 - 8 * B1 * B2 + 5 * B1 ** 3)
            + (5 * B4 - 14 * B1 * B3 - 6 * B2 ** 2 + 25 * B1 ** 2 * B2
               - 10 * B1 ** 4)),
    }
    for n in range(1, 5):
        checks.append((f"eta_R(x_{n})", ms.eta_x(n) == expected_eta[n]))

    expected_c = {
        1: -B1,
        2: x1 * B1 + (2 * B1 ** 2 - B2),
        3: (x2 * B1 - x1 ** 2 * B1 + x1 * (B2 - 2 * B1 ** 2)
            + (-5 * B1 ** 3 + 5 * B1 * B2 - B3)),
        4: (14 * B1 ** 4 + (x1 ** 2 - x2) * B1 ** 2 - 21 * B1 ** 2 * B2
            + (x1 ** 2 + x1 * B1 - x2) * (2 * B1 ** 2 - B2)
            + x1 * (5 * B1 ** 3 - 5 * B1 * B2 + B3)
            + (x1 ** 3 - 4 * x1 * x2 + 2 * x3) * B1
            + 3 * B2 ** 2 + 6 * B1 * B3 - B4),
    }
    for n in range(1, 5):
        checks.append((f"c_{n}", ms.c_in_xb(n) == expected_c[n]))

    b1, b2, b3, b4 = (GradedPoly.gen(ms.b_table, b_name(n)) for n in range(1, 5))
    expected_chi = {
        1: -b1,
        2: 2 * b1 ** 2 - b2,
        3: -5 * b1 ** 3 + 5 * b1 * b2 - b3,
        4: 14 * b1 ** 4 - 21 * b1 ** 2 * b2 + 3 * b2 ** 2 + 6 * b1 * b3 - b4,
    }
    expected_mbar = {
        1: -m1,
        2: 2 * m1 ** 2 - m2,
        3: -5 * m1 ** 3 + 5 * m1 * m2 - m3,
        4: 14 * m1 ** 4 - 21 * m1 ** 2 * m2 + 3 * m2 ** 2 + 6 * m1 * m3 - m4,
    }
    exp_m = comp_inverse(series_from_coefficient_table(
        b.m_table, 5, {n: GradedPoly.gen(b.m_table, m_name(n)) for n in range(1, 5)}))
    for n in range(1, 5):
        checks.append((f"chi(b_{n})", ms.chi[n] == expected_chi[n]))
        checks.append((f"mbar_{n}", exp_m.coeff(n + 1) == expected_mbar[n]))

    one = GradedPoly.one(ms.b_table)
    expected_psi = {
        1: {"b_1": one, "1": b1},
        2: {"b_2": one, "b_1": 2 * b1, "1": b2},
        3: {"b_3": one, "b_1^2": b1, "b_2": 2 * b1, "b_1": 3 * b2, "1": b3},
        4: {"b_4": one, "b_1*b_2": 2 * b1, "b_3": 2 * b1, "b_1^2": 3 * b2,
            "b_2": 3 * b2, "b_1": 4 * b3, "1": b4},
    }
    for n in range(1, 5):
        got = {str(l): r for l, r in ms.psi(n)}
        checks.append((f"psi(b_{n})", got == expected_psi[n]))
    report(1, checks)


# ---------------------------------------------------------------------------
# criterion 2: p-typical corpus
# ---------------------------------------------------------------------------

def test_criterion_2_typical(typical_bases, typical_structures):
    checks = []
    for p, tb in typical_bases.items():
        def v(n, e=1):
            return GradedPoly.gen(tb.v_table, v_name(n), e)

        expected = {
            1: v(1),
            2: p * v(2) + v(1, p + 1),
            3: (p ** 2 * v(3) + p * (v(1) * v(2, p) + v(1, p ** 2) * v(2))
                + v(1, p ** 2 + p + 1)),
        }
        for n in range(1, 4):
            checks.append((f"p={p}: p^{n} ell_{n}", tb.pn_ell(n) == expected[n]))
            checks.append((f"p={p}: residual {n}", tb.recursion_residual(n).is_zero()))
        checks.append((f"p={p}: residual 4", tb.recursion_residual(4).is_zero()))
        for n in range(1, 5):
            checks.append((f"p={p}: p^{n} ell_{n} integral", tb.pn_ell(n).is_integral()))

        ts = typical_structures[p]
        t = ts.ellt_table

        def l(n):
            return GradedPoly.gen(t, ell_name(n))

        def tt(n, e=1):
            return GradedPoly.gen(t, t_name(n), e)

        expected_eta = {
            1: l(1) + tt(1),
            2: l(2) + l(1) * tt(1, p) + tt(2),
            3: l(3) + l(2) * tt(1, p ** 2) + l(1) * tt(2, p) + tt(3),
        }
        for n in range(1, 4):
            checks.append((f"p={p}: eta_R(ell_{n})", ts.eta_ell(n) == expected_eta[n]))
    report(2, checks)


# ---------------------------------------------------------------------------
# criterion 3: sigma corpus
# ---------------------------------------------------------------------------

def _sigma_squared_holds(sig, d_max):
    diff = sig
    for root in range(0, d_max + 1, 2):
        stair = staircase(diff, root)
        for q, bq in enumerate(stair.bases):
            if root + q > d_max:
                continue
            for subset, mono in bq:
                if not sig.sigma(sig.sigma(basis_element(diff, subset, mono))).is_zero():
                    return False
    return True


def test_criterion_3_sigma(lazard10, sigma_moving10, sigma_split10, sigma_bp_tables):
    checks = []
    b = lazard10
    x1, x2, x3 = xg(b, 1), xg(b, 2), xg(b, 3)
    const = lambda c: GradedPoly.const(b.x_table, c)

    def lamm(n, coeff=None):
        return ExtElement.ext_gen(sigma_moving10.flavor, n, coeff)

    expected_moving = {
        1: lamm(1, const(-2)),
        2: lamm(1, -4 * x1) + lamm(2, const(-3)),
        3: lamm(1, -(4 * x2 + 5 * x1 ** 2)) + lamm(2, -6 * x1) + lamm(3, const(-2)),
        4: (lamm(1, -4 * (2 * x3 - x1 * x2)) + lamm(2, -3 * (2 * x2 + x1 ** 2))
            + lamm(3, -8 * x1) + lamm(4, const(-5))),
    }
    for n in range(1, 5):
        checks.append((f"moving sigma(x_{n})",
                       sigma_moving10.on_base[x_name(n)] == expected_moving[n]))

    def e(n, coeff=None):
        return ExtElement.ext_gen(sigma_split10.flavor, n, coeff)

    expected_split = {
        1: e(1, const(2)),
        2: e(1, x1) + e(2, const(3)),
        3: e(1, 2 * x2 + x1 ** 2) + e(2, 4 * x1) + e(3, const(2)),
        4: e(1, 2 * x1 * x2 - 2 * x3) + e(2, x2) + e(3, 3 * x1) + e(4, const(5)),
    }
    for n in range(1, 5):
        checks.append((f"split sigma(x_{n})",
                       sigma_split10.on_base[x_name(n)] == expected_split[n]))
    checks.append(("sigma(e_1) = 0", sigma_split10.on_ext[1].is_zero()))
    checks.append(("sigma(e_2) = 0", sigma_split10.on_ext[2].is_zero()))
    checks.append(("sigma(e_3) = e_1 e_2", sigma_split10.on_ext[3] == e(1) * e(2)))
    checks.append(("sigma(e_4) = 2 e_1 e_3",
                   sigma_split10.on_ext[4] == (e(1) * e(3)).scale(2)))

    conv = lambda_in_e(lazard10)
    expected_conv = {
        1: e(1).scale(-1),
        2: e(1, x1) - e(2),
        3: e(1, x2 - x1 ** 2) + e(2, x1) - e(3),
        4: (e(1, 2 * x3 - 4 * x1 * x2 + x1 ** 3) + e(2, x2 - x1 ** 2)
            + e(3, x1) - e(4)),
    }
    for n in range(1, 5):
        checks.append((f"lambda'_{n} in e", conv[n] == expected_conv[n]))

    for p, sig in sigma_bp_tables.items():
        vt = sig.flavor.base
        v1 = GradedPoly.gen(vt, v_name(1))
        v2 = GradedPoly.gen(vt, v_name(2))
        cst = lambda c: GradedPoly.const(vt, c)

        def lb(n, coeff=None):
            return ExtElement.ext_gen(sig.flavor, n, coeff)

        expected_bp = {
            1: lb(1, cst(p)),
            2: lb(2, cst(p)) + lb(1, -(p + 1) * v1 ** p),
            3: (lb(3, cst(p))
                + lb(2, -(p * v1 * v2 ** (p - 1) + v1 ** (p * p)))
                + lb(1, -(v2 ** p - (p + 1) * v1 ** (p + 1) * v2 ** (p - 1)
                          + p * p * v1 ** (p * p - 1) * v2
                          + p * v1 ** (p * p + p)))),
        }
        for n in range(1, 4):
            checks.append((f"p={p}: sigma(v_{n})",
                           sig.on_base[v_name(n)] == expected_bp[n]))
        checks.append((f"p={p}: sigma(lambda_n) = 0",
                       all(not sig.on_ext.get(n) for n in (1, 2, 3))))

    checks.append(("sigma^2 = 0 moving through degree 20",
                   _sigma_squared_holds(sigma_moving10, 20)))
    checks.append(("sigma^2 = 0 split through degree 20",
                   _sigma_squared_holds(sigma_split10, 20)))
    for p, sig in sigma_bp_tables.items():
        checks.append((f"sigma^2 = 0 p={p} through degree {bp_degree_range(p)}",
                       _sigma_squared_holds(sig, bp_degree_range(p))))
    report(3, checks)


# ---------------------------------------------------------------------------
# criterion 4: cohomology tables
# ---------------------------------------------------------------------------

def test_criterion_4_cohomology(lazard10, sigma_moving10, sigma_split10,
                                sigma_bp_tables):
    checks = []
    moving = cohomology_groups(sigma_moving10, 10)
    split = cohomology_groups(sigma_split10, 10)
    b = lazard10

    expected = {0: FinAbGroup(1), 3: FinAbGroup.from_factors(0, [2]),
                5: FinAbGroup.from_factors(0, [4, 3]),
                7: FinAbGroup.from_factors(0, [4, 3]),
                9: FinAbGroup.from_factors(0, [16, 6, 5]),
                10: FinAbGroup.from_factors(0, [2])}
    for d in range(11):
        want = expected.get(d, FinAbGroup.trivial())
        checks.append((f"moving H^{d}", moving.groups[d] == want))
        checks.append((f"split H^{d} isomorphic", split.groups[d] == want))

    def lam(n, coeff=None):
        return ExtElement.ext_gen(sigma_moving10.flavor, n, coeff)

    def e(n, coeff=None):
        return ExtElement.ext_gen(sigma_split10.flavor, n, coeff)

    x1, x2, x3 = xg(b, 1), xg(b, 2), xg(b, 3)
    stated_moving = [
        (3, 1, lam(1), 2),
        (5, 1, lam(1, x1), 4), (5, 1, lam(2), 3),
        (7, 1, lam(3), 4), (7, 1, lam(1, 2 * x1 ** 2), 3),
        (9, 1, lam(1, x3 - 2 * x1 * x2) + lam(3, x1), 16),
        (9, 1, lam(2, x1 ** 2 - x2), 6), (9, 1, lam(4), 5),
        (10, 2, lam(1) * lam(3), 2),
    ]
    for d, q, elt, order in stated_moving:
        checks.append((f"moving degree {d} generator order {order}",
                       moving.class_order(d, q, elt) == order))
    checks.append(("moving degree 9 generators generate",
                   moving.generates(9, 1, [g for d, q, g, o in stated_moving
                                           if d == 9])))

    e3p = e(3) + e(2, 2 * x1) + e(1, x2)
    e4p = e(4) - e(2, x1 ** 2) - e(1, x3)
    e4pp = e(1, x1 * x2) + e(2, 3 * x2)
    stated_split = [
        (3, 1, e(1), 2), (5, 1, e(2), 12), (7, 1, e3p, 12),
        (9, 1, e4p, 240), (9, 1, e4pp, 2), (10, 2, e(1) * e(3), 2),
    ]
    for d, q, elt, order in stated_split:
        checks.append((f"split degree {d} generator order {order}",
                       split.class_order(d, q, elt) == order))
    checks.append(("split degree 9 generators generate",
                   split.generates(9, 1, [e4p, e4pp])))

    def p_part(order, p):
        out = 1
        while order % p == 0:
            order //= p
            out *= p
        return out

    for p, sig in sigma_bp_tables.items():
        limit = bp_degree_range(p)
        table = localize_table(cohomology_groups(sig, limit), p)
        want = {0: FinAbGroup(1)}
        for i in range(1, p):
            want[i * (2 * p - 2) + 1] = FinAbGroup(0, (p,))
        want[2 * p * p - 2 * p + 1] = FinAbGroup(0, (p * p,))
        want[2 * p * p - 1] = FinAbGroup(0, (p * p,))
        want[2 * p * p + 2 * p - 3] = FinAbGroup(0, (16 if p == 2 else p * p,))
        want[2 * p * p + 2 * p - 2] = FinAbGroup(0, (p,))
        ok = all(table.groups[d] == want.get(d, FinAbGroup.trivial())
                 for d in range(limit + 1))
        checks.append((f"p={p} table through degree {limit}", ok))
        vt = sig.flavor.base
        mixed = (ExtElement.ext_gen(sig.flavor, 1, GradedPoly.gen(vt, v_name(2)))
                 + ExtElement.ext_gen(sig.flavor, 2, GradedPoly.gen(vt, v_name(1))))
        d = 2 * p * p + 2 * p - 3
        order = p_part(table.class_order(d, 1, mixed), p)
        checks.append((f"p={p} dichotomy generator order",
                       order == (16 if p == 2 else p * p)))
    report(4, checks)


# ---------------------------------------------------------------------------
# criterion 5: rational collapse
# ---------------------------------------------------------------------------

def test_criterion_5_rational_collapse(lazard10, sigma_moving10, sigma_split10,
                                       sigma_bp_tables):
    checks = []
    for tag, sig in (("moving", sigma_moving10), ("split", sigma_split10)):
        table = cohomology_groups(sig, 10)
        rep = rational_collapse_check(table, lazard10.m_table)
        checks.append((f"{tag} ranks", rep.ranks_ok))
        checks.append((f"{tag} injectivity through weight 5 (degree 10)",
                       all(rep.injective_weights.values())))
    for p, sig in sigma_bp_tables.items():
        limit = bp_degree_range(p)
        table = cohomology_groups(sig, limit)
        rep = rational_collapse_check(table,
                                      TypicalBasis(p, 3).ell_table)
        checks.append((f"p={p} ranks", rep.ranks_ok))
        checks.append((f"p={p} injectivity", all(rep.injective_weights.values())))
    report(5, checks)


# ---------------------------------------------------------------------------
# criterion 6: oracle-backed property suites
# ---------------------------------------------------------------------------

def test_criterion_6_property_suites(lazard10, structure10, sigma_moving10,
                                     sigma_split10, sigma_bp_tables,
                                     typical_structures):
    checks = []
    ms = structure10

    # Hopf algebroid axioms through weight 5
    checks.append(("coproduct counit",
                   all(ms.counit_residual(n).is_zero() for n in range(1, 6))))
    checks.append(("coassociativity",
                   all(ms.coassociativity_residual(n).is_zero() for n in range(1, 6))))
    checks.append(("antipode",
                   all(ms.antipode_residual(n).is_zero() for n in range(1, 6))))
    images = {m_name(n): ms.eta_m(n) for n in range(1, 11)}
    ring_ok = True
    for w1 in range(1, 5):
        for w2 in range(1, 6 - w1):
            for mono1 in lazard10.m_table.monomials_of_weight(w1):
                p1 = GradedPoly(lazard10.m_table, {mono1: 1})
                for mono2 in lazard10.m_table.monomials_of_weight(w2):
                    p2 = GradedPoly(lazard10.m_table, {mono2: 1})
                    lhs = (p1 * p2).substitute(images, ms.mb_table)
                    rhs = (p1.substitute(images, ms.mb_table)
                           * p2.substitute(images, ms.mb_table))
                    if lhs != rhs:
                        ring_ok = False
    checks.append(("right unit multiplicativity through weight 5", ring_ok))

    # Smith normal form versus the gcd-of-minors oracle, every matrix of the
    # assembled ranges that fits in 8x8
    def snf_oracle(sig, d_max):
        diff = sig
        count = 0
        for root in range(0, d_max + 1, 2):
            stair = staircase(diff, root)
            for mat in stair.diffs:
                if 0 < mat.rows <= 8 and 0 < mat.cols <= 8:
                    count += 1
                    got = tuple(d for d in invariant_factors(mat) if d)
                    if got != minor_gcd_invariants(mat):
                        return None
        return count

    matrices = 0
    for sig, rng in ((sigma_moving10, 10), (sigma_split10, 10)):
        n = snf_oracle(sig, rng)
        checks.append((f"snf oracle {sig.flavor.tag}", n is not None))
        matrices += n or 0
    for p, sig in sigma_bp_tables.items():
        n = snf_oracle(sig, bp_degree_range(p))
        checks.append((f"snf oracle bp p={p}", n is not None))
        matrices += n or 0
    checks.append(("snf oracle saw matrices", matrices > 10))

    # bar homology ranks against the exterior algebra
    # both MU coalgebras have one generator per weight (prime None)
    for prime in (None, 2, 3, 5):
        rep = bar_tor_check(prime, 8, 3)
        checks.append((f"bar homology p={prime}", rep.all_ok))

    # de Rham single-generator oracle: the class of x^k dx has order k+1
    table = de_rham_cohomology([("x", 1)], 12)
    ok = table.groups[0] == FinAbGroup(1)
    for k in range(0, 5):
        if table.groups[2 * k + 3] != FinAbGroup.from_factors(0, [k + 1]):
            ok = False
    for d in range(1, 13):
        if d not in (3, 5, 7, 9, 11) and d != 0:
            if not table.groups[d].is_trivial():
                ok = False
    checks.append(("single-generator de Rham oracle through degree 12", ok))

    # both cochain inclusions are chain maps through degree 10
    cmp = de_rham_comparison(
        lazard10, sigma_moving10,
        cohomology_groups(sigma_moving10, 10), 10)
    checks.append(("inclusion chain-map residuals vanish", cmp.chain_map_residuals_zero))

    # homology images integral through weight 4
    ok = True
    for n in range(1, 5):
        _, integral = hurewicz_mu(lazard10, xg(lazard10, n))
        ok = ok and integral
    for p, ts in typical_structures.items():
        for n in range(1, ts.tbasis.max_n + 1):
            if p ** n - 1 > 4:
                break
            _, integral = hurewicz_bp(ts, GradedPoly.gen(ts.tbasis.v_table, v_name(n)))
            ok = ok and integral
    checks.append(("homology images integral through weight 4", ok))
    report(6, checks)
