"""Closed-form answers the engine must reproduce.

The constant part of sigma on each polynomial generator is its Hurewicz
image modulo decomposables (Milnor-Novikov; Ravenel, *Complex Cobordism*,
3.1): c_n times the exterior partner, with c_n = p when n + 1 is a power of
the prime p and 1 otherwise, and p for every v_n.

The de Rham cohomology of Z[y_1..y_k] is the tensor product of the
one-variable complexes d(y^n) = n c y^(n-1) dy, whose groups come from the
Kunneth formula over Z (Weibel, *An Introduction to Homological Algebra*,
3.6.3).  With c_n = -lazard_indecomposable_unit(n) the same product is the
cohomology of the associated graded of sigma for the word-length filtration,
the E_1 page that bounds the mod-p cohomology of sigma from above.

Modulo (b)^2 the conjugate series is x - sum b_i x^(i+1), so the right unit
on the logarithm is eta_R(m_k) = m_k - sum_i (k-i+1) m_(k-i) b_i with
m_0 = 1, and the moving coordinate c_k is the sum alone (Ravenel, *Complex
Cobordism*, A2.1).
"""

import math
import os

import pytest
from hypothesis import given, strategies as st

from fglthh.algebroid import b_name
from fglthh.cohomology import cohomology_groups, de_rham_cohomology
from fglthh.exactalg import FinAbGroup, GenTable, GradedPoly
from fglthh.fgl import (LazardBasis, TypicalBasis, lazard_indecomposable_unit, m_name,
                        v_name, x_name)
from fglthh.thh import (ExtElement, SigmaTable, ThhFlavor, sigma_bp, sigma_mu_moving,
                        sigma_mu_split)


def constant_part(elt):
    """The terms of ``elt`` with no base generator: ``{subset: coefficient}``."""
    return {s: p.terms[0] for s, p in elt.terms.items() if 0 in p.terms}


def test_constant_part_of_sigma_mu_moving():
    sig = sigma_mu_moving(LazardBasis(16))
    for n in range(1, 17):
        assert constant_part(sig.on_base[x_name(n)]) == {(n,): -lazard_indecomposable_unit(n)}, n


def test_constant_part_of_sigma_mu_split():
    sig = sigma_mu_split(LazardBasis(12))
    for n in range(1, 13):
        assert constant_part(sig.on_base[x_name(n)]) == {(n,): lazard_indecomposable_unit(n)}, n


def b_degree_part(poly, degrees):
    """The terms of ``poly`` whose total degree in the b's is in ``degrees``."""
    table = poly.table
    b = {table.index(name) for name in table.names if name.startswith("b_")}
    return GradedPoly(table, {mono: c for mono, c in poly.terms.items()
                              if sum(e for i, e in table.exponents(mono) if i in b) in degrees})


def test_right_unit_modulo_b_squared(structure10):
    ms = structure10
    mb = ms.mb_table
    m = [GradedPoly.one(mb)] + [GradedPoly.gen(mb, m_name(j)) for j in range(1, 11)]
    for k in range(1, 11):
        correction = GradedPoly.zero(mb)
        for i in range(1, k + 1):
            correction = correction - (k - i + 1) * m[k - i] * GradedPoly.gen(mb, b_name(i))
        assert b_degree_part(ms.eta_m(k), (0, 1)) == m[k] + correction, k
        assert b_degree_part(ms.c_in_mb(k), (1,)) == correction, k


@pytest.mark.parametrize("p, max_n", [(2, 7), (3, 5), (5, 4)])
def test_constant_part_of_sigma_bp(p, max_n):
    sig = sigma_bp(TypicalBasis(p, max_n))
    for n in range(1, max_n + 1):
        assert constant_part(sig.on_base[v_name(n)]) == {(n,): p}, n


def kunneth_product(left, right, top):
    """Kunneth product through degree ``top`` of two complexes of free
    modules, each given by its groups as lists of cyclic orders (0 for Z)
    per (degree, exterior count).  A tensor product of cyclic groups has
    the gcd of their orders in the summed bidegree, and two finite ones add
    a Tor term of that order one degree and one exterior count lower."""
    out = {}
    for (d1, q1), orders1 in left.items():
        for (d2, q2), orders2 in right.items():
            for a in orders1:
                for b in orders2:
                    g = math.gcd(a, b)
                    if g == 1:
                        continue
                    if d1 + d2 <= top:
                        out.setdefault((d1 + d2, q1 + q2), []).append(g)
                    if a and b and d1 + d2 - 1 <= top:
                        out.setdefault((d1 + d2 - 1, q1 + q2 - 1), []).append(g)
    return out


def kunneth_bigraded(weights, top, coeffs=None):
    """Groups through degree ``top``, per (degree, exterior count), of the
    tensor product of the complexes d(y^n) = n c y^(n-1) dy, one per
    generator of weight w and coefficient c (default 1).  Each factor has Z
    in degree 0 and Z/(n c) in degree 2wn + 1, exterior count 1."""
    coeffs = coeffs or [1] * len(weights)
    groups = {(0, 0): [0]}
    for w, c in zip(weights, coeffs):
        factor = {(0, 0): [0], **{(2 * w * n + 1, 1): [n * c]
                                  for n in range(1, top // (2 * w) + 1)}}
        groups = kunneth_product(groups, factor, top)
    return groups


def group_of(orders):
    return FinAbGroup.from_factors(orders.count(0), [a for a in orders if a])


def kunneth_groups(weights, d_max, coeffs=None):
    """The total groups of ``kunneth_bigraded`` in degrees through ``d_max``;
    a Tor term from degree d_max + 1 lands in d_max."""
    bigraded = kunneth_bigraded(weights, d_max + 1, coeffs)
    return {d: group_of([a for (dd, _), orders in bigraded.items() if dd == d
                         for a in orders])
            for d in range(d_max + 1)}


def mu_from_bp(p, bp, d_max):
    """H(sigma_MU)_(p) through ``d_max``, per (degree, exterior count), as
    the Kunneth product of BP's cohomology table ``bp`` at p (through
    d_max + 1) with the groups of Omega_p, the de Rham complex of
    Z[y_n : n != p^k - 1] with y_n of weight n; Tor lands one degree and one
    exterior count lower.  Quillen's idempotent makes BP's complex a summand
    of MU's at p (Ravenel, *Complex Cobordism*, 4.1 and A2.1); that the
    complement is BP's complex times the rest of Omega_p is checked here,
    not proved."""
    typical = {p ** k - 1 for k in range(1, d_max + 1)}
    omega = kunneth_bigraded([w for w in range(1, d_max // 2 + 1) if w not in typical],
                             d_max + 1)
    orders = {key: [0] * g.free_rank + list(g.invariant_factors)
              for key, g in bp.by_q.items()}
    return {key: group_of(product).localize(p)
            for key, product in kunneth_product(orders, omega, d_max + 1).items()
            if key[0] <= d_max}


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_de_rham_matches_the_kunneth_formula(weights):
    table = de_rham_cohomology([(f"y_{k}", w) for k, w in enumerate(weights, 1)], 16)
    assert table.groups == kunneth_groups(weights, 16)


def test_kunneth_with_coefficients_is_the_graded_sigma():
    """x_n -> -c_n lambda'_n on the Lazard generators, the constant part of
    sigma mu-moving, has the Kunneth groups with coefficients -c_n."""
    n_max, d_max = 6, 12
    base = GenTable([(x_name(n), n) for n in range(1, n_max + 1)], d_max // 2)
    flavor = ThhFlavor("koszul", base, "lambda'")
    coeffs = [-lazard_indecomposable_unit(n) for n in range(1, n_max + 1)]
    graded = SigmaTable(flavor, {
        x_name(n): ExtElement.ext_gen(flavor, n, GradedPoly.const(base, c))
        for n, c in zip(range(1, n_max + 1), coeffs)})
    groups = cohomology_groups(graded, d_max).groups
    assert groups == kunneth_groups(range(1, n_max + 1), d_max, coeffs)
    assert groups[9] == FinAbGroup.from_factors(0, [2, 2, 120])


def check_mu_from_bp(d_max):
    """Compare H^d(sigma_MU)_(p) with ``mu_from_bp`` for every prime p <= 13
    and d <= ``d_max``, in total and per exterior count.  Returns, per p,
    the degrees in which BP's groups alone differ from MU's."""
    mu = cohomology_groups(sigma_mu_moving(LazardBasis(d_max // 2)), d_max)
    trivial = FinAbGroup.trivial()
    alone = {}
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** (n + 1) - 2 < (d_max + 1) // 2:
            n += 1
        bp = cohomology_groups(sigma_bp(TypicalBasis(p, n)), d_max + 1)
        product = mu_from_bp(p, bp, d_max)
        for d in range(d_max + 1):
            total = trivial
            for (dd, _), g in product.items():
                if dd == d:
                    total = total.direct_sum(g)
            assert mu.groups[d].localize(p) == total, (p, d)
        for key in set(mu.by_q) | set(product):
            assert mu.by_q.get(key, trivial).localize(p) == product.get(key, trivial), (p, key)
        alone[p] = [d for d in range(d_max + 1)
                    if bp.groups[d].localize(p) != mu.groups[d].localize(p)]
    return alone


def test_mu_groups_are_bp_groups_times_the_other_de_rham_groups():
    alone = check_mu_from_bp(24)
    # teeth: the degrees, per prime, in which BP's groups alone miss MU's
    assert {p: len(ds) for p, ds in alone.items()} == {2: 15, 3: 14, 5: 4, 7: 1, 11: 1, 13: 0}
    assert {p: sum(d <= 20 for d in alone[p]) for p in (2, 3, 5)} == {2: 11, 3: 10, 5: 3}


# the MU table at d=32 takes about half a minute
@pytest.mark.frontier
@pytest.mark.skipif(os.environ.get("FGLTHH_FRONTIER") != "1",
                    reason="set FGLTHH_FRONTIER=1 to run the d >= 28 checks")
def test_mu_groups_are_bp_groups_times_the_other_de_rham_groups_through_degree_32():
    assert len(check_mu_from_bp(32)[2]) == 23


def mod_p_dim(groups, d, p):
    """dim H^d(C (x) F_p) from the integral groups of a complex of free
    modules whose differential raises the degree by one: by universal
    coefficients, H^d (x) F_p plus Tor(H^(d+1), F_p)."""
    def t(g):
        return sum(1 for a in g.invariant_factors if a % p == 0)
    return groups[d].free_rank + t(groups[d]) + t(groups[d + 1])


def test_sigma_mod_p_is_bounded_by_the_e1_page(sigma_moving10):
    """The word-length filtration is finite on each staircase, so the
    spectral sequence from gr sigma (the Koszul complex with coefficients
    -c_n) bounds dim H(C (x) F_p) in every degree (Weibel, ch. 5)."""
    groups = cohomology_groups(sigma_moving10, 20).groups
    e1 = kunneth_groups(range(1, 11), 21,
                        [-lazard_indecomposable_unit(n) for n in range(1, 11)])
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    pairs = [(mod_p_dim(groups, d, p), mod_p_dim(e1, d, p))
             for d in range(20) for p in primes]
    assert all(h <= bound for h, bound in pairs)
    # the bound is sharp at 144 of the 160 (degree, prime) pairs
    assert sum(h == bound for h, bound in pairs) == 144
