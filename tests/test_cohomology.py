import os
from collections import Counter

import pytest
from hypothesis import given, strategies

from fglthh import cohomology
from fglthh.exactalg import (ComplexViolationError, FinAbGroup, GenTable, GradedPoly,
                             IntMatrix, DegreeGuardError, IntegralityError, ResourceGuardError,
                             invariant_factors)
from fglthh.fgl import LazardBasis, TypicalBasis, x_name, v_name
from fglthh.thh import ExtElement, sigma_bp, sigma_mu_moving, sigma_mu_split
from fglthh.cohomology import (DeRhamDifferential, staircase,
                               cohomology_groups, localize_table,
                               bp_degree_range,
                               rational_collapse_check, bar_tor_check,
                               de_rham_cohomology, de_rham_comparison)


@pytest.fixture(scope="module")
def moving_table(sigma_moving10):
    return cohomology_groups(sigma_moving10, 10)


@pytest.fixture(scope="module")
def split_table(sigma_split10):
    return cohomology_groups(sigma_split10, 10)


@pytest.fixture(scope="module")
def bp_tables(sigma_bp_tables):
    return {p: localize_table(cohomology_groups(sig, bp_degree_range(p)), p)
            for p, sig in sigma_bp_tables.items()}


def xg(basis, n, exp=1):
    return GradedPoly.gen(basis.x_table, x_name(n), exp)


# ---------------------------------------------------------------------------
# assembled complexes
# ---------------------------------------------------------------------------

def stair_for_degree(diff, d):
    """The staircase whose torsion sits in internal degree ``d``: rooted at
    ``d-1`` for odd ``d``, at ``d-2`` for positive even ``d``."""
    return staircase(diff, 0 if d == 0 else (d - 1 if d % 2 else d - 2))


def unpacked(diff, basis):
    """A staircase basis with each monomial as its ``(index, exponent)`` pairs."""
    return tuple((s, diff.flavor.base.exponents(m)) for s, m in basis)


def parent_basis_at(diff, degree, q):
    """Basis (exterior subset, base monomial) of one bidegree."""
    flavor = diff.flavor
    indices = [n for n in flavor.ext_indices() if 2 * flavor.base.gens[n - 1][1] + 1 <= degree]
    out = []

    def subsets(start, count, budget, acc):
        if count == 0:
            rest = degree - sum(2 * flavor.base.gens[n - 1][1] + 1 for n in acc)
            if rest >= 0 and rest % 2 == 0:
                for mono in flavor.base.monomials_of_weight(rest // 2):
                    out.append((tuple(acc), mono))
            return
        for k in range(start, len(indices)):
            n = indices[k]
            d = 2 * flavor.base.gens[n - 1][1] + 1
            if d > budget:
                break
            acc.append(n)
            subsets(k + 1, count - 1, budget - d, acc)
            acc.pop()

    subsets(0, q, degree, [])
    out.sort(key=lambda sm: (sm[0], flavor.base.mono_key(sm[1])))
    return tuple(out)


def parent_positions(diff, root):
    """The staircase bases the degree-budget search assembled: every
    position whose lightest exterior subset fits, then the trailing empty
    ones trimmed."""
    flavor = diff.flavor
    ext_degrees = sorted(2 * w + 1 for _, w in flavor.base.gens)
    bases = []
    q = 0
    while True:
        min_ext = sum(ext_degrees[:q]) if q <= len(ext_degrees) else None
        if min_ext is None or min_ext > root + q:
            break
        bases.append(parent_basis_at(diff, root + q, q))
        q += 1
    while len(bases) > 1 and not bases[-1]:
        bases.pop()
    return tuple(bases)


def assert_positions_match(diff):
    for root in range(0, 2 * diff.flavor.base.bound + 1, 2):
        assert staircase(diff, root).bases == parent_positions(diff, root), root


@given(strategies.lists(strategies.integers(1, 8), min_size=1, max_size=6),
       strategies.integers(0, 5))
def test_staircase_positions_match_the_degree_budget_search(weights, bound):
    """A position is the weight-k part of the Koszul complex, k = root / 2:
    the same bases, interior empty positions included, as the search over
    exterior subsets under a degree budget, on tables with repeated weights,
    gaps and weights above the bound."""
    table = GenTable([(f"y_{k}", w) for k, w in enumerate(weights, 1)], bound)
    assert_positions_match(DeRhamDifferential(table))


def test_staircase_positions_match_on_the_sigma_tables(lazard8, sigma_bp_tables):
    for diff in (sigma_mu_moving(LazardBasis(N)) for N in range(1, 8)):
        assert_positions_match(diff)
    assert_positions_match(sigma_mu_moving(lazard8))
    for p in (2, 3):
        assert_positions_match(sigma_bp_tables[p])


def test_displayed_two_by_two(sigma_moving10):
    st = stair_for_degree(sigma_moving10, 5)
    assert st.diffs[0].entries == ((-4, -4), (0, -3))
    # basis x_1^2, x_2 maps to basis x_1*lambda'_1, lambda'_2
    assert unpacked(sigma_moving10, st.bases[0]) == (((), ((0, 2),)), ((), ((1, 1),)))
    assert unpacked(sigma_moving10, st.bases[1]) == (((1,), ((0, 1),)), ((2,), ()))


def test_displayed_degree_ten_block(sigma_moving10):
    st = stair_for_degree(sigma_moving10, 10)
    assert st.root == 8
    assert st.diffs[0].entries[0] == (-8, -4, -5, 0, 0)
    assert st.diffs[0].rows == 7 and st.diffs[0].cols == 5
    assert st.diffs[1].entries == ((0, -3, -6, 4, 4, 0, 0),
                                   (0, 0, -2, 0, 0, 2, 0))


def test_degree_zero_complex(sigma_moving10):
    st = stair_for_degree(sigma_moving10, 0)
    assert unpacked(sigma_moving10, st.bases[0]) == (((), ()),)
    assert st.diffs[0].is_zero()


def test_degree_guard(monkeypatch, sigma_moving10):
    # the truncation is the base bound 10: roots stop at 20, degrees at 21
    built = []
    monkeypatch.setattr(cohomology, "staircase",
                        lambda diff, root: built.append(root))
    with pytest.raises(DegreeGuardError):
        cohomology_groups(sigma_moving10, 22)
    assert built == []
    monkeypatch.undo()
    with pytest.raises(DegreeGuardError):
        staircase(sigma_moving10, 22)


def printed_table(table):
    return ({d: table.groups[d] for d in range(table.d_max + 1)},
            {d: [(order, str(elt)) for order, elt in table.generators[d]]
             for d in range(table.d_max + 1)})


@pytest.mark.parametrize("build, small, large", [
    (lambda N: sigma_mu_moving(LazardBasis(N)), 3, 4),
    (lambda N: sigma_mu_moving(LazardBasis(N)), 7, 8),
    (lambda N: sigma_mu_split(LazardBasis(N)), 6, 7),
    (lambda n: sigma_bp(TypicalBasis(2, n)), 1, 2),
    (lambda n: sigma_bp(TypicalBasis(2, n)), 2, 3),
], ids=["mu-moving-3", "mu-moving-7", "mu-split-6", "bp-2-1", "bp-2-2"])
def test_the_degree_limit_is_exact(build, small, large):
    """Through 2b + 1 for the base bound b, the groups and printed
    generators are those of the next larger truncation."""
    sig = build(small)
    d_max = 2 * sig.flavor.base.bound + 1
    assert (printed_table(cohomology_groups(sig, d_max))
            == printed_table(cohomology_groups(build(large), d_max)))


def test_de_rham_cohomology_answers_an_odd_degree():
    # its table has bound d_max // 2 = 4, so degree 9 is at the limit
    gens = [("y_1", 1), ("y_2", 2), ("y_3", 3)]
    assert (printed_table(de_rham_cohomology(gens, 9))
            == printed_table(cohomology_groups(DeRhamDifferential(GenTable(gens, 5)), 9)))


# ---------------------------------------------------------------------------
# torsion tables, moving coordinates
# ---------------------------------------------------------------------------

def test_moving_table_matches(moving_table, lazard10, sigma_moving10):
    t = moving_table
    assert t.groups[0] == FinAbGroup(1)
    for d in (1, 2, 4, 6, 8):
        assert t.groups[d].is_trivial()
    assert t.groups[3] == FinAbGroup.from_factors(0, [2])
    assert t.groups[5] == FinAbGroup.from_factors(0, [4, 3])
    assert t.groups[7] == FinAbGroup.from_factors(0, [4, 3])
    assert t.groups[9] == FinAbGroup.from_factors(0, [16, 6, 5])
    assert t.groups[10] == FinAbGroup.from_factors(0, [2])

    fl = sigma_moving10.flavor
    b = lazard10

    def lam(n, coeff=None):
        return ExtElement.ext_gen(fl, n, coeff)

    assert t.class_order(3, 1, lam(1)) == 2
    assert t.class_order(5, 1, lam(1, xg(b, 1))) == 4
    assert t.class_order(5, 1, lam(2)) == 3
    assert t.generates(5, 1, [lam(1, xg(b, 1)), lam(2)])
    assert t.class_order(7, 1, lam(3)) == 4
    assert t.class_order(7, 1, lam(1, 2 * xg(b, 1) ** 2)) == 3
    assert t.generates(7, 1, [lam(3), lam(1, 2 * xg(b, 1) ** 2)])
    g16 = lam(1, xg(b, 3) - 2 * xg(b, 1) * xg(b, 2)) + lam(3, xg(b, 1))
    g6 = lam(2, xg(b, 1) ** 2 - xg(b, 2))
    g5 = lam(4)
    assert t.class_order(9, 1, g16) == 16
    assert t.class_order(9, 1, g6) == 6
    assert t.class_order(9, 1, g5) == 5
    assert t.generates(9, 1, [g16, g6, g5])
    assert t.class_order(10, 2, lam(1) * lam(3)) == 2


# ---------------------------------------------------------------------------
# torsion tables, split coordinates
# ---------------------------------------------------------------------------

def test_split_table_matches(split_table, lazard10, sigma_split10):
    t = split_table
    assert t.groups[3] == FinAbGroup.from_factors(0, [2])
    assert t.groups[5] == FinAbGroup.from_factors(0, [12])
    assert t.groups[7] == FinAbGroup.from_factors(0, [12])
    assert t.groups[9] == FinAbGroup.from_factors(0, [240, 2])
    assert t.groups[10] == FinAbGroup.from_factors(0, [2])

    fl = sigma_split10.flavor
    b = lazard10

    def e(n, coeff=None):
        return ExtElement.ext_gen(fl, n, coeff)

    assert t.class_order(3, 1, e(1)) == 2
    assert t.class_order(5, 1, e(2)) == 12
    assert t.generates(5, 1, [e(2)])
    e3p = e(3) + e(2, 2 * xg(b, 1)) + e(1, xg(b, 2))
    assert t.class_order(7, 1, e3p) == 12
    assert t.generates(7, 1, [e3p])
    e4p = e(4) - e(2, xg(b, 1) ** 2) - e(1, xg(b, 3))
    e4pp = e(1, xg(b, 1) * xg(b, 2)) + e(2, 3 * xg(b, 2))
    assert t.class_order(9, 1, e4p) == 240
    assert t.class_order(9, 1, e4pp) == 2
    assert t.generates(9, 1, [e4p, e4pp])
    assert t.class_order(10, 2, e(1) * e(3)) == 2


@pytest.fixture(scope="module")
def mu_tables16(lazard8):
    return {"mu-moving": cohomology_groups(sigma_mu_moving(lazard8), 16),
            "mu-split": cohomology_groups(sigma_mu_split(lazard8), 16)}


def printed_generators(table):
    """``(d, q, order, element)`` for each printed generator, ``q`` its
    exterior count, with one summand of ``by_q`` per generator."""
    out = []
    for d, gens in table.generators.items():
        for order, elt in gens:
            (q,) = {len(s) for s in elt.terms}
            out.append((d, q, order, elt))
    summands = sum(g.free_rank + len(g.invariant_factors) for g in table.by_q.values())
    assert len(out) == summands
    return out


@pytest.mark.parametrize("flavor", ("mu-moving", "mu-split"))
def test_printed_generators_have_their_orders_and_generate(mu_tables16, flavor):
    # the read path from the staircase maps: each printed generator has its
    # printed order, and each position's generators generate its group
    table = mu_tables16[flavor]
    by_position = {key: [] for key in table.by_q}
    for d, q, order, elt in printed_generators(table):
        assert table.class_order(d, q, elt) == order, (d, q)
        by_position[(d, q)].append(elt)
    for (d, q), elts in by_position.items():
        assert table.generates(d, q, elts), (d, q)
        if elts:
            assert not table.generates(d, q, elts[1:]), (d, q)


def test_printed_bp_generators_have_their_p_local_orders(bp_tables):
    table = bp_tables[3]
    assert table.d_max == 24
    for d, q, order, elt in printed_generators(table):
        got = table.class_order(d, q, elt)
        assert (p_part(got, 3) if got else 0) == order, (d, q)


def test_moving_split_isomorphic(moving_table, split_table):
    for d in range(11):
        assert moving_table.groups[d] == split_table.groups[d]


# ---------------------------------------------------------------------------
# p-typical tables
# ---------------------------------------------------------------------------

def closed_form(p):
    """Expected p-typical table from the closed-form description."""
    out = {d: FinAbGroup.trivial() for d in range(bp_degree_range(p) + 1)}
    out[0] = FinAbGroup(1)
    for i in range(1, p):
        out[i * (2 * p - 2) + 1] = FinAbGroup(0, (p,))
    out[2 * p * p - 2 * p + 1] = FinAbGroup(0, (p * p,))
    out[2 * p * p - 1] = FinAbGroup(0, (p * p,))
    dichotomy = 16 if p == 2 else p * p
    out[2 * p * p + 2 * p - 3] = FinAbGroup(0, (dichotomy,))
    out[2 * p * p + 2 * p - 2] = FinAbGroup(0, (p,))
    return out


def p_part(order, p):
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out


def test_bp_tables_match_closed_form(bp_tables):
    for p, table in bp_tables.items():
        expected = closed_form(p)
        for d in range(bp_degree_range(p) + 1):
            assert table.groups[d] == expected[d], (p, d)


def test_bp_stated_generators(bp_tables, sigma_bp_tables):
    for p, table in bp_tables.items():
        fl = sigma_bp_tables[p].flavor
        vt = fl.base

        def lam(n, coeff=None):
            return ExtElement.ext_gen(fl, n, coeff)

        v1 = GradedPoly.gen(vt, v_name(1))
        v2 = GradedPoly.gen(vt, v_name(2))
        for i in range(1, p):
            elt = lam(1, v1 ** (i - 1)) if i > 1 else lam(1)
            d = i * (2 * p - 2) + 1
            assert p_part(table.class_order(d, 1, elt), p) == p
        d = 2 * p * p - 2 * p + 1
        assert p_part(table.class_order(d, 1, lam(1, v1 ** (p - 1))), p) == p * p
        d = 2 * p * p - 1
        assert p_part(table.class_order(d, 1, lam(2)), p) == p * p
        d = 2 * p * p + 2 * p - 3
        mixed = lam(1, v2) + lam(2, v1)
        expected = 16 if p == 2 else p * p
        assert p_part(table.class_order(d, 1, mixed), p) == expected
        d = 2 * p * p + 2 * p - 2
        assert p_part(table.class_order(d, 2, lam(1) * lam(2)), p) == p


def test_bp_odd_concentration(bp_tables):
    # torsion sits in odd degrees strictly below 2p^2 + 2p - 2, and that
    # degree itself breaks the pattern
    for p, table in bp_tables.items():
        edge = 2 * p * p + 2 * p - 2
        for d in range(1, edge):
            if d % 2 == 0:
                assert table.groups[d].is_trivial(), (p, d)
        assert not table.groups[edge].is_trivial()


def bp_summand_counts(d_max):
    # Quillen's idempotent splits the sigma complex of MU, localized at p,
    # with that of BP as a summand (Ravenel, *Complex Cobordism*, 4.1 and
    # A2.1).  So each H^d(sigma_BP)_(p) is a summand of H^d(sigma_MU)_(p):
    # its p-primary factors form a sub-multiset and its free rank is no larger.
    # Returns the number of degrees where MU_(p) is strictly larger, per p.
    mu = cohomology_groups(sigma_mu_moving(LazardBasis(d_max // 2)), d_max).groups
    larger = {}
    for p in (2, 3, 5, 7, 11, 13):
        n = 1
        while p ** (n + 1) - 2 < d_max // 2:
            n += 1
        bp = cohomology_groups(sigma_bp(TypicalBasis(p, n)), d_max).groups
        for d in range(d_max + 1):
            small, big = bp[d].localize(p), mu[d].localize(p)
            assert small.free_rank <= big.free_rank, (p, d)
            assert not Counter(small.primary()) - Counter(big.primary()), (p, d)
        larger[p] = sum(bp[d].localize(p) != mu[d].localize(p) for d in range(d_max + 1))
    return larger


def test_bp_is_a_summand_of_mu_at_each_prime():
    # the counts give the check teeth
    assert bp_summand_counts(24) == {2: 15, 3: 14, 5: 4, 7: 1, 11: 1, 13: 0}


# the MU table at d=32 takes about half a minute
@pytest.mark.frontier
@pytest.mark.skipif(os.environ.get("FGLTHH_FRONTIER") != "1",
                    reason="set FGLTHH_FRONTIER=1 to run the d >= 28 checks")
def test_bp_is_a_summand_of_mu_through_degree_32():
    assert bp_summand_counts(32) == {2: 23, 3: 22, 5: 10, 7: 4, 11: 1, 13: 1}


# ---------------------------------------------------------------------------
# rational collapse
# ---------------------------------------------------------------------------

def test_rational_collapse_mu(moving_table, lazard10):
    rep = rational_collapse_check(moving_table, lazard10.m_table)
    assert rep.all_ok
    assert rep.ranks[0] == 1 and all(rep.ranks[d] == 0 for d in range(1, 11))
    assert rep.injective_weights[5]


def test_rational_collapse_bp(sigma_bp_tables):
    for p, sig in sigma_bp_tables.items():
        d_max = 14 if p == 2 else bp_degree_range(p)
        table = cohomology_groups(sig, min(d_max, bp_degree_range(p)))
        from fglthh.fgl import TypicalBasis
        rep = rational_collapse_check(table, TypicalBasis(p, 3).ell_table)
        assert rep.all_ok


# ---------------------------------------------------------------------------
# bar homology
# ---------------------------------------------------------------------------

def test_bar_tor_moving_full():
    rep = bar_tor_check(None, 8, 3)
    assert rep.all_ok
    for w in range(1, 9):
        assert rep.table[(1, w)] == FinAbGroup(1), w
    assert rep.table[(2, 3)] == FinAbGroup(1)
    assert rep.expected[(2, 3)] == 1
    assert rep.table[(0, 0)] == FinAbGroup(1)
    assert all(rep.table[(0, w)].is_trivial() for w in range(1, 9))


def test_bar_tor_typical():
    for p in (2, 3, 5):
        rep = bar_tor_check(p, 8, 3)
        assert rep.all_ok
        # rank one exactly at the generator weights
        for w in range(1, 9):
            expected = 1 if w in {p ** k - 1 for k in (1, 2, 3)} else 0
            assert rep.table[(1, w)].free_rank == expected


def test_bar_generator_weights():
    # at p = 3 the generators sit in weights 2 and 8; at p = 5 none is in
    # range through weight 3, so only the unit survives
    rep = bar_tor_check(3, 8, 1)
    assert [w for w in range(9) if rep.expected[(1, w)]] == [2, 8]
    rep = bar_tor_check(5, 3, 3)
    assert rep.all_ok
    assert rep.table[(0, 0)] == FinAbGroup(1)
    assert all(g.is_trivial() for k, g in rep.table.items() if k != (0, 0))
    assert sum(rep.expected.values()) == 1


def bar_bases_oracle(table, weight_max, q_max):
    """The former recursive enumeration of the normalized bar bases."""
    bases = {}
    for q in range(q_max + 2):
        for w in range(weight_max + 1):
            if q == 0:
                bases[(q, w)] = [()] if w == 0 else []
                continue
            out = []

            def rec(left, acc):
                if len(acc) == q:
                    if left == 0:
                        out.append(tuple(acc))
                    return
                remaining = q - len(acc)
                for part in range(1, left - (remaining - 1) + 1):
                    for mono in table.monomials_of_weight(part):
                        acc.append(mono)
                        rec(left - part, acc)
                        acc.pop()

            rec(w, [])
            out.sort(key=lambda tup: tuple(table.mono_key(m) for m in tup))
            bases[(q, w)] = out
    return bases


def expected_rank_oracle(weights, q, w):
    """The former recursive count of q-element generator sets of weight w."""
    count = 0

    def rec(start, left, depth):
        nonlocal count
        if depth == 0:
            count += left == 0
            return
        for k in range(start, len(weights)):
            if weights[k] > left:
                break
            rec(k + 1, left - weights[k], depth - 1)

    rec(0, w, q)
    return count


@pytest.mark.parametrize("prime", (None, 2, 3), ids=("one-per-weight", "p2", "p3"))
def test_bar_bases_match_the_recursive_enumeration(prime, monkeypatch):
    import fglthh.cohomology
    seen = []

    def spy(matrix):
        seen.append(matrix.entries)
        return invariant_factors(matrix)

    # each bar map's Smith diagonal is taken once, in order of weight, then q
    monkeypatch.setattr(fglthh.cohomology, "invariant_factors", spy)
    rep = bar_tor_check(prime, 8, 3)
    weights = (list(range(1, 9)) if prime is None
               else [w for w in (prime - 1, prime ** 2 - 1, prime ** 3 - 1) if w <= 8])
    bases = bar_bases_oracle(GenTable([(f"g_{k}", w) for k, w in enumerate(weights, 1)], 8),
                             8, 3)
    want = []
    for w in range(9):
        for q in range(4):
            assert rep.expected[(q, w)] == expected_rank_oracle(weights, q, w)
            # the bar map out of position q + 1, rows indexed by position q
            dom, cod = bases[(q + 1, w)], bases[(q, w)]
            index = {t: k for k, t in enumerate(cod)}
            rows = [[0] * len(dom) for _ in cod]
            for j, tup in enumerate(dom):
                for i in range(1, q + 1):
                    merged = tup[:i - 1] + (tup[i - 1] + tup[i],) + tup[i + 1:]
                    rows[index[merged]][j] += -1 if i % 2 else 1
            want.append(tuple(map(tuple, rows)))
    assert seen == want


def test_bar_tor_guard():
    with pytest.raises(ResourceGuardError):
        bar_tor_check(None, 9, 3)
    with pytest.raises(ResourceGuardError):
        bar_tor_check(None, 8, 4)


def test_a_perturbed_bar_map_is_a_complex_violation(monkeypatch):
    # one more at the corner of every bar map: the groups alone would not
    # notice, so the check on each consecutive pair must
    def perturbed(rows, cols, entries):
        if rows and cols:
            entries = ((entries[0][0] + 1, *entries[0][1:]), *entries[1:])
        return IntMatrix(rows, cols, entries)

    monkeypatch.setattr(cohomology, "IntMatrix", perturbed)
    with pytest.raises(ComplexViolationError, match="do not compose to zero"):
        bar_tor_check(None, 4, 2)


class SquareNonzero:
    """The exterior derivative on forms in x_1, x_2 of weight 1, except that
    every 1-form with a linear coefficient goes to dx_1 dx_2, so
    d(d(x_1^2)) = d(2 x_1 dx_1) = 2 dx_1 dx_2 is not zero."""

    def __init__(self):
        self.derham = DeRhamDifferential(GenTable([("x_1", 1), ("x_2", 1)], 2))
        self.flavor = self.derham.flavor

    def apply(self, elt):
        if any(len(s) == 1 and c.weight() == 1 for s, c in elt.terms.items()):
            return ExtElement(self.flavor, {(1, 2): GradedPoly.one(self.flavor.base)})
        return self.derham.apply(elt)


def test_a_nonzero_square_is_a_complex_violation():
    with pytest.raises(ComplexViolationError, match="do not compose to zero"):
        staircase(SquareNonzero(), 4)
    with pytest.raises(ComplexViolationError, match="do not compose to zero"):
        cohomology_groups(SquareNonzero(), 4)


# ---------------------------------------------------------------------------
# de Rham
# ---------------------------------------------------------------------------

def test_de_rham_single_generator_oracle():
    # d(x^(k+1)) = (k+1) x^k dx, so the class of x^k dx has order k+1;
    # with the differential one degree above the generator that class
    # sits in degree 2k+3
    table = de_rham_cohomology([("x", 1)], 12)
    assert table.groups[0] == FinAbGroup(1)
    for k in range(0, 5):
        d = 2 * k + 3
        expected = FinAbGroup.from_factors(0, [k + 1])
        assert table.groups[d] == expected, k
    for d in range(1, 13):
        if d % 2 == 0 or (d - 3) // 2 > 4:
            assert table.groups[d].is_trivial() or d in (3, 5, 7, 9, 11)


def test_de_rham_h0_polynomial_ring():
    table = de_rham_cohomology([("y_1", 1), ("y_2", 2)], 4)
    assert table.groups[0] == FinAbGroup(1)


def test_de_rham_comparison(lazard10, sigma_moving10, moving_table):
    rep = de_rham_comparison(lazard10, sigma_moving10, moving_table, 10)
    assert rep.chain_map_residuals_zero
    # the bracketing maps are rational isomorphisms only: integrally the
    # middle groups are strictly bigger in several degrees; one de Rham
    # table stands for both the base and the homology ring
    assert moving_table.groups[5] == FinAbGroup.from_factors(0, [12])
    assert rep.forms.groups[5] == FinAbGroup.from_factors(0, [2])


def test_de_rham_comparison_maps_each_coefficient_once(monkeypatch, lazard10,
                                                      sigma_moving10, moving_table):
    from fglthh import cohomology

    seen = []

    def counting(basis, poly):
        seen.append(frozenset(poly.terms.items()))
        return real(basis, poly)

    real = cohomology.hurewicz_mu
    monkeypatch.setattr(cohomology, "hurewicz_mu", counting)
    rep = de_rham_comparison(lazard10, sigma_moving10, moving_table, 10)
    assert rep.chain_map_residuals_zero
    assert seen and len(seen) == len(set(seen))

    # a non-integral image still stops the comparison
    monkeypatch.setattr(cohomology, "hurewicz_mu",
                        lambda basis, poly: (real(basis, poly)[0], False))
    with pytest.raises(IntegralityError):
        de_rham_comparison(lazard10, sigma_moving10, moving_table, 10)


def test_de_rham_comparison_asks_each_position_once(monkeypatch, lazard10,
                                                    sigma_moving10, moving_table):
    # the induced orders of one target position share one echelon basis,
    # and they match the orders asked one class at a time
    from fglthh.cohomology import CohomologyTable

    asked = []

    def counting(table, d, q, elts):
        asked.append((id(table), d, q))
        orders = real(table, d, q, elts)
        assert orders == tuple(real(table, d, q, [elt])[0] for elt in elts)
        return orders

    real = CohomologyTable.class_orders
    monkeypatch.setattr(CohomologyTable, "class_orders", counting)
    rep = de_rham_comparison(lazard10, sigma_moving10, moving_table, 10)
    assert asked and len(asked) == len(set(asked))
    assert rep.induced[9] == (("forms->thh", 2, 2), ("forms->thh", 4, 4),
                              ("thh->forms", 2, 2), ("thh->forms", 240, 1))


def test_each_staircase_is_assembled_once(monkeypatch, lazard10, sigma_moving10):
    from fglthh import cohomology, verify

    built = []

    def recording(diff, root):
        # keep the differential table alive so its id is not reused
        table = getattr(diff, "table", diff)
        built.append((id(table), root, table))
        return real(diff, root)

    real = cohomology.staircase
    monkeypatch.setattr(cohomology, "staircase", recording)
    monkeypatch.setattr(verify, "staircase", recording)
    for run in (lambda: verify.verify_bp(2, 3, 10),
                lambda: verify.verify_mu("mu-split", 5, 10),
                lambda: cohomology.de_rham_comparison(
                    lazard10, sigma_moving10,
                    cohomology.cohomology_groups(sigma_moving10, 10),
                    10)):
        built.clear()
        run()
        keys = [(table_id, root) for table_id, root, _ in built]
        assert keys
        assert len(keys) == len(set(keys))


# the tables whose positive-root position-0 maps are checked below, each
# through its degree range: the fixture, the key into it, and d_max; the
# de Rham table on weights (1, 1, 2, 3) has no fixture
POSITION_ZERO_TABLES = {
    "mu-moving": ("sigma_moving10", None, 20),
    "mu-split": ("sigma_split10", None, 20),
    **{f"bp-{p}": ("sigma_bp_tables", p, bp_degree_range(p)) for p in (2, 3, 5)},
    "de-rham-1123": (None, None, 20),
}


@pytest.mark.parametrize("name", POSITION_ZERO_TABLES)
def test_injective_position_zero_maps_take_no_smith_form(monkeypatch, request, name):
    # lambda_n sits one degree above the n-th base generator, so its
    # coefficient in the differential of that generator is a nonzero
    # constant: every column of a positive-root position-0 map ends in a row
    # of its own, the map passes the shape test and never reaches the Smith
    # form, and position 0 has trivial cohomology
    from fglthh import exactalg

    made = []

    def recording(matrix):
        made.append(matrix)
        return real(matrix)

    real = exactalg.smith_normal_form_full
    monkeypatch.setattr(exactalg, "smith_normal_form_full", recording)
    fixture, index, d_max = POSITION_ZERO_TABLES[name]
    if fixture is None:
        table = de_rham_cohomology([("y_1", 1), ("y_2", 1), ("y_3", 2), ("y_4", 3)], d_max)
    else:
        diff = request.getfixturevalue(fixture)
        table = cohomology_groups(diff if index is None else diff[index], d_max)
    assert made
    roots = [root for root in range(2, d_max + 1, 2) if table.stairs[root].bases[0]]
    assert roots
    for root in roots:
        d_out = table.stairs[root].diffs[0]
        assert exactalg._injective(d_out)
        assert d_out.cols and table.by_q[(root, 0)].is_trivial()
        # by identity: a relations matrix may equal a small outgoing map
        assert not any(m is d_out for m in made)
