import pytest

from fglthh.exactalg import FinAbGroup, GradedPoly, DegreeGuardError, ResourceGuardError
from fglthh.fgl import x_name, v_name
from fglthh.algebroid import CoordFlavor
from fglthh.thh import ExtElement
from fglthh.cohomology import (SigmaDifferential, assemble_complex,
                               cohomology_groups, bp_cohomology_table,
                               bp_degree_range,
                               rational_collapse_check, bar_tor_check,
                               de_rham_cohomology, de_rham_comparison)


@pytest.fixture(scope="module")
def moving_table(sigma_moving10):
    return cohomology_groups(SigmaDifferential(sigma_moving10), 10)


@pytest.fixture(scope="module")
def split_table(sigma_split10):
    return cohomology_groups(SigmaDifferential(sigma_split10), 10)


@pytest.fixture(scope="module")
def bp_tables(sigma_bp_tables):
    return {p: bp_cohomology_table(sig) for p, sig in sigma_bp_tables.items()}


def xg(basis, n, exp=1):
    return GradedPoly.gen(basis.x_table, x_name(n), exp)


# ---------------------------------------------------------------------------
# assembled complexes
# ---------------------------------------------------------------------------

def test_displayed_two_by_two(sigma_moving10):
    st = assemble_complex(SigmaDifferential(sigma_moving10), 5)
    assert st.diffs[0].entries == ((-4, -4), (0, -3))
    # basis x_1^2, x_2 maps to basis x_1*lambda'_1, lambda'_2
    assert st.bases[0] == (((), ((0, 2),)), ((), ((1, 1),)))
    assert st.bases[1] == (((1,), ((0, 1),)), ((2,), ()))


def test_displayed_degree_ten_block(sigma_moving10):
    st = assemble_complex(SigmaDifferential(sigma_moving10), 10)
    assert st.root == 8
    assert st.diffs[0].entries[0] == (-8, -4, -5, 0, 0)
    assert st.diffs[0].rows == 7 and st.diffs[0].cols == 5
    assert st.diffs[1].entries == ((0, -3, -6, 4, 4, 0, 0),
                                   (0, 0, -2, 0, 0, 2, 0))


def test_degree_zero_complex(sigma_moving10):
    st = assemble_complex(SigmaDifferential(sigma_moving10), 0)
    assert st.bases[0] == (((), ()),)
    assert st.diffs[0].is_zero()


def test_degree_guard(sigma_moving10):
    with pytest.raises(DegreeGuardError):
        cohomology_groups(SigmaDifferential(sigma_moving10), 21)


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


def test_bp_prime_guard(sigma_bp_tables):
    from fglthh.fgl import hazewinkel_generators
    from fglthh.thh import sigma_bp
    with pytest.raises(ResourceGuardError):
        bp_cohomology_table(sigma_bp(hazewinkel_generators(7, 2)))


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
        table = cohomology_groups(SigmaDifferential(sig), min(d_max, bp_degree_range(p)))
        from fglthh.fgl import hazewinkel_generators
        rep = rational_collapse_check(table, hazewinkel_generators(p, 3).ell_table)
        assert rep.all_ok


def test_collapse_range_guard(moving_table, lazard10):
    with pytest.raises(DegreeGuardError):
        rational_collapse_check(moving_table, lazard10.m_table, d_max=12)


# ---------------------------------------------------------------------------
# bar homology
# ---------------------------------------------------------------------------

def test_bar_tor_moving_full():
    rep = bar_tor_check(CoordFlavor.moving(), 8, 3)
    assert rep.all_ok
    for w in range(1, 9):
        assert rep.table[(1, w)] == FinAbGroup(1), w
    assert rep.table[(2, 3)] == FinAbGroup(1)
    assert rep.expected[(2, 3)] == 1
    assert rep.table[(0, 0)] == FinAbGroup(1)
    assert all(rep.table[(0, w)].is_trivial() for w in range(1, 9))


def test_bar_tor_typical():
    for p in (2, 3, 5):
        rep = bar_tor_check(CoordFlavor.typical(p), 8, 3)
        assert rep.all_ok
        # rank one exactly at the generator weights
        for w in range(1, 9):
            expected = 1 if w in {p ** k - 1 for k in (1, 2, 3)} else 0
            assert rep.table[(1, w)].free_rank == expected


def test_bar_tor_guard():
    with pytest.raises(ResourceGuardError):
        bar_tor_check(CoordFlavor.moving(), 9, 3)
    with pytest.raises(ResourceGuardError):
        bar_tor_check(CoordFlavor.moving(), 8, 4)


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


def test_de_rham_comparison(structure10, sigma_moving10):
    rep = de_rham_comparison(structure10, sigma_moving10, 10)
    assert rep.chain_map_residuals_zero
    # the bracketing maps are rational isomorphisms only: integrally the
    # middle groups are strictly bigger in several degrees
    assert rep.thh.groups[5] == FinAbGroup.from_factors(0, [12])
    assert rep.forms_base.groups[5] == FinAbGroup.from_factors(0, [2])
    assert rep.forms_coords.groups[5] == FinAbGroup.from_factors(0, [2])


def test_each_staircase_is_assembled_once(monkeypatch, structure10, sigma_moving10):
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
                lambda: cohomology.de_rham_comparison(structure10, sigma_moving10, 10)):
        built.clear()
        run()
        keys = [(table_id, root) for table_id, root, _ in built]
        assert keys
        assert len(keys) == len(set(keys))
