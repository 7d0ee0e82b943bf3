from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from fglthh import exactalg
from fglthh.exactalg import (
    GenTable, GradedPoly, GradedWeightError, GeneratorTableError,
    UnderdeterminedSystemError, ComplexViolationError, IntMatrix, FinAbGroup,
    smith_normal_form_full, invariant_factors, det_int,
    solve_rational_linear, solve_integer, subquotient_group, row_hnf,
    reduce_mod_rows, rational_rank)


TABLE = GenTable([("b_1", 1), ("b_2", 2), ("b_3", 3),
                  ("x_1", 1), ("x_2", 2), ("x_3", 3)])


def g(name, exp=1):
    return GradedPoly.gen(TABLE, name, exp)


# ---------------------------------------------------------------------------
# graded polynomials
# ---------------------------------------------------------------------------

def test_monomial_product():
    assert (2 * g("b_1")) * (2 * g("b_1")) == 4 * g("b_1", 2)


def test_cancellation():
    assert (g("x_1") + 2 * g("b_1")) + (-2 * g("b_1")) == g("x_1")


def test_hand_multiplication():
    # (2 b1^2 - b2)(-b1) expanded by hand
    lhs = (2 * g("b_1", 2) - g("b_2")) * (-g("b_1"))
    assert lhs == -2 * g("b_1", 3) + g("b_1") * g("b_2")


def test_homogeneous_add_mismatch():
    with pytest.raises(GradedWeightError):
        g("b_1") + g("b_2")


def test_table_mismatch():
    other = GenTable([("b_1", 1)])
    with pytest.raises(GeneratorTableError):
        g("b_1") + GradedPoly.gen(other, "b_1")


def test_weight_and_integrality():
    p = 3 * g("b_1") * g("b_2") - g("b_3")
    assert p.weight() == 3
    assert p.is_integral()
    assert not p.scale(Fraction(1, 2)).is_integral()
    assert GradedPoly.zero(TABLE).weight() is None


def test_partial_derivative():
    p = g("b_1", 3) * g("b_2") + 2 * g("b_2", 2) * g("b_1")
    assert p.partial("b_1") == 3 * g("b_1", 2) * g("b_2") + 2 * g("b_2", 2)


def test_substitute_weight_guard():
    with pytest.raises(GradedWeightError):
        g("b_2").substitute({"b_2": g("b_1")}, TABLE)


def test_collect_and_component():
    p = g("x_1") * g("b_1") + 3 * g("b_2") + g("x_2")
    linear = p.component_in(["b_1", "b_2"], 1)
    assert linear == g("x_1") * g("b_1") + 3 * g("b_2")
    groups = linear.collect_by(["b_1", "b_2"])
    assert len(groups) == 2


weights = st.integers(min_value=1, max_value=4)
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def homogeneous_poly(draw, weight=None):
    w = draw(weights) if weight is None else weight
    monos = TABLE.monomials_of_weight(w)
    picks = draw(st.lists(st.sampled_from(range(len(monos))),
                          min_size=1, max_size=min(4, len(monos)), unique=True))
    terms = {monos[i]: draw(coeffs) for i in picks}
    return GradedPoly(TABLE, terms)


@given(homogeneous_poly(weight=2), homogeneous_poly(weight=2), homogeneous_poly(weight=2))
def test_ring_axioms_same_weight(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(homogeneous_poly(), homogeneous_poly(), homogeneous_poly())
def test_ring_axioms_products(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + b) == a * b + a * b


# ---------------------------------------------------------------------------
# rational solving
# ---------------------------------------------------------------------------

def test_solve_identity():
    sol = solve_rational_linear([[1, 0], [0, 1]], [3, Fraction(1, 2)])
    assert sol == [3, Fraction(1, 2)]


def test_solve_basis_coefficients():
    # express the weight-2 generator combination in the monomial basis
    assert solve_rational_linear([[1, 0], [0, 1]], [4, -3]) == [4, -3]


def cramer(matrix, rhs):
    n = len(matrix)
    det = det_int(matrix)
    out = []
    for j in range(n):
        cols = [[matrix[i][k] if k != j else rhs[i] for k in range(n)]
                for i in range(n)]
        out.append(Fraction(det_int(cols), det))
    return out


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
def test_solve_against_cramer(matrix, rhs):
    if det_int(matrix) == 0:
        return
    got = solve_rational_linear(matrix, rhs)
    assert got == [x if x.denominator > 1 else int(x) for x in cramer(matrix, rhs)]


def test_solve_inconsistent():
    assert solve_rational_linear([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_underdetermined():
    with pytest.raises(UnderdeterminedSystemError) as err:
        solve_rational_linear([[1, 1]], [2])
    assert err.value.kernel_dim == 1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def minor_gcd_chain(entries):
    """Independent oracle: d_k = gcd of k-minors over gcd of (k-1)-minors."""
    n, m = len(entries), len(entries[0]) if entries else 0
    out, prev = [], 1
    for k in range(1, min(n, m) + 1):
        gcd = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                d = det_int([[entries[i][j] for j in cols] for i in rows])
                if d:
                    import math
                    gcd = math.gcd(gcd, abs(d))
        if gcd == 0:
            break
        out.append(gcd // prev)
        prev = gcd
    return tuple(out)


def test_snf_two_by_two():
    # gcd of entries is 1 and |det| = 12, so the chain is (1, 12)
    M = IntMatrix.from_rows([[-4, -4], [0, -3]])
    assert invariant_factors(M) == (1, 12)


def test_snf_single():
    assert invariant_factors(IntMatrix.from_rows([[2]])) == (2,)


def test_snf_four_by_three():
    # brute-force minors give gcds 1, 1, 12
    M = IntMatrix.from_rows([[-6, -4, -5], [0, -2, -4], [0, -3, -6], [0, 0, -2]])
    assert invariant_factors(M) == minor_gcd_chain(M.entries) == (1, 1, 12)


sparse_entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
dim = st.integers(min_value=0, max_value=7)
TRANSFORMS = ("U", "V", "U_inv", "V_inv")


@st.composite
def int_matrices(draw, rows=dim, cols=dim):
    n, m = draw(rows), draw(cols)
    entries = draw(st.lists(st.lists(sparse_entry, min_size=m, max_size=m),
                            min_size=n, max_size=n))
    return IntMatrix.from_rows(entries, cols=m)


@given(int_matrices(), st.permutations(TRANSFORMS))
@example(IntMatrix.zero(3, 4), TRANSFORMS)
def test_snf_properties(M, read_order):
    full = smith_normal_form_full(M)
    U, D, V = full.U, full.D, full.V
    assert U.mul(M).mul(V).entries == D.entries
    assert abs(det_int(U.to_lists())) == 1
    assert abs(det_int(V.to_lists())) == 1
    assert U.mul(full.U_inv).entries == IntMatrix.identity(M.rows).entries
    assert V.mul(full.V_inv).entries == IntMatrix.identity(M.cols).entries
    diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
    for i in range(min(D.rows, D.cols)):
        for j in range(D.cols):
            if i != j:
                assert D.entries[i][j] == 0
    nonzero = [d for d in diag if d]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert tuple(nonzero) == minor_gcd_chain(list(map(list, M.entries)))
    # transforms are built on first read; the order of reads must not matter
    again = smith_normal_form_full(M)
    for name in read_order:
        assert getattr(again, name) == getattr(full, name)


def naive_mul(a, b):
    return IntMatrix.from_rows(
        [[sum(a.entries[i][k] * b.entries[k][j] for k in range(a.cols))
          for j in range(b.cols)] for i in range(a.rows)], cols=b.cols)


@given(st.tuples(dim, dim, dim).flatmap(lambda s: st.tuples(
    int_matrices(st.just(s[0]), st.just(s[1])),
    int_matrices(st.just(s[1]), st.just(s[2])))))
def test_mul_matches_naive_product(pair):
    a, b = pair
    assert a.mul(b) == naive_mul(a, b)


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

# a 0-row outgoing map: H = Z/2
Z2_PAIR = (IntMatrix.from_rows([[-2]]), IntMatrix.zero(0, 1))


def test_subquotient_z2():
    d_in, d_out = Z2_PAIR
    pres = subquotient_group(d_in, d_out)
    assert pres.group == FinAbGroup(0, (2,))
    assert pres.class_order([1]) == 2
    assert pres.generates([[1]])


def test_subquotient_injective_out():
    d_in = IntMatrix.zero(2, 0)
    d_out = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    pres = subquotient_group(d_in, d_out)
    assert pres.group.is_trivial()


# a staircase pair of the degree-nine sigma cohomology: H = Z/16 + Z/6 + Z/5
DEGREE_NINE_PAIR = (
    IntMatrix.from_rows([[-8, -4, -5, 0, 0], [0, -4, -4, -8, 4],
                         [0, 0, -2, 0, -8], [0, -3, -6, 0, -3],
                         [0, 0, 0, -6, -6], [0, 0, -2, 0, -8],
                         [0, 0, 0, 0, -5]]),
    IntMatrix.from_rows([[0, -3, -6, 4, 4, 0, 0],
                         [0, 0, -2, 0, 0, 2, 0]]))


def test_subquotient_degree_nine_pair():
    d_in, d_out = DEGREE_NINE_PAIR
    pres = subquotient_group(d_in, d_out)
    assert pres.group == FinAbGroup.from_factors(0, [16, 6, 5])
    assert pres.group.primary() == (2, 3, 5, 16)
    # stated summand generators: membership, order and joint generation
    g16 = [0, -2, 1, 0, 0, 1, 0]
    g6 = [0, 0, 0, 1, -1, 0, 0]
    g5 = [0, 0, 0, 0, 0, 0, 1]
    assert pres.class_order(g16) == 16
    assert pres.class_order(g6) == 6
    assert pres.class_order(g5) == 5
    assert pres.generates([g16, g6, g5])


def built_transforms(decomposition):
    return {name for name in TRANSFORMS if name in vars(decomposition)}


def test_subquotient_builds_only_read_transforms(monkeypatch):
    # nonzero relations; every outgoing map, the 0-row one included, takes
    # the Smith-form route
    made = []

    def recording(matrix):
        made.append(smith_normal_form_full(matrix))
        return made[-1]

    monkeypatch.setattr(exactalg, "smith_normal_form_full", recording)
    for d_in, d_out in (DEGREE_NINE_PAIR, Z2_PAIR):
        made.clear()
        subquotient_group(d_in, d_out)
        out_snf, rel_snf = made
        assert built_transforms(out_snf) == {"V", "V_inv"}
        assert built_transforms(rel_snf) == {"U", "U_inv"}
    made.clear()
    d_in = DEGREE_NINE_PAIR[0]
    assert invariant_factors(d_in) == minor_gcd_chain(d_in.entries)
    assert [built_transforms(snf) for snf in made] == [set()]


def test_subquotient_complex_violation():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(ComplexViolationError):
        subquotient_group(d_in, d_out)


@given(st.data())
def test_subquotient_rejects_exactly_nonzero_composites(data):
    # the Smith-form kernel test inside subquotient_group is the only
    # d_out * d_in = 0 check; it must agree with the naive product
    m, a, b = (data.draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    if data.draw(st.booleans()):
        kernel = smith_normal_form_full(d_out).kernel_columns()
        combos = [[data.draw(entry) for _ in kernel] for _ in range(a)]
        rows = [[sum(c * v[i] for c, v in zip(combo, kernel)) for combo in combos]
                for i in range(m)]
    else:
        rows = [[data.draw(entry) for _ in range(a)] for _ in range(m)]
    d_in = IntMatrix.from_rows(rows, cols=a)
    if naive_mul(d_out, d_in).is_zero():
        subquotient_group(d_in, d_out)
    else:
        with pytest.raises(ComplexViolationError):
            subquotient_group(d_in, d_out)


@given(st.permutations(range(4)), st.permutations(range(3)))
def test_subquotient_permutation_invariance(row_perm, col_perm):
    base_in = [[-6, -4, -5], [0, -2, -4], [0, -3, -6], [0, 0, -2]]
    base_out = [[0, -3, 2, 0]]
    ref = subquotient_group(IntMatrix.from_rows(base_in),
                            IntMatrix.from_rows(base_out)).group
    permuted_in = [[base_in[i][j] for j in col_perm] for i in row_perm]
    permuted_out = [[base_out[0][i] for i in row_perm]]
    got = subquotient_group(IntMatrix.from_rows(permuted_in),
                            IntMatrix.from_rows(permuted_out)).group
    assert got == ref


# ---------------------------------------------------------------------------
# groups, lattices
# ---------------------------------------------------------------------------

def test_finab_canonical_chain():
    assert FinAbGroup.from_factors(0, [16, 6, 5]) == FinAbGroup(0, (2, 240))
    assert FinAbGroup.from_factors(1, [4, 3]) == FinAbGroup(1, (12,))
    assert FinAbGroup.from_factors(0, [45]).localize(3) == FinAbGroup(0, (9,))
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 6))


def test_finab_direct_sum_and_order():
    a = FinAbGroup(0, (2,))
    b = FinAbGroup(1, (4,))
    s = a.direct_sum(b)
    assert s == FinAbGroup(1, (2, 4))
    assert s.torsion_order() == 8
    assert str(s) == "Z + Z/2 + Z/4"


def test_solve_integer_and_hnf():
    A = [[2, 0], [0, 3]]
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None
    hnf, piv = row_hnf([[2, 4, 1], [0, 2, 0]])
    assert reduce_mod_rows(hnf, piv, [2, 4, 1]) == [0, 0, 0]


def test_integer_matrices_reject_non_integers():
    # truncating would read [[3/2, 2.9]] as [[1, 2]] and miss x = 2 below
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[Fraction(3, 2), 2.9]])
    with pytest.raises(TypeError):
        solve_integer([[Fraction(1, 2)]], [1])


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 2), 0], [0, 1]]) == 2
