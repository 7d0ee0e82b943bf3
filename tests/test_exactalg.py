import gc
import math
import types
from bisect import bisect_right, insort
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from fglthh import exactalg, fgl
from fglthh.exactalg import (
    GenTable, GradedPoly, GradedWeightError, GeneratorTableError,
    UnderdeterminedSystemError, ComplexViolationError, IntMatrix, FinAbGroup,
    SmithDecomposition, smith_normal_form_full, invariant_factors,
    solve_rational_linear, solve_integer, subquotient_group, group_from_diagonals,
    class_orders, generates, row_hnf, reduce_mod_rows, rational_rank, p_part, ext_gcd)
from fglthh.series import TruncatedSeries
from fglthh.thh import ExtElement, ThhFlavor
from fglthh.verify import minor_gcd_invariants

from test_derivations import de_rham_partials


def class_order(d_in, d_out, vector):
    """The order of one class: ``class_orders`` of one vector."""
    return class_orders(d_in, d_out, (vector,))[0]


# the bound holds the product of two of the monomials drawn below
TABLE = GenTable([("b_1", 1), ("b_2", 2), ("b_3", 3),
                  ("x_1", 1), ("x_2", 2), ("x_3", 3)], 80)


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
    other = GenTable([("b_1", 1)], 80)
    with pytest.raises(GeneratorTableError):
        g("b_1") + GradedPoly.gen(other, "b_1")


def test_numbers_meet_polynomials_only_as_scalars():
    # a number multiplies from the left or through scale; a number sum or a
    # right factor on a polynomial is refused, never silently promoted
    poly = g("x_1") * g("b_2") - 3 * g("x_3")
    elt = ExtElement.ext_gen(ThhFlavor("test", TABLE, "e"), 1, poly)
    series = TruncatedSeries.variable(TABLE, 4)
    assert 2 * poly == poly.scale(2)
    assert elt * 2 == elt.scale(2)
    for refused in (lambda: poly + 1, lambda: 1 + poly, lambda: poly - 1,
                    lambda: poly * 2, lambda: 2 * elt, lambda: series.scale(2)):
        with pytest.raises(TypeError):
            refused()
    assert GradedPoly.zero(TABLE) == 0
    assert poly != 0


def test_weight_and_integrality():
    p = 3 * g("b_1") * g("b_2") - g("b_3")
    assert p.weight() == 3
    assert p.is_integral()
    assert not p.scale(Fraction(1, 2)).is_integral()
    assert GradedPoly.zero(TABLE).weight() is None


def test_partial_derivative():
    p = g("b_1", 3) * g("b_2") + 2 * g("b_2", 2) * g("b_1")
    assert (de_rham_partials(p)[p.table.index("b_1")]
            == 3 * g("b_1", 2) * g("b_2") + 2 * g("b_2", 2))


def test_substitute_weight_guard():
    with pytest.raises(GradedWeightError):
        g("b_2").substitute({"b_2": g("b_1")}, TABLE)


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


def sorted_dict_mono_mul(a, b):
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def naive_poly_mul(a, b):
    """Term-by-term product through dense exponent vectors, in Fractions."""
    n = len(TABLE)
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            dense = [0] * n
            for mono in (m1, m2):
                for i, e in TABLE.exponents(mono):
                    dense[i] += e
            m = tuple((i, e) for i, e in enumerate(dense) if e)
            out[m] = out.get(m, 0) + Fraction(c1) * Fraction(c2)
    return {m: c for m, c in out.items() if c}


monomials = st.dictionaries(st.integers(0, len(TABLE) - 1), st.integers(1, 4),
                            max_size=4).map(lambda d: tuple(sorted(d.items())))
mixed_coeffs = st.one_of(coeffs, st.builds(Fraction, coeffs, st.integers(1, 4)))


@st.composite
def mixed_poly(draw):
    monos = TABLE.monomials_of_weight(draw(weights))
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
    return GradedPoly(TABLE, {m: draw(mixed_coeffs) for m in picks})


@given(monomials, monomials, mixed_poly(), mixed_poly())
def test_product_kernel_matches_references(m1, m2, a, b):
    # the packed product is one addition; unpacked, it is the merge
    packed = TABLE.pack(m1) + TABLE.pack(m2)
    assert TABLE.exponents(packed) == sorted_dict_mono_mul(m1, m2)
    for m in (m1, m2, sorted_dict_mono_mul(m1, m2)):
        plain = sum(e * TABLE.gens[i][1] for i, e in m)
        assert TABLE.mono_weight(TABLE.pack(m)) == plain  # one shift
        assert TABLE.exponents(TABLE.pack(m)) == m
    prod = a * b
    assert ({TABLE.exponents(m): Fraction(c) for m, c in prod.terms.items()}
            == naive_poly_mul(a, b))
    for c in prod.terms.values():
        assert type(c) is int or c.denominator != 1


# weights with repeats, and with the gaps p^n - 1 of the Hazewinkel alphabets
table_weights = st.lists(st.integers(1, 5) | st.sampled_from([1, 2, 3, 7, 8, 15, 24, 26]),
                         min_size=1, max_size=4)


@given(table_weights, st.integers(0, 16))
def test_monomials_of_weight_is_the_sorted_brute_force_list(ws, w):
    table = GenTable([(f"g_{i}", wt) for i, wt in enumerate(ws)], 30)
    brute = [table.pack(enumerate(exps))
             for exps in product(*(range(w // wt + 1) for _, wt in table.gens))
             if sum(e * wt for e, (_, wt) in zip(exps, table.gens)) == w]
    assert table.monomials_of_weight(w) == tuple(sorted(brute, key=table.mono_key))


# ---------------------------------------------------------------------------
# rational solving
# ---------------------------------------------------------------------------

def test_solve_identity():
    sol = solve_rational_linear([[1, 0], [0, 1]], [3, Fraction(1, 2)])
    assert sol == [3, Fraction(1, 2)]


def test_solve_basis_coefficients():
    # express the weight-2 generator combination in the monomial basis
    assert solve_rational_linear([[1, 0], [0, 1]], [4, -3]) == [4, -3]


def det_int(rows):
    """Exact determinant of a square integer matrix (Bareiss), the reference
    for the echelon-based routines."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * (a[n - 1][n - 1] if n else 1)


def bareiss_solve(matrix, rhs):
    """The former ``solve_rational_linear``: fraction-free (Bareiss)
    elimination on the denominator-cleared augmented system."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match matrix")
    aug = []
    for i in range(m):
        row = [Fraction(x) for x in matrix[i]] + [Fraction(rhs[i])]
        lcm = 1
        for x in row:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        aug.append([int(x * lcm) for x in row])
    pivot_cols = []
    prev = 1
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        p = aug[r][col]
        for i in range(r + 1, m):
            q = aug[i][col]
            for j in range(col, n + 1):
                aug[i][j] = (aug[i][j] * p - aug[r][j] * q) // prev
        prev = p
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n]:
            return None
    if r < n:
        raise UnderdeterminedSystemError(n - r)
    x = [Fraction(0)] * n
    for k in range(r - 1, -1, -1):
        col = pivot_cols[k]
        s = Fraction(aug[k][n])
        for j in range(col + 1, n):
            s -= aug[k][j] * x[j]
        x[col] = s / aug[k][col]
    return [exactalg._norm_coeff(v) for v in x]


def solve_outcome(solve, matrix, rhs):
    """The return value with each entry's type, or the kernel dimension of
    the underdetermined-system error."""
    try:
        got = solve(matrix, rhs)
    except UnderdeterminedSystemError as err:
        return ("underdetermined", err.kernel_dim)
    return None if got is None else [(x, type(x)) for x in got]


small_rational = st.one_of(st.integers(-4, 4),
                           st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def linear_systems(draw):
    """Square, tall and wide systems, with 0 rows or 0 columns included;
    repeated rows and zero columns make inconsistent and underdetermined
    cases common."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(small_rational, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    rhs = draw(st.lists(small_rational, min_size=m, max_size=m))
    return rows, rhs


@given(linear_systems())
@example(([], []))
@example(([[], []], [1, 0]))
@example(([[], []], [0, 0]))
@example(([[1, 1], [1, 1]], [0, 1]))
@example(([[1, 1], [2, 2], [0, 0]], [1, 2, 3]))
@example(([[0, 1]], [Fraction(1, 2)]))
def test_solver_matches_the_bareiss_reference(system):
    matrix, rhs = system
    assert (solve_outcome(solve_rational_linear, matrix, rhs)
            == solve_outcome(bareiss_solve, matrix, rhs))


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
def int_matrices(draw, rows=dim, cols=dim, entry=sparse_entry):
    n, m = draw(rows), draw(cols)
    entries = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                            min_size=n, max_size=n))
    return IntMatrix.from_rows(entries, cols=m)


@given(int_matrices(st.integers(0, 6), st.integers(0, 6)))
@example(IntMatrix.zero(3, 3))
@example(IntMatrix.from_rows([[2, 4], [1, 2]]))
def test_minor_oracle_matches_the_bareiss_minors(M):
    assert minor_gcd_invariants(M) == minor_gcd_chain(M.entries)


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


@given(st.data())
def test_apply_matches_transform_product(data):
    M = data.draw(int_matrices())
    snf = smith_normal_form_full(M)
    for name in TRANSFORMS:
        n = snf.D.rows if name[0] == "U" else snf.D.cols
        B = data.draw(int_matrices(st.just(n), st.integers(0, 4)))
        rows = B.to_lists()
        got = snf.apply(name, rows)
        assert rows == B.to_lists()  # the input is not modified
        assert name not in vars(snf)  # apply builds no transform
        assert got == getattr(snf, name).mul(B).to_lists()


# Dense reference reduction: the same pivoting, but every zero-multiple
# operation is applied and logged and every column operation sweeps all
# rows.  The printed generators, and so the output bytes, depend on the
# pivot sequence, so the engine must take exactly these nonzero steps.
def reference_smith_normal_form_full(matrix):
    """Smith normal form ``U M V = D`` with ``U``, ``V`` unimodular and
    ``D`` diagonal, nonnegative, in a divisibility chain.  Pivoting picks a
    minimal-absolute-value nonzero entry each round to control coefficient
    growth; exactness holds regardless.  The returned decomposition builds
    ``U``, ``V`` and their inverses from the recorded operations only when
    they are read.
    """
    A = matrix.to_lists()
    n, m = matrix.rows, matrix.cols
    row_ops = []
    col_ops = []

    def row_op(i, k, q):
        # row_i -= q * row_k
        Ai, Ak = A[i], A[k]
        for j in range(m):
            Ai[j] -= q * Ak[j]
        row_ops.append(("add", i, k, q))

    def col_op(j, k, q):
        # col_j -= q * col_k
        for row in A:
            row[j] -= q * row[k]
        col_ops.append(("add", j, k, q))

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        row_ops.append(("swap", i, k))

    def swap_cols(j, k):
        for row in A:
            row[j], row[k] = row[k], row[j]
        col_ops.append(("swap", j, k))

    def negate_row(t):
        for j in range(m):
            A[t][j] = -A[t][j]
        row_ops.append(("neg", t))

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, n):
            Ai = A[i]
            for j in range(t, m):
                v = Ai[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if A[t][t] < 0:
            negate_row(t)
        while True:
            for i in range(t + 1, n):
                if A[i][t]:
                    row_op(i, t, A[i][t] // A[t][t])
            dirty = next((i for i in range(t + 1, n) if A[i][t]), None)
            if dirty is not None:
                swap_rows(t, dirty)
                if A[t][t] < 0:
                    negate_row(t)
                continue
            for j in range(t + 1, m):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
            dirty = next((j for j in range(t + 1, m) if A[t][j]), None)
            if dirty is not None:
                swap_cols(t, dirty)
                if A[t][t] < 0:
                    negate_row(t)
                continue
            if A[t][t] == 1:
                break
            offender = None
            for i in range(t + 1, n):
                Ai = A[i]
                for j in range(t + 1, m):
                    if Ai[j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)
        t += 1
        if t == min(n, m):
            break

    D = IntMatrix.from_rows(A, cols=m)
    return SmithDecomposition(D, row_ops, col_ops)


def without_zero_multiples(ops):
    return [op for op in ops if op[0] != "add" or op[3]]


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices up to 12x12, like the staircase maps."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    A = [[0] * m for _ in range(n)]
    if n and m:
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1),
                          st.integers(-50, 50))
        for i, j, v in draw(st.lists(cells, max_size=n * m // 4 + 1)):
            A[i][j] = v
    return IntMatrix.from_rows(A, cols=m)


@settings(max_examples=200)
@given(int_matrices(st.integers(0, 10), st.integers(0, 10),
                    st.one_of(st.just(0), st.integers(min_value=-50, max_value=50)))
       | sparse_matrices())
@example(IntMatrix.from_rows([[5], [9], [7]]))  # the row sweep meets 2 // 4
@example(IntMatrix.from_rows([[5, 9, 7]]))      # the column sweep likewise
# the pivot is the first entry of least absolute value in row-major order:
# -1 before +1 in one row
@example(IntMatrix.from_rows([[0, 4, -1, 1], [1, 3, 0, 2]]))
# a least value tied across two rows
@example(IntMatrix.from_rows([[7, 0, 3, 5], [3, 8, 0, 4], [0, 3, 9, 6]]))
# a non-unit least value with both signs in one row
@example(IntMatrix.from_rows([[0, 6, 3, -3, 9], [5, 0, 0, 7, 0]]))
# a sparse non-unit block that needs repeated sweeps
@example(IntMatrix.from_rows([[0, 0, 0, 0, 0], [0, 6, 0, 0, 10],
                              [0, 0, 0, 0, 0], [0, 10, 0, 0, 15],
                              [0, 0, 0, 0, 0], [0, 14, 0, 0, 4]]))
# the sweep changes row 1, which then holds the next least entry (2, below
# the 3 that row 2 kept since the first search)
@example(IntMatrix.from_rows([[2, 4, 0], [4, 9, 0], [0, 0, 3]]))
# the first pivot swaps rows 0 and 1, then rows 2 and 3 tie on 3
@example(IntMatrix.from_rows([[0, 0, 5], [2, 0, 0], [0, 3, 0], [0, 0, 3]]))
def test_snf_pivot_sequence_matches_dense_reference(M):
    ref = reference_smith_normal_form_full(M)
    got = smith_normal_form_full(M)
    assert got.D == ref.D
    assert got._row_ops == without_zero_multiples(ref._row_ops)
    assert got._col_ops == without_zero_multiples(ref._col_ops)
    for op in got._row_ops + got._col_ops:
        assert op[0] != "add" or op[3], op


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
    assert subquotient_group(d_in, d_out).group == FinAbGroup(0, (2,))
    assert class_order(d_in, d_out, [1]) == 2
    assert generates(d_in, d_out, [[1]])


def test_subquotient_injective_out():
    d_in = IntMatrix.zero(2, 0)
    d_out = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    assert subquotient_group(d_in, d_out).group.is_trivial()


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
    group = subquotient_group(d_in, d_out).group
    assert group == FinAbGroup.from_factors(0, [16, 6, 5])
    assert group.primary() == (2, 3, 5, 16)
    # stated summand generators: membership, order and joint generation
    g16 = [0, -2, 1, 0, 0, 1, 0]
    g6 = [0, 0, 0, 1, -1, 0, 0]
    g5 = [0, 0, 0, 0, 0, 0, 1]
    assert class_order(d_in, d_out, g16) == 16
    assert class_order(d_in, d_out, g6) == 6
    assert class_order(d_in, d_out, g5) == 5
    assert generates(d_in, d_out, [g16, g6, g5])
    assert not generates(d_in, d_out, [g16, g6])


def built_transforms(decomposition):
    return {name for name in TRANSFORMS if name in vars(decomposition)}


def test_subquotient_builds_only_read_transforms(monkeypatch):
    # the subquotient applies the Smith operation logs to the vectors it
    # needs, and class orders reduce modulo echelon bases; both outgoing
    # maps here, the 0-row one included, have fewer rows than columns, so
    # the injectivity test declines them and they take the Smith-form route
    made = []

    def recording(matrix):
        made.append(smith_normal_form_full(matrix))
        return made[-1]

    monkeypatch.setattr(exactalg, "smith_normal_form_full", recording)
    for (d_in, d_out), cocycle in ((DEGREE_NINE_PAIR, [0, -2, 1, 0, 0, 1, 0]),
                                   (Z2_PAIR, [1])):
        made.clear()
        sub = subquotient_group(d_in, d_out)
        # the outgoing map and the relations
        assert len(made) == 2
        assert class_order(d_in, d_out, cocycle) > 1
        assert len(made) == 2
        # generation takes its lifts from a subquotient of its own
        assert generates(d_in, d_out, [list(v) for _, v in sub.generator_vectors])
        assert len(made) == 4
        assert [built_transforms(snf) for snf in made] == [set()] * 4
    made.clear()
    d_in = DEGREE_NINE_PAIR[0]
    x = [1, -2, 0, 3, 1]
    rhs = [sum(a * b for a, b in zip(row, x)) for row in d_in.entries]
    sol = solve_integer(d_in, rhs)
    assert [sum(a * b for a, b in zip(row, sol)) for row in d_in.entries] == rhs
    assert invariant_factors(d_in) == minor_gcd_chain(d_in.entries)
    assert [built_transforms(snf) for snf in made] == [set(), set()]


def test_each_query_builds_its_own_echelon_basis(monkeypatch):
    # nothing is cached between calls: the subquotient builds the image
    # echelon basis only to reduce its lifts, each class order builds one,
    # and generation builds one beside those of its subquotient
    calls = []

    def counting(rows):
        calls.append(rows)
        return row_hnf(rows)

    monkeypatch.setattr(exactalg, "row_hnf", counting)
    sub = subquotient_group(*DEGREE_NINE_PAIR)
    assert [order for order, _ in sub.generator_vectors] == [2, 240]
    assert len(calls) == 1
    # no lifts: an injective outgoing map leaves nothing to reduce
    assert subquotient_group(IntMatrix.zero(2, 0),
                             IntMatrix.from_rows([[1, 0], [0, 1]])).generator_vectors == ()
    # ... and neither does a surjective incoming one
    assert subquotient_group(IntMatrix.from_rows([[-1]]),
                             IntMatrix.zero(0, 1)).generator_vectors == ()
    assert len(calls) == 1
    stated = ([0, -2, 1, 0, 0, 1, 0], [0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 0, 1])
    calls.clear()
    assert [class_order(*DEGREE_NINE_PAIR, v) for v in stated * 2] == [16, 6, 5] * 2
    assert len(calls) == 6
    calls.clear()
    assert generates(*DEGREE_NINE_PAIR, list(stated))
    assert len(calls) == 2


def test_class_orders_share_one_echelon_basis(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return row_hnf(rows)

    monkeypatch.setattr(exactalg, "row_hnf", counting)
    stated = ([0, -2, 1, 0, 0, 1, 0], [0, 0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 0, 0, 1])
    assert class_orders(*DEGREE_NINE_PAIR, stated * 2) == (16, 6, 5) * 2
    assert len(calls) == 1
    assert class_orders(*DEGREE_NINE_PAIR, ()) == ()


def reachable(root):
    """Every object reachable from ``root`` through references, without
    entering classes, modules or functions."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType,
                                               types.FunctionType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_presentation_keeps_no_smith_form():
    # the subquotient is a value: its group and its lifts, with no Smith
    # form or echelon basis behind them
    for d_in, d_out in (DEGREE_NINE_PAIR, Z2_PAIR):
        sub = subquotient_group(d_in, d_out)
        assert sub._fields == ("group", "generator_vectors")
        assert isinstance(sub.group, FinAbGroup)
        assert all(type(order) is int and type(vec) is tuple and
                   all(type(x) is int for x in vec)
                   for order, vec in sub.generator_vectors)
        assert not any(isinstance(obj, (SmithDecomposition, list))
                       for obj in reachable(sub))


def test_subquotient_complex_violation():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(ComplexViolationError):
        subquotient_group(d_in, d_out)


def kernel_columns(d_out):
    """Basis of the integer kernel of ``d_out``: the columns of ``V`` past
    the rank of its Smith form."""
    snf = smith_normal_form_full(d_out)
    return [[row[j] for row in snf.V.entries] for j in range(snf.rank, snf.D.cols)]


@given(st.data())
def test_subquotient_rejects_exactly_nonzero_composites(data):
    # the kernel test inside subquotient_group, by the injectivity test
    # when it certifies d_out and by the Smith form of d_out otherwise, must
    # agree with the naive product (staircase checks d∘d = 0 by its own
    # product)
    m, a, b = (data.draw(st.integers(0, 4)) for _ in range(3))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    if data.draw(st.booleans()):
        kernel = kernel_columns(d_out)
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


@given(st.data())
def test_group_from_diagonals_matches_the_subquotient(data):
    # composable pairs: the incoming map's columns are drawn from the kernel
    # of the outgoing map, with small multiples that leave torsion
    m, a, b = (data.draw(st.integers(0, 5)) for _ in range(3))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    kernel = kernel_columns(d_out)
    combos = [[data.draw(entry) for _ in kernel] for _ in range(a)]
    d_in = IntMatrix.from_rows(
        [[sum(c * v[i] for c, v in zip(combo, kernel)) for combo in combos]
         for i in range(m)], cols=a)
    got = group_from_diagonals(m, invariant_factors(d_in), invariant_factors(d_out))
    assert got == subquotient_group(d_in, d_out).group


def smith_route(d_in, d_out):
    """``subquotient_group`` with the injectivity test declining every map,
    so each outgoing map takes the Smith form: the group, the lifts, or the
    message of the ``ComplexViolationError``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactalg, "_injective", lambda matrix: False)
        return subquotient_outcome(d_in, d_out)


def subquotient_outcome(d_in, d_out):
    try:
        return subquotient_group(d_in, d_out)
    except ComplexViolationError as err:
        return str(err)


@given(st.data())
def test_injectivity_shortcut_matches_the_smith_route(data):
    # outgoing maps with at least as many rows as columns, so the test runs;
    # the incoming map is zero, drawn freely or drawn from the kernel
    m = data.draw(st.integers(0, 6))
    b, a = data.draw(st.integers(m, 6)), data.draw(st.integers(0, 6))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    kind = data.draw(st.sampled_from(("zero", "free", "kernel")))
    if kind == "zero":
        d_in = IntMatrix.zero(m, a)
    elif kind == "free":
        d_in = IntMatrix.from_rows(
            [[data.draw(entry) for _ in range(a)] for _ in range(m)], cols=a)
    else:
        kernel = kernel_columns(d_out)
        combos = [[data.draw(entry) for _ in kernel] for _ in range(a)]
        d_in = IntMatrix.from_rows(
            [[sum(c * v[i] for c, v in zip(combo, kernel)) for combo in combos]
             for i in range(m)], cols=a)
    got = subquotient_outcome(d_in, d_out)
    assert got == smith_route(d_in, d_out)
    if exactalg._injective(d_out):
        assert got in ((FinAbGroup.trivial(), ()), "image does not lie in the kernel")


def test_injective_outgoing_map_rejects_a_nonzero_incoming_map():
    d_out = IntMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    d_in = IntMatrix.from_rows([[1], [0]])
    assert exactalg._injective(d_out)
    with pytest.raises(ComplexViolationError, match="image does not lie in the kernel"):
        subquotient_group(d_in, d_out)
    assert smith_route(d_in, d_out) == "image does not lie in the kernel"


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 2]],                    # both columns end in row 1
    [[2, 0], [0, 0], [1, 1]],            # both end in the last row
    [[1, 0, 1], [0, 1, 1], [1, 1, 3], [0, 0, 0]],  # all three end in row 2
])
def test_injective_maps_of_another_shape_take_the_smith_form(monkeypatch, rows):
    # a miss of the shape test falls back to the Smith form, which finds the
    # map injective over Z all the same
    d_out = IntMatrix.from_rows(rows)
    assert rational_rank(d_out.entries) == d_out.cols
    assert not exactalg._injective(d_out)
    made = []

    def recording(matrix):
        made.append(matrix)
        return smith_normal_form_full(matrix)

    monkeypatch.setattr(exactalg, "smith_normal_form_full", recording)
    sub = subquotient_group(IntMatrix.zero(d_out.cols, 2), d_out)
    assert sub == (FinAbGroup.trivial(), ())
    assert made == [d_out]


@st.composite
def column_matrices(draw, entry):
    """Matrices with at least as many rows as columns, half of them with a
    last column that is an integer combination of the others."""
    m = draw(st.integers(0, 6))
    b = draw(st.integers(m, 6))
    cols = [[draw(entry) for _ in range(b)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(m - 1)]
        cols[-1] = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(b)]
    return IntMatrix.from_rows(list(zip(*cols)) if m else [()] * b, cols=m)


@st.composite
def distinct_end_matrices(draw, entry):
    """Matrices whose columns end (have their last nonzero entry) in
    distinct rows, drawn in any order."""
    m = draw(st.integers(0, 6))
    b = draw(st.integers(m, 7))
    ends = draw(st.permutations(range(b)))[:m]
    cols = [[draw(entry) for _ in range(e)] + [draw(entry.filter(bool))] + [0] * (b - 1 - e)
            for e in ends]
    return IntMatrix.from_rows(list(zip(*cols)) if m else [()] * b, cols=m)


entries = st.integers(-3, 3) | st.integers(-2**40, 2**40)


@given(distinct_end_matrices(entries))
def test_injective_accepts_columns_that_end_in_distinct_rows(M):
    assert exactalg._injective(M)


@given(column_matrices(entries) | distinct_end_matrices(entries))
@example(IntMatrix.from_rows([[1, 0], [0, 0]]))  # a zero column ends nowhere
def test_injective_is_never_true_for_dependent_columns(M):
    if exactalg._injective(M):
        assert rational_rank(M.entries) == M.cols


@given(st.data())
def test_generator_lifts_on_random_complexes(data):
    # few outgoing rows and wide combinations leave torsion whose lifts
    # need the reduction modulo the image
    m, a, b = (data.draw(st.integers(lo, hi))
               for lo, hi in ((2, 5), (1, 4), (0, 2)))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    kernel = kernel_columns(d_out)
    combos = [[data.draw(st.integers(-6, 6)) for _ in kernel] for _ in range(a)]
    d_in = IntMatrix.from_rows(
        [[sum(c * v[i] for c, v in zip(combo, kernel)) for combo in combos]
         for i in range(m)], cols=a)
    sub = subquotient_group(d_in, d_out)
    hnf, pivots = row_hnf([[row[j] for row in d_in.entries] for j in range(a)])
    lifts = [list(vec) for _, vec in sub.generator_vectors]
    for (order, _), g in zip(sub.generator_vectors, lifts):
        assert all(sum(a * x for a, x in zip(row, g)) == 0 for row in d_out.entries)
        neg = [-x for x in g]
        assert g == reduce_mod_rows(hnf, pivots, g) or \
            neg == reduce_mod_rows(hnf, pivots, neg)
        assert class_order(d_in, d_out, g) == order
    assert generates(d_in, d_out, lifts)


# The Smith-log queries that reduction modulo echelon bases replaced, kept
# as the reference: kernel coordinates by ``V^-1`` of the outgoing map,
# class orders by the relations' ``U``, and generation by the Smith form of
# the relations extended by the vectors' kernel coordinates.
def reference_kernel_coords(out_snf, vector):
    y = [row[0] for row in out_snf.apply("V_inv", [[x] for x in vector])]
    r = out_snf.rank
    return None if any(y[:r]) else y[r:]


def reference_relations(d_in, out_snf):
    y = out_snf.apply("V_inv", d_in.entries)
    return IntMatrix.from_rows(y[out_snf.rank:], cols=d_in.cols)


def reference_class_order(d_in, d_out, vector):
    out_snf = smith_normal_form_full(d_out)
    y = reference_kernel_coords(out_snf, vector)
    if y is None:
        raise ValueError("vector is not a cocycle")
    relations = reference_relations(d_in, out_snf)
    k = relations.rows
    if k and relations.cols:
        rel_snf = smith_normal_form_full(relations)
        D = rel_snf.D
        orders = [D.entries[i][i] if i < D.cols else 0 for i in range(k)]
        y = [row[0] for row in rel_snf.apply("U", [[x] for x in y])]
    else:
        orders = [0] * k
    order = 1
    for d, c in zip(orders, y):
        if d == 0:
            if c:
                return 0
        elif d > 1 and c % d:
            order = math.lcm(order, d // math.gcd(d, c))
    return order


def reference_generates(d_in, d_out, vectors):
    out_snf = smith_normal_form_full(d_out)
    extra = []
    for v in vectors:
        z = reference_kernel_coords(out_snf, v)
        if z is None:
            raise ValueError("vector is not a cocycle")
        extra.append(z)
    relations = reference_relations(d_in, out_snf)
    k = relations.rows
    if k == 0:
        return True
    rows = [list(row) + [z[i] for z in extra]
            for i, row in enumerate(relations.entries)]
    facs = invariant_factors(
        IntMatrix.from_rows(rows, cols=relations.cols + len(extra)))
    return len(facs) == k and all(d == 1 for d in facs)


def assert_queries_match_references(d_in, d_out, vectors):
    """Class orders of each vector and generation by all of them agree
    with the references, a non-cocycle raising ``ValueError`` in both."""
    def reference_class_orders(d_in, d_out, vectors):
        return tuple(reference_class_order(d_in, d_out, v) for v in vectors)

    for query, reference, args in (
            *((class_order, reference_class_order, v) for v in vectors),
            (class_orders, reference_class_orders, vectors),
            (generates, reference_generates, vectors)):
        try:
            expected = reference(d_in, d_out, args)
        except ValueError:
            with pytest.raises(ValueError, match="not a cocycle"):
                query(d_in, d_out, args)
        else:
            assert query(d_in, d_out, args) == expected


@pytest.mark.parametrize("d_in, d_out, vectors", [
    (*Z2_PAIR, [[1], [2], [0], [-3]]),                      # 0-row d_out
    (*DEGREE_NINE_PAIR, [[0, -2, 1, 0, 0, 1, 0], [0, 0, 0, 1, -1, 0, 0]]),
    (*DEGREE_NINE_PAIR, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]]),  # Z, not a cocycle
    (IntMatrix.zero(3, 0), IntMatrix.from_rows([[1, 1, 0]]),  # no columns in
     [[1, -1, 0], [0, 0, 2], [0, 0, 0]]),                 # free, order 0
    (IntMatrix.from_rows([[2], [0]]), IntMatrix.zero(0, 2), [[1, 3], [3, 0]]),
])
def test_echelon_queries_match_references_on_edge_cases(d_in, d_out, vectors):
    assert_queries_match_references(d_in, d_out, vectors)


@given(st.data())
def test_echelon_queries_match_smith_references(data):
    # random complexes, with and without a 0-row outgoing map or incoming
    # columns; the vectors are mostly cocycles, with free and torsion
    # classes, and sometimes a random vector that is not one
    m, a, b = (data.draw(st.integers(lo, hi))
               for lo, hi in ((0, 5), (0, 4), (0, 3)))
    entry = st.integers(-3, 3)
    d_out = IntMatrix.from_rows(
        [[data.draw(entry) for _ in range(m)] for _ in range(b)], cols=m)
    kernel = kernel_columns(d_out)

    def cocycle(bound):
        combo = [data.draw(st.integers(-bound, bound)) for _ in kernel]
        return [sum(c * v[i] for c, v in zip(combo, kernel)) for i in range(m)]

    cols = [cocycle(6) for _ in range(a)]
    d_in = IntMatrix.from_rows([[col[i] for col in cols] for i in range(m)], cols=a)
    vectors = [cocycle(4) if data.draw(st.integers(0, 4)) else
               [data.draw(entry) for _ in range(m)]
               for _ in range(data.draw(st.integers(0, 3)))]
    assert_queries_match_references(d_in, d_out, vectors)
    lifts = [list(vec) for _, vec in subquotient_group(d_in, d_out).generator_vectors]
    assert_queries_match_references(d_in, d_out, lifts)


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

def test_p_part():
    assert [p_part(n, 2) for n in (1, 2, 12, -48, 7)] == [1, 2, 4, 16, 1]
    assert FinAbGroup(1, (6, 36)).localize(3) == FinAbGroup(1, (3, 9))
    assert FinAbGroup(0, (6, 36)).localize(5) == FinAbGroup.trivial()


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
    assert math.prod(s.invariant_factors) == 8
    assert str(s) == "Z + Z/2 + Z/4"


@given(st.data())
def test_smith_diagonal_is_the_chain_then_zeros(data):
    n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(st.integers(-5, 5), min_size=m, max_size=m),
                              min_size=n, max_size=n))
    M = IntMatrix.from_rows(rows, cols=m)
    snf = smith_normal_form_full(M)
    diagonal = snf.diagonal
    assert len(diagonal) == min(n, m)
    r = snf.rank
    assert all(diagonal[:r]) and not any(diagonal[r:])
    assert all(b % a == 0 for a, b in zip(diagonal[:r], diagonal[1:r]))
    assert invariant_factors(M) == tuple(diagonal[:r])
    # every rhs in the image is solved, on either side of a square shape
    v = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
    rhs = [sum(a * x for a, x in zip(row, v)) for row in rows]
    x = solve_integer(M, rhs)
    assert [sum(a * y for a, y in zip(row, x)) for row in rows] == rhs
    if n > r:
        # a rhs off the rank's rows is refused
        off = snf.apply("U_inv", [[int(i == n - 1)] for i in range(n)])
        assert solve_integer(M, [row[0] for row in off]) is None


def test_solve_integer_and_hnf():
    A = [[2, 0], [0, 3]]
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None
    hnf, piv = row_hnf([[2, 4, 1], [0, 2, 0]])
    assert reduce_mod_rows(hnf, piv, [2, 4, 1]) == [0, 0, 0]


@given(st.data())
def test_lattice_representative_ignores_echelon_basis(data):
    # row_hnf reduces each new pivot row only modulo the pivots right of it,
    # never the rows above it, so its basis is not the Hermite form; the
    # representative must still depend on the lattice alone
    m = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m),
                              min_size=2, max_size=5))
    v = data.draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m))
    hnf, pivots = row_hnf(rows)
    rep = reduce_mod_rows(hnf, pivots, v)
    for row, pc in zip(hnf, pivots):
        assert 0 <= rep[pc] < row[pc]
    # the same lattice from another basis: rows shuffled, one added to another
    other = [list(rows[i]) for i in data.draw(st.permutations(range(len(rows))))]
    i, k = data.draw(st.permutations(range(len(rows))))[:2]
    other[i] = [a + b for a, b in zip(other[i], other[k])]
    assert reduce_mod_rows(*row_hnf(other), v) == rep
    # v - rep is an integer combination of the rows
    columns = IntMatrix.from_rows([[r[j] for r in rows] for j in range(m)],
                                  cols=len(rows))
    assert solve_integer(columns, [a - b for a, b in zip(v, rep)]) is not None


# the column sweep that row_hnf replaced, kept as the reference: pairwise
# Euclid per column, no reduction of the entries right of the column
def reference_row_hnf(rows):
    """Row echelon basis with positive pivots, not reduced above the pivots.

    Returns ``(rows, pivot_cols)`` for the lattice spanned by ``rows``:
    each row is zero left of its pivot, and the pivot columns increase.
    Reducing the entries above the pivots would give the Hermite normal
    form, but ``reduce_mod_rows`` does not need it: the pivot columns and
    pivot values of any such basis are those of the Hermite form, so the
    representatives it returns are the same.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    m = len(work[0])
    hnf = []
    pivots = []
    col = 0
    while work and col < m:
        nonzero = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not nonzero:
            col += 1
            continue
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            base = nonzero[0]
            # every working row is zero left of col
            base_nz = [(j, base[j]) for j in range(col, m) if base[j]]
            new_rest = []
            for r in nonzero[1:]:
                q = r[col] // base[col]
                for j, x in base_nz:
                    r[j] -= q * x
                if r[col]:
                    new_rest.append(r)
                elif any(r):
                    rest.append(r)
            nonzero = [base] + new_rest
        pivot_row = nonzero[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        hnf.append(pivot_row)
        pivots.append(col)
        work = rest
        col += 1
    return hnf, pivots


@st.composite
def lattices(draw):
    m = draw(st.integers(1, 8))
    entry = st.integers(-50, 50) | st.sampled_from([2**40, -2**40, 2**40 + 3])
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), max_size=10))
    # zero rows, duplicates and combinations of rows already drawn
    for kind in draw(st.lists(st.sampled_from("zdc"), max_size=3)):
        if kind == "z" or not rows:
            rows.append([0] * m)
        elif kind == "d":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(st.integers(-7, 7)), draw(st.integers(-7, 7))
            rows.append([p * x + q * y for x, y in zip(a, b)])
    order = draw(st.permutations(range(len(rows))))
    return m, [rows[i] for i in order]


# the dense loop that reduce_mod_rows replaced, kept as the reference: it
# walks every column from the pivot on, zeros included
def reference_reduce_mod_rows(hnf, pivots, vector):
    v = list(vector)
    for row, pc in zip(hnf, pivots):
        q = v[pc] // row[pc]
        if q:
            for j in range(pc, len(v)):
                v[j] -= q * row[j]
    return v


@given(lattices(), st.data())
def test_reduce_mod_rows_matches_the_dense_loop(lattice, data):
    m, rows = lattice
    vectors = data.draw(st.lists(st.lists(st.integers(-2**41, 2**41),
                                          min_size=m, max_size=m), max_size=4))
    for hnf, pivots in (row_hnf(rows), reference_row_hnf(rows)):
        for v in rows + vectors:
            assert reduce_mod_rows(hnf, pivots, v) == \
                reference_reduce_mod_rows(hnf, pivots, v)


@settings(max_examples=200)
@given(lattices(), st.data())
def test_row_hnf_matches_the_column_sweep(lattice, data):
    m, rows = lattice
    hnf, pivots = row_hnf(rows)
    ref, ref_pivots = reference_row_hnf(rows)
    assert pivots == ref_pivots
    assert [row[pc] for row, pc in zip(hnf, pivots)] == \
        [row[pc] for row, pc in zip(ref, ref_pivots)]
    for row, pc in zip(hnf, pivots):
        assert len(row) == m and not any(row[:pc]) and row[pc] > 0
    # the same pivots and an index-preserving span: every input row lies in
    # the lattice of the basis, so the two lattices are equal
    for row in rows:
        assert not any(reduce_mod_rows(hnf, pivots, row))
    vectors = data.draw(st.lists(st.lists(st.integers(-2**41, 2**41),
                                          min_size=m, max_size=m), max_size=4))
    for v in vectors:
        assert reduce_mod_rows(hnf, pivots, v) == reduce_mod_rows(ref, ref_pivots, v)


# row_hnf before its extended-gcd combine walked only nonzeros, kept as the
# reference: the combine ran two dense comprehensions over whole rows
def dense_combine_row_hnf(rows):
    basis, support, pivots = {}, {}, []

    def install(row, c):
        for pc in pivots[bisect_right(pivots, c):]:
            x = row[pc]
            if x:
                q = x // basis[pc][pc]
                if q:
                    for j, y in support[pc]:
                        row[j] -= q * y
        basis[c] = row
        support[c] = [(j, x) for j, x in enumerate(row) if x]

    for r in rows:
        r = list(r)
        m = len(r)
        c = 0
        while True:
            while c < m and not r[c]:
                c += 1
            if c == m:
                break
            a = r[c]
            b = basis.get(c)
            if b is None:
                if a < 0:
                    r = [-x for x in r]
                insort(pivots, c)
                install(r, c)
                break
            p = b[c]
            q, rem = divmod(a, p)
            if not rem:
                for j, x in support[c]:
                    r[j] -= q * x
            else:
                g, s, t = ext_gcd(p, a)
                u, v = p // g, a // g
                install([s * x + t * y for x, y in zip(b, r)], c)
                r = [u * y - v * x for x, y in zip(b, r)]
            c += 1
    return [basis[c] for c in pivots], pivots


@st.composite
def sparse_lattices(draw):
    """Rows with a few nonzeros each, like the Lazard lattices, whose
    pivots often fail to divide and so take the extended-gcd combine."""
    m = draw(st.integers(1, 14))
    cells = st.tuples(st.integers(0, m - 1),
                      st.integers(-60, 60) | st.sampled_from([2**40 + 3, -2**40]))
    rows = []
    for cs in draw(st.lists(st.lists(cells, max_size=3), max_size=12)):
        row = [0] * m
        for j, x in cs:
            row[j] = x
        rows.append(row)
    return rows


@settings(max_examples=200)
@given(sparse_lattices())
@example([[6, 0, 4, 0], [4, 3, 0, 0], [0, 0, 0, 0], [9, 0, 0, 5]])
def test_row_hnf_matches_the_dense_combine(rows):
    assert row_hnf(rows) == dense_combine_row_hnf(rows)


def test_row_hnf_of_no_rows():
    assert row_hnf([]) == ([], [])
    assert row_hnf(iter([(0, 0), (0, 0)])) == ([], [])


def test_row_hnf_entries_stay_small_on_the_lazard_lattices(monkeypatch):
    # the column sweep reached 2,425-bit entries on the weight-16
    # decomposable lattice, whose whole index is 1,818 bits
    bases = []

    def recording(rows):
        hnf, pivots = row_hnf(rows)
        bases.append(hnf)
        return hnf, pivots

    monkeypatch.setattr(fgl, "row_hnf", recording)
    basis = fgl.LazardBasis(16)
    top = bases[-1]  # the lattices are reduced in weight order, 16 last
    assert len(top[0]) == len(basis.m_table.monomials_of_weight(16))
    assert max(abs(x).bit_length() for row in top for x in row) <= 64


def test_integer_matrices_reject_non_integers():
    # truncating would read [[3/2, 2.9]] as [[1, 2]] and miss x = 2 below
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[Fraction(3, 2), 2.9]])
    with pytest.raises(TypeError):
        solve_integer([[Fraction(1, 2)]], [1])


def test_rational_rank():
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 2), 0], [0, 1]]) == 2
