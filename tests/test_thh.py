from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from fglthh.cli import main
from fglthh.exactalg import DegreeGuardError, GenTable, GeneratorTableError, GradedPoly
from fglthh.fgl import TypicalBasis, x_name, v_name
from fglthh.exactalg import IntegralityError
from fglthh.thh import (DeRhamDifferential, ExtElement, SigmaTable, ThhFlavor, sigma_bp,
                        sigma_mu_split, lambda_in_e, ring_map, hurewicz_mu,
                        hurewicz_bp, merge_sign, mu_split_flavor)
from fglthh.cohomology import basis_element, staircase
from fglthh import verify

from test_derivations import partial_oracle


def xg(basis, n, exp=1):
    return GradedPoly.gen(basis.x_table, x_name(n), exp)


def lam(table, n, coeff=None):
    return ExtElement.ext_gen(table.flavor, n, coeff)


# ---------------------------------------------------------------------------
# exterior algebra mechanics
# ---------------------------------------------------------------------------

def test_merge_signs():
    assert merge_sign((1,), (2,)) == 1
    assert merge_sign((2,), (1,)) == -1
    assert merge_sign((1, 3), (2,)) == -1


def test_exterior_anticommutativity(lazard6, sigma_moving10):
    fl = sigma_moving10.flavor
    a = ExtElement.ext_gen(fl, 1)
    b = ExtElement.ext_gen(fl, 2)
    assert a * b == (b * a).scale(-1)
    assert (a * a).is_zero()


# ---------------------------------------------------------------------------
# sigma on the base, moving coordinates
# ---------------------------------------------------------------------------

def test_sigma_moving_low_degrees(lazard10, sigma_moving10):
    b, sig = lazard10, sigma_moving10
    x1, x2, x3 = xg(b, 1), xg(b, 2), xg(b, 3)
    const = lambda c: GradedPoly.const(b.x_table, c)
    assert sig.on_base["x_1"] == lam(sig, 1, const(-2))
    assert sig.on_base["x_2"] == lam(sig, 1, -4 * x1) + lam(sig, 2, const(-3))
    assert sig.on_base["x_3"] == (lam(sig, 1, -(4 * x2 + 5 * x1 ** 2))
                                  + lam(sig, 2, -6 * x1) + lam(sig, 3, const(-2)))
    assert sig.on_base["x_4"] == (lam(sig, 1, -4 * (2 * x3 - x1 * x2))
                                  + lam(sig, 2, -3 * (2 * x2 + x1 ** 2))
                                  + lam(sig, 3, -8 * x1) + lam(sig, 4, const(-5)))


def test_sigma_extend_examples(lazard10, sigma_moving10):
    b, sig = lazard10, sigma_moving10
    x1 = xg(b, 1)
    # Leibniz on an even square
    got = sig.sigma(ExtElement.from_base(sig.flavor, x1 ** 2))
    assert got == lam(sig, 1, -4 * x1)
    # constants and exterior products of cycles die
    assert sig.sigma(ExtElement.from_base(sig.flavor, GradedPoly.one(b.x_table))).is_zero()
    assert sig.sigma(lam(sig, 1) * lam(sig, 2)).is_zero()


@given(w1=st.integers(min_value=1, max_value=3), w2=st.integers(min_value=1, max_value=3),
       n1=st.integers(min_value=1, max_value=3), n2=st.integers(min_value=1, max_value=3))
def test_right_leibniz(sigma_moving10, lazard10, w1, w2, n1, n2):
    sig = sigma_moving10
    fl = sig.flavor
    mono1 = lazard10.x_table.monomials_of_weight(w1)[0]
    mono2 = lazard10.x_table.monomials_of_weight(w2)[-1]
    a = ExtElement(fl, {(n1,): GradedPoly(lazard10.x_table, {mono1: 1})})
    b = ExtElement(fl, {(n2,): GradedPoly(lazard10.x_table, {mono2: 2})})
    if n1 == n2:
        return
    # |a| and |b| are odd here, so sigma(ab) = a sigma(b) - sigma(a) b
    lhs = sig.sigma(a * b)
    rhs = a * sig.sigma(b) + (sig.sigma(a) * b).scale(-1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# the sigma kernel against the ExtElement route it replaced
# ---------------------------------------------------------------------------

# ``SigmaTable.sigma`` before it summed onto packed monomials, kept as the
# reference: one ExtElement product per partial derivative and per factor,
# the partials taken one generator at a time by the test oracle

def reference_sigma_base_poly(table, poly):
    out = ExtElement.zero(table.flavor)
    for name in table.flavor.base.names:
        part = partial_oracle(poly, name)
        if not part.is_zero():
            out = out + table.on_base[name] * part
    return out


def reference_sigma_ext_monomial(table, subset):
    if not subset:
        return ExtElement.zero(table.flavor)
    head, tail = subset[0], subset[1:]
    sh = table.on_ext.get(head, ExtElement.zero(table.flavor))
    head_elt = ExtElement.ext_gen(table.flavor, head)
    out = head_elt * reference_sigma_ext_monomial(table, tail)
    sign = -1 if len(tail) % 2 else 1
    tail_elt = ExtElement(table.flavor, {tail: GradedPoly.one(table.flavor.base)})
    return out + (sh * tail_elt).scale(sign)


def reference_sigma(table, elt):
    out = ExtElement.zero(table.flavor)
    for subset, coeff in elt.terms.items():
        sc = reference_sigma_base_poly(table, coeff)
        lam_s = ExtElement(table.flavor, {subset: GradedPoly.one(table.flavor.base)})
        sign = -1 if len(subset) % 2 else 1
        out = out + (sc * lam_s).scale(sign)
        if table.on_ext:
            out = out + coeff * reference_sigma_ext_monomial(table, subset)
    return out


def reference_sigma_prime(table, elt):
    out = ExtElement.zero(table.flavor)
    for subset, coeff in elt.terms.items():
        piece = reference_sigma(table, ExtElement(table.flavor, {subset: coeff}))
        base = table.flavor.base
        d = 2 * coeff.weight() + sum(2 * base.gens[n - 1][1] + 1 for n in subset)
        out = out + (piece.scale(-1) if d % 2 else piece)
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except (DegreeGuardError, GeneratorTableError) as err:
        return type(err)


@pytest.fixture(scope="session")
def kernel_tables(structure10, sigma_moving10, sigma_split10, sigma_bp_tables):
    return {"mu-moving": sigma_moving10, "mu-split": sigma_split10,
            "bp-2": sigma_bp_tables[2], "bp-3": sigma_bp_tables[3],
            "de-rham": DeRhamDifferential(structure10.c_table)}


def draw_element(data, table):
    """A homogeneous element: up to four exterior subsets (of up to three
    indices) of one internal degree, each with a few monomials and integer
    or Fraction coefficients."""
    flavor = table.flavor
    base = flavor.base
    by_degree = {}
    for size in range(4):
        for subset in combinations(flavor.ext_indices(), size):
            ext = sum(2 * base.gens[n - 1][1] + 1 for n in subset)
            for w in range(min(base.bound, 20) + 1):
                if ext + 2 * w < 2 * base.bound and base.monomials_of_weight(w):
                    by_degree.setdefault(ext + 2 * w, []).append((subset, w))
    degree = data.draw(st.sampled_from(sorted(by_degree)))
    parts = data.draw(st.lists(st.sampled_from(by_degree[degree]), min_size=1,
                               max_size=4, unique=True))
    coeffs = (st.integers(-9, 9)
              | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    terms = {}
    for subset, w in parts:
        picked = data.draw(st.lists(st.sampled_from(base.monomials_of_weight(w)),
                                    min_size=1, max_size=3, unique=True))
        terms[subset] = GradedPoly(base, {m: data.draw(coeffs) for m in picked})
    return ExtElement(flavor, terms)


@pytest.mark.parametrize("which", ["mu-moving", "mu-split", "bp-2", "bp-3", "de-rham"])
@given(data=st.data())
def test_sigma_kernel_matches_the_reference(kernel_tables, which, data):
    table = kernel_tables[which]
    elt = draw_element(data, table)
    if which == "de-rham":
        assert outcome(table.apply, elt) == outcome(reference_sigma_prime, table, elt)
    else:
        assert outcome(table.sigma, elt) == outcome(reference_sigma, table, elt)
        assert (outcome(table.sigma_prime, elt)
                == outcome(reference_sigma_prime, table, elt))


def test_prefix_tables_match_the_reference(lazard6):
    # sigma_mu_split solves sigma(e_n) on the table of the values below n;
    # each such table is built whole, and its values cannot be edited after
    full = sigma_mu_split(lazard6)
    flavor = full.flavor
    x1 = GradedPoly.gen(flavor.base, x_name(1))
    differs = []
    for n in range(1, 7):
        table = SigmaTable(flavor, full.on_base, {k: full.on_ext[k] for k in range(1, n)})
        elts = [ExtElement(flavor, {subset: coeff})
                for subset in [(n,)] + [(k, n) for k in range(1, n)]
                for coeff in (GradedPoly.one(flavor.base), x1)]
        got = [table.sigma(e) for e in elts]
        assert got == [reference_sigma(table, e) for e in elts]
        if got != [full.sigma(e) for e in elts]:
            differs.append(n)
    assert differs == [3, 4, 5, 6]  # sigma(e_n) is nonzero from n = 3 on
    for values, key in ((full.on_base, x_name(1)), (full.on_ext, 1), (full.on_ext, 7)):
        with pytest.raises(TypeError):
            values[key] = ExtElement.zero(flavor)


def toy_table(on_base, on_ext=None, bound=3):
    base = GenTable([("x", 1), ("y", 1)], bound)
    flavor = ThhFlavor("toy", base, "l")
    return SigmaTable(flavor, on_base(flavor, base), on_ext and on_ext(flavor, base))


def test_sigma_guards_the_table_bound():
    def images(flavor, base):
        x, y = GradedPoly.gen(base, "x"), GradedPoly.gen(base, "y")
        return {"x": ExtElement.ext_gen(flavor, 1, y ** 3),
                "y": ExtElement.ext_gen(flavor, 1, x * y ** 2)}

    def ext_values(flavor, base):
        return {2: ExtElement.ext_gen(flavor, 1, GradedPoly.gen(base, "x", 3))}

    table = toy_table(images, ext_values)
    base = table.flavor.base
    x, y = GradedPoly.gen(base, "x"), GradedPoly.gen(base, "y")
    # 2x*y^3 - 2y*xy^2 cancels, but each product has weight 4 past the bound 3
    elt = ExtElement.from_base(table.flavor, x * x - y * y)
    for f in (table.sigma, lambda e: reference_sigma(table, e)):
        with pytest.raises(DegreeGuardError):
            f(elt)
    # x * sigma(l_2) = x^4 l_1
    elt = ExtElement.ext_gen(table.flavor, 2, GradedPoly.one(base))
    assert table.sigma(elt) == reference_sigma(table, elt)
    elt = ExtElement.ext_gen(table.flavor, 2, x)
    for f in (table.sigma, lambda e: reference_sigma(table, e)):
        with pytest.raises(DegreeGuardError):
            f(elt)
    # within the bound the kernel and the reference agree
    wide = toy_table(images, ext_values, bound=6)
    for coeff in (x * x - y * y, x * y, x):
        elt = ExtElement.ext_gen(wide.flavor, 2, coeff.extend_to(wide.flavor.base))
        assert wide.sigma(elt) == reference_sigma(wide, elt)


def test_sigma_refuses_a_foreign_coefficient(sigma_moving10, sigma_split10, lazard8):
    foreign = GradedPoly.gen(lazard8.x_table, x_name(2)) * GradedPoly.gen(
        lazard8.x_table, x_name(1))
    for table in (sigma_moving10, sigma_split10):
        for subset in ((), (3,)):
            elt = ExtElement(table.flavor, {subset: foreign})
            for f in (table.sigma, lambda e: reference_sigma(table, e)):
                with pytest.raises(GeneratorTableError):
                    f(elt)


# ---------------------------------------------------------------------------
# split coordinates
# ---------------------------------------------------------------------------

def test_sigma_split_low_degrees(lazard10, sigma_split10):
    b, sig = lazard10, sigma_split10
    x1, x2, x3 = xg(b, 1), xg(b, 2), xg(b, 3)
    const = lambda c: GradedPoly.const(b.x_table, c)
    assert sig.on_base["x_1"] == lam(sig, 1, const(2))
    assert sig.on_base["x_2"] == lam(sig, 1, x1) + lam(sig, 2, const(3))
    assert sig.on_base["x_3"] == (lam(sig, 1, 2 * x2 + x1 ** 2)
                                  + lam(sig, 2, 4 * x1) + lam(sig, 3, const(2)))
    assert sig.on_base["x_4"] == (lam(sig, 1, 2 * x1 * x2 - 2 * x3)
                                  + lam(sig, 2, x2) + lam(sig, 3, 3 * x1)
                                  + lam(sig, 4, const(5)))


def test_sigma_split_exterior_values(sigma_split10):
    sig = sigma_split10
    assert sig.on_ext[1].is_zero()
    assert sig.on_ext[2].is_zero()
    assert sig.on_ext[3] == lam(sig, 1) * lam(sig, 2)
    assert sig.on_ext[4] == (lam(sig, 1) * lam(sig, 3)).scale(2)


def test_lambda_in_e_identities(lazard10, sigma_split10):
    conv = lambda_in_e(lazard10)
    b = lazard10
    sig = sigma_split10
    x1, x2, x3 = xg(b, 1), xg(b, 2), xg(b, 3)
    assert conv[1] == lam(sig, 1).scale(-1)
    assert conv[2] == lam(sig, 1, x1) - lam(sig, 2)
    assert conv[3] == lam(sig, 1, x2 - x1 ** 2) + lam(sig, 2, x1) - lam(sig, 3)
    assert conv[4] == (lam(sig, 1, 2 * x3 - 4 * x1 * x2 + x1 ** 3)
                       + lam(sig, 2, x2 - x1 ** 2) + lam(sig, 3, x1) - lam(sig, 4))


def test_flavor_coherence(lazard10, sigma_moving10, sigma_split10):
    conv = lambda_in_e(lazard10)
    for n in range(1, 5):
        assert (ring_map(sigma_moving10.on_base[x_name(n)], sigma_split10.flavor, conv)
                == sigma_split10.on_base[x_name(n)])


# The three cochain maps that ``ring_map`` replaced, kept as its references.

def convert_moving_to_split_oracle(conversion, elt):
    target_flavor = next(iter(conversion.values())).flavor
    out = ExtElement.zero(target_flavor)
    for subset, coeff in elt.terms.items():
        acc = ExtElement.from_base(target_flavor, coeff)
        for n in subset:
            acc = acc * conversion[n]
        out = out + acc
    return out


def include_forms_to_thh_oracle(sigma_table, source_flavor, elt):
    out = ExtElement.zero(sigma_table.flavor)
    base = sigma_table.flavor.base
    for subset, coeff in elt.terms.items():
        acc = ExtElement.from_base(sigma_table.flavor, coeff.extend_to(base))
        for n in subset:
            acc = acc * sigma_table.on_base[source_flavor.base.name(n - 1)]
        out = out + acc
    return out


def include_thh_to_forms_oracle(basis, derham, elt):
    out = ExtElement.zero(derham.flavor)
    for subset, coeff in elt.terms.items():
        image, integral = hurewicz_mu(basis, coeff)
        if not integral:
            raise IntegralityError("homology image is not integral")
        out = out + ExtElement(derham.flavor, {subset: image})
    return out


def staircase_elements(diff, d_max):
    for root in range(0, d_max + 1, 2):
        stair = staircase(diff, root)
        for q, basis in enumerate(stair.bases):
            if root + q <= d_max:
                for subset, mono in basis:
                    yield basis_element(diff, subset, mono)


def test_ring_map_matches_the_three_cochain_maps(lazard10, sigma_moving10):
    conv = lambda_in_e(lazard10)
    split = mu_split_flavor(lazard10)
    # one de Rham complex is both the base's and the homology ring's
    derham = DeRhamDifferential(lazard10.x_table)
    sigma_x = {n: sigma_moving10.on_base[x_name(n)] for n in range(1, 11)}
    dx = {n: ExtElement.ext_gen(derham.flavor, n) for n in range(1, 11)}

    def integral_image(coeff):
        image, integral = hurewicz_mu(lazard10, coeff)
        assert integral
        return image

    count = 0
    for elt in staircase_elements(sigma_moving10, 10):
        count += 1
        assert ring_map(elt, split, conv) == convert_moving_to_split_oracle(conv, elt)
        assert (ring_map(elt, derham.flavor, dx, integral_image)
                == include_thh_to_forms_oracle(lazard10, derham, elt))
    for elt in staircase_elements(derham, 10):
        count += 1
        assert (ring_map(elt, sigma_moving10.flavor, sigma_x)
                == include_forms_to_thh_oracle(sigma_moving10, derham.flavor, elt))
    assert count == 72  # basis elements of both staircase families through d = 10


def test_de_rham_differential_is_a_sigma_table():
    import fglthh.cohomology
    assert issubclass(DeRhamDifferential, SigmaTable)
    assert fglthh.cohomology.DeRhamDifferential is DeRhamDifferential


# ---------------------------------------------------------------------------
# p-typical sigma
# ---------------------------------------------------------------------------

def test_sigma_bp_theorem_values(sigma_bp_tables):
    for p, sig in sigma_bp_tables.items():
        vt = sig.flavor.base
        v1 = GradedPoly.gen(vt, v_name(1))
        v2 = GradedPoly.gen(vt, v_name(2))
        const = lambda c: GradedPoly.const(vt, c)
        assert sig.on_base["v_1"] == lam(sig, 1, const(p))
        assert sig.on_base["v_2"] == (lam(sig, 2, const(p))
                                      + lam(sig, 1, -(p + 1) * v1 ** p))
        expected3 = (lam(sig, 3, const(p))
                     + lam(sig, 2, -(p * v1 * v2 ** (p - 1) + v1 ** (p * p)))
                     + lam(sig, 1, -(v2 ** p
                                     - (p + 1) * v1 ** (p + 1) * v2 ** (p - 1)
                                     + p * p * v1 ** (p * p - 1) * v2
                                     + p * v1 ** (p * p + p))))
        assert sig.on_base["v_3"] == expected3
        for n in (1, 2, 3):
            assert not sig.on_ext.get(n)


def test_sigma_bp_recursion_oracle(typical_bases):
    # re-derive sigma(v_3) from the recursion by hand at each prime and
    # compare with the table sigma_bp builds
    for p, tb in typical_bases.items():
        sig = sigma_bp(tb)
        fl = sig.flavor
        vt = tb.v_table
        v = lambda n, e=1: GradedPoly.gen(vt, v_name(n), e)
        lam_n = lambda n, c=None: ExtElement.ext_gen(fl, n, c)
        acc = lam_n(3, GradedPoly.const(vt, p))
        acc = acc - lam_n(1, v(2, p)) - sig.on_base["v_2"] * (tb.pn_ell(1) * v(2, p - 1))
        acc = acc - lam_n(2, v(1, p * p)) - sig.on_base["v_1"] * (tb.pn_ell(2) * v(1, p * p - 1))
        assert acc == sig.on_base["v_3"]


def rational_sigma_bp(tbasis, flavor):
    """The backward route, the reference for ``verify``'s forward check: the
    de Rham differential ``d(ell_k) = lambda_k`` of each ``v_in_ell(n)``,
    every coefficient rewritten into the Hazewinkel basis, where it must be
    p-locally integral."""
    derham = DeRhamDifferential(tbasis.ell_table)
    out = {}
    for n in range(1, tbasis.max_n + 1):
        d_v = derham.sigma(ExtElement.from_base(derham.flavor, tbasis.v_in_ell(n)))
        terms = {}
        for subset, poly in d_v.terms.items():
            terms[subset], integral = tbasis.rewrite_ell_to_v(poly)
            assert integral, (n, subset)
        out[v_name(n)] = ExtElement(flavor, terms)
    return out


@pytest.mark.parametrize("p, n", [(2, 6), (3, 5), (5, 4)])
def test_sigma_bp_recursion_equals_the_rational_route(p, n):
    tb = TypicalBasis(p, n)
    sig = sigma_bp(tb)
    assert rational_sigma_bp(tb, sig.flavor) == sig.on_base
    assert verify.sigma_bp_disagreement(tb, sig) is None


def with_added_term(sig, n, term):
    on_base = dict(sig.on_base)
    on_base[v_name(n)] = on_base[v_name(n)] + term
    return SigmaTable(sig.flavor, on_base, sig.on_ext)


def test_sigma_tables_make_no_rational_rewrite(monkeypatch, capsys):
    calls = []
    rewrite = TypicalBasis.rewrite_ell_to_v

    def counting(self, poly):
        calls.append(poly.weight())
        return rewrite(self, poly)

    monkeypatch.setattr(TypicalBasis, "rewrite_ell_to_v", counting)
    assert main(["sigma", "--flavor", "bp", "--prime", "2", "--max-n", "5"]) == 0
    assert main(["cohomology", "--flavor", "bp", "--prime", "3", "--max-degree", "24"]) == 0
    for p in ("2", "3", "5"):
        assert main(["verify", "--flavor", "bp", "--prime", p]) == 0
    capsys.readouterr()
    assert calls == []


def test_verify_sees_a_perturbed_recursion(monkeypatch, capsys):
    def perturbed(tbasis):
        sig = sigma_bp(tbasis)
        on_base = dict(sig.on_base)
        on_base[v_name(2)] = on_base[v_name(2)].scale(-1)
        return SigmaTable(sig.flavor, on_base, sig.on_ext)

    monkeypatch.setattr(verify, "sigma_bp", perturbed)
    assert main(["verify", "--flavor", "bp", "--prime", "2", "--max-degree", "10"]) == 1
    out = capsys.readouterr().out
    assert ("[FAIL] recursive and rational sigma routes agree"
            "  [recursive and rational sigma disagree on v_2]") in out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_verify_sees_one_added_term(monkeypatch, capsys, p):
    # lambda_1 v_1^p added to sigma(v_2)
    def perturbed(tbasis):
        sig = sigma_bp(tbasis)
        v1 = GradedPoly.gen(tbasis.v_table, v_name(1))
        return with_added_term(sig, 2, lam(sig, 1, v1 ** p))

    monkeypatch.setattr(verify, "sigma_bp", perturbed)
    assert main(["verify", "--flavor", "bp", "--prime", str(p)]) == 1
    out = capsys.readouterr().out
    assert out.rstrip().endswith("[FAIL] recursive and rational sigma routes agree"
                                 "  [recursive and rational sigma disagree on v_2]")


def reduced_mod_invariant_ideal(elt, p, n):
    """``elt`` modulo ``I_{n-1} = (p, v_1, ..., v_{n-2})``: its terms free of
    v_1..v_{n-2} (generator indices below n - 2) whose coefficients p does
    not divide, keyed by (exterior subset, monomial), coefficients mod p."""
    base = elt.flavor.base
    return {(s, m): c % p for s, poly in elt.terms.items() for m, c in poly.terms.items()
            if c % p and all(i >= n - 2 for i, _ in base.exponents(m))}


def closed_form_failures(sig, p):
    """The n in 2..max_n where ``sigma(v_n)`` is not ``-v_{n-1}^p lambda_1``
    modulo ``I_{n-1}`` (Ravenel, *Complex Cobordism*, 4.3.21: only t_1
    enters eta_R(v_n) linearly there)."""
    out = []
    for n in range(2, len(sig.on_base) + 1):
        vpow = GradedPoly.gen(sig.flavor.base, v_name(n - 1)) ** p
        expected = lam(sig, 1, -vpow)
        if (reduced_mod_invariant_ideal(sig.on_base[v_name(n)], p, n)
                != reduced_mod_invariant_ideal(expected, p, n)):
            out.append(n)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sigma_bp_closed_form_modulo_the_invariant_ideal(p):
    # max_n 12 is the largest table ``sigma --flavor bp`` prints
    tb = TypicalBasis(p, 12)
    sig = sigma_bp(tb)
    assert closed_form_failures(sig, p) == []
    v1 = GradedPoly.gen(tb.v_table, v_name(1))
    bad = with_added_term(with_added_term(sig, 2, lam(sig, 1, v1 ** p)), 12, lam(sig, 12))
    assert closed_form_failures(bad, p) == [2, 12]


def test_sigma_bp_squares(sigma_bp_tables):
    for p, sig in sigma_bp_tables.items():
        for n in (1, 2, 3):
            base = ExtElement.from_base(sig.flavor,
                                        GradedPoly.gen(sig.flavor.base, v_name(n)))
            assert sig.sigma(sig.sigma(base)).is_zero()


# ---------------------------------------------------------------------------
# homology images
# ---------------------------------------------------------------------------

def test_hurewicz_mu(lazard10):
    # the image is on the integral alphabet, x_k standing for c_k
    c1, c2 = xg(lazard10, 1), xg(lazard10, 2)
    img, integral = hurewicz_mu(lazard10, xg(lazard10, 1))
    assert img == -2 * c1 and integral
    img, integral = hurewicz_mu(lazard10, xg(lazard10, 2))
    assert img == 4 * c1 ** 2 - 3 * c2 and integral
    for n in (3, 4):
        _, integral = hurewicz_mu(lazard10, xg(lazard10, n))
        assert integral


def test_hurewicz_bp(typical_structures):
    for p, ts in typical_structures.items():
        v1 = GradedPoly.gen(ts.tbasis.v_table, v_name(1))
        img, integral = hurewicz_bp(ts, v1)
        assert img == GradedPoly.gen(ts.t_table, "t_1").scale(p) and integral
        top = 2 if p == 2 else 1
        for n in range(1, top + 1):
            _, integral = hurewicz_bp(ts, GradedPoly.gen(ts.tbasis.v_table, v_name(n)))
            assert integral
