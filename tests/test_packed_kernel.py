"""The packed-exponent kernel against the tuple kernel it replaced.

Until monomials became one packed int each, a monomial was a tuple of
``(generator index, exponent)`` pairs sorted by index.  The tuple kernel's
monomial product, polynomial product, ``partials``, ``extend_to``,
``substitute``, ``mono_key`` and monomial enumeration are kept here
verbatim (on ``TupleTable`` and ``TuplePoly``) as the reference: after
unpacking through ``GenTable.exponents``, the packed kernel must give the
same polynomials and the same order, on tables shaped like the Lazard
alphabets (weights 1..N) and like the Hazewinkel ones (weights p^n - 1).
The partials are now the coefficients of the de Rham differential.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fglthh.exactalg import (DegreeGuardError, GenTable, GeneratorTableError,
                             GradedPoly, GradedWeightError, Substitution, _norm_coeff)

from test_derivations import de_rham_partials


# ---------------------------------------------------------------------------
# the tuple kernel, verbatim
# ---------------------------------------------------------------------------

class TupleTable:
    """The generator-table methods the tuple kernel reads, over the same
    sorted generators as a packed table."""

    def __init__(self, table):
        self.gens = table.gens
        self._index = {n: i for i, (n, _) in enumerate(self.gens)}

    def __eq__(self, other):
        return isinstance(other, TupleTable) and self.gens == other.gens

    def index(self, name):
        return self._index[name]

    def name(self, i):
        return self.gens[i][0]

    def weight_of(self, name):
        return self.gens[self.index(name)][1]

    def mono_weight(self, mono):
        return sum(e * self.gens[i][1] for i, e in mono)

    def mono_key(self, mono):
        """Canonical order key: ascending weight, then descending exponents."""
        dense = [0] * len(self.gens)
        for i, e in mono:
            dense[i] = e
        return (self.mono_weight(mono), tuple(-x for x in dense))

    def monomials_of_weight(self, w):
        """All monomials of the given weight, in canonical order."""
        if w < 0:
            return ()
        out = []
        gens = self.gens

        def rec(i, rem, acc):
            if rem == 0:
                out.append(tuple(acc))
                return
            if i >= len(gens) or gens[i][1] > rem:
                return
            rec(i + 1, rem, acc)
            wt = gens[i][1]
            for e in range(1, rem // wt + 1):
                acc.append((i, e))
                rec(i + 1, rem - e * wt, acc)
                acc.pop()

        rec(0, w, [])
        out.sort(key=self.mono_key)
        return tuple(out)


def mono_mul(a, b):
    """Product of two monomials: a merge of their index-sorted pairs."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        pa, pb = a[i], b[j]
        if pa[0] < pb[0]:
            out.append(pa)
            i += 1
        elif pb[0] < pa[0]:
            out.append(pb)
            j += 1
        else:
            out.append((pa[0], pa[1] + pb[1]))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


class TuplePoly:
    __slots__ = ("table", "terms")

    @classmethod
    def _raw(cls, table, terms):
        p = object.__new__(cls)
        p.table = table
        p.terms = terms
        return p

    @classmethod
    def zero(cls, table):
        return cls._raw(table, {})

    @classmethod
    def const(cls, table, c):
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return cls._raw(table, {(): c} if c else {})

    @classmethod
    def one(cls, table):
        return cls._raw(table, {(): 1})

    @classmethod
    def gen(cls, table, name, exp=1, coeff=1):
        i = table.index(name)
        coeff = _norm_coeff(coeff)
        if exp < 0:
            raise ValueError("negative exponent")
        mono = ((i, exp),) if exp else ()
        return cls._raw(table, {mono: coeff} if coeff else {})

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Common weight of all terms; None for the zero polynomial."""
        w = None
        for mono in self.terms:
            mw = self.table.mono_weight(mono)
            if w is None:
                w = mw
            elif w != mw:
                raise GradedWeightError(f"inhomogeneous polynomial: weights {w} and {mw}")
        return w

    def _check_table(self, other):
        if self.table is not other.table and self.table != other.table:
            raise GeneratorTableError("operands do not share a generator table")

    def __mul__(self, other):
        self._check_table(other)
        out = {}
        get = out.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = mono_mul(m1, m2)
                s = get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        for m, c in out.items():
            if type(c) is not int:
                out[m] = _norm_coeff(c)
        return TuplePoly._raw(self.table, out)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = TuplePoly.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partials(self):
        """Every nonzero first partial derivative, keyed by generator index
        in ascending order; one pass over the terms."""
        out = {}
        for mono, c in self.terms.items():
            for k, (i, e) in enumerate(mono):
                rest = mono[:k] + ((i, e - 1),) * (e > 1) + mono[k + 1:]
                part = out.setdefault(i, {})
                s = part.get(rest, 0) + c * e
                if s:
                    part[rest] = s
                else:
                    del part[rest]
        return {i: TuplePoly._raw(self.table, {m: _norm_coeff(c) for m, c in part.items()})
                for i, part in sorted(out.items()) if part}

    def extend_to(self, target):
        """Re-express on another table; every generator actually used must
        exist there under the same name."""
        remap = {}
        out = {}
        for mono, c in self.terms.items():
            key = []
            for i, e in mono:
                if i not in remap:
                    remap[i] = target.index(self.table.name(i))
                key.append((remap[i], e))
            out[tuple(sorted(key))] = c
        return TuplePoly._raw(target, out)

    def substitute(self, images, target):
        """Ring-map substitution.

        ``images`` maps generator names to polynomials over ``target``;
        generators without an image must exist in ``target`` with the same
        weight.  Each image must be zero or homogeneous of the generator's
        weight, so substitution preserves homogeneity.
        """
        for name, img in images.items():
            if img.table != target:
                raise GeneratorTableError(f"image of {name!r} is not over the target table")
            w = img.weight()
            if w is not None and w != self.table.weight_of(name):
                raise GradedWeightError(f"image of {name!r} has weight {w}, "
                                        f"expected {self.table.weight_of(name)}")
        pow_cache = {}
        out = TuplePoly.zero(target)
        for mono, c in self.terms.items():
            acc = TuplePoly.const(target, c)
            for i, e in mono:
                name = self.table.name(i)
                if name in images:
                    key = (name, e)
                    if key not in pow_cache:
                        pow_cache[key] = images[name] ** e
                    factor = pow_cache[key]
                else:
                    factor = TuplePoly.gen(target, name, e)
                acc = acc * factor
                if acc.is_zero():
                    break
            if not acc.is_zero():
                out = _accumulate(out, acc)
        return out


def _accumulate(total, piece):
    # unchecked add for internal accumulation of same-weight pieces
    out = total.terms
    for mono, c in piece.terms.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = _norm_coeff(s)
        else:
            out.pop(mono, None)
    return TuplePoly._raw(total.table, out)


# ---------------------------------------------------------------------------
# translation between the two kernels
# ---------------------------------------------------------------------------

def unpacked(poly):
    """The terms of a packed polynomial, keyed by ``(index, exponent)`` pairs."""
    return {poly.table.exponents(m): c for m, c in poly.terms.items()}


def as_tuple_poly(poly):
    return TuplePoly._raw(TupleTable(poly.table), unpacked(poly))


def mu_table(prefix, n):
    return GenTable([(f"{prefix}_{k}", k) for k in range(1, n + 1)], n)


def bp_table(prefix, p, n):
    return GenTable([(f"{prefix}_{k}", p ** k - 1) for k in range(1, n + 1)],
                    p ** (n + 1) - 2)


TABLES = ([mu_table("m", n) for n in (3, 6, 9)]
          + [mu_table("m", 7).union(mu_table("b", 7))]
          + [bp_table("v", p, n) for p, n in ((2, 3), (3, 2), (3, 3), (5, 2))]
          + [bp_table("ell", 2, 3).union(bp_table("t", 2, 3))])

coeffs = st.integers(-9, 9).filter(bool)
mixed_coeffs = st.one_of(coeffs, st.builds(Fraction, coeffs, st.integers(1, 4)))


@st.composite
def homogeneous(draw, table, weight):
    """A polynomial of one weight, drawn through the tuple enumeration and
    packed term by term."""
    monos = TupleTable(table).monomials_of_weight(weight)
    picks = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=6, unique=True))
    return GradedPoly(table, {table.pack(m): draw(mixed_coeffs) for m in picks})


@st.composite
def table_and_weights(draw, count):
    """A table and ``count`` weights, each with a monomial, summing to at
    most the table bound."""
    table = draw(st.sampled_from(TABLES))
    reachable = [w for w in range(table.bound + 1)
                 if TupleTable(table).monomials_of_weight(w)]
    weights = []
    for _ in range(count):
        room = table.bound - sum(weights)
        weights.append(draw(st.sampled_from([w for w in reachable if w <= room])))
    return table, weights


# ---------------------------------------------------------------------------
# agreement with the tuple kernel
# ---------------------------------------------------------------------------

@given(st.data())
def test_monomial_order_matches_tuple_key(data):
    table = data.draw(st.sampled_from(TABLES))
    ref = TupleTable(table)
    w = data.draw(st.integers(0, table.bound))
    got = table.monomials_of_weight(w)
    assert [table.exponents(m) for m in got] == list(ref.monomials_of_weight(w))
    assert all(table.mono_weight(m) == w for m in got)
    # across weights too: the packed key sorts like the tuple key
    monos = data.draw(st.lists(st.integers(0, table.bound), max_size=4).map(
        lambda ws: [m for v in ws for m in table.monomials_of_weight(v)]))
    assert ([table.exponents(m) for m in sorted(monos, key=table.mono_key)]
            == sorted((table.exponents(m) for m in monos), key=ref.mono_key))


@given(st.data())
def test_product_matches_tuple_kernel(data):
    table, (w1, w2) = data.draw(table_and_weights(2))
    a = data.draw(homogeneous(table, w1))
    b = data.draw(homogeneous(table, w2))
    ta, tb = as_tuple_poly(a), as_tuple_poly(b)
    for m1 in ta.terms:
        for m2 in tb.terms:
            assert table.exponents(table.pack(m1) + table.pack(m2)) == mono_mul(m1, m2)
    prod = a * b
    assert unpacked(prod) == (ta * tb).terms
    assert prod.weight() == w1 + w2
    assert all(type(c) is int or c.denominator != 1 for c in prod.terms.values())


@given(st.data())
def test_power_matches_tuple_kernel(data):
    table, (w,) = data.draw(table_and_weights(1))
    a = data.draw(homogeneous(table, w))
    n = data.draw(st.integers(0, table.bound // max(w, 1)))
    assert unpacked(a ** n) == (as_tuple_poly(a) ** n).terms


@given(st.data())
def test_partials_match_tuple_kernel(data):
    table, (w,) = data.draw(table_and_weights(1))
    a = data.draw(homogeneous(table, w))
    got = de_rham_partials(a)
    want = as_tuple_poly(a).partials()
    assert list(got) == list(want)
    assert {i: unpacked(p) for i, p in got.items()} == {i: p.terms for i, p in want.items()}


@given(st.data())
def test_extend_matches_tuple_kernel(data):
    table, (w,) = data.draw(table_and_weights(1))
    a = data.draw(homogeneous(table, w))
    wider = table.union(GenTable([("z_1", 1), ("z_2", 2)], table.bound))
    got = a.extend_to(wider)
    assert got.table is wider
    assert unpacked(got) == as_tuple_poly(a).extend_to(TupleTable(wider)).terms
    assert got.extend_to(table) == a


@given(st.data())
def test_substitute_matches_tuple_kernel(data):
    table, (w,) = data.draw(table_and_weights(1))
    a = data.draw(homogeneous(table, w))
    mapped = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    images = {name: data.draw(st.one_of(st.just(GradedPoly.zero(table)),
                                        homogeneous(table, table.weight_of(name))))
              for name in mapped}
    got = a.substitute(images, table)
    want = as_tuple_poly(a).substitute(
        {n: as_tuple_poly(img) for n, img in images.items()}, TupleTable(table))
    assert unpacked(got) == want.terms


@given(st.data())
def test_prepared_substitution_matches_one_shot_and_tuple_kernel(data):
    # one prepared map applied in turn to polynomials of several weights, so
    # later ones read the powers that earlier ones cached
    table = data.draw(st.sampled_from(TABLES))
    mapped = data.draw(st.lists(st.sampled_from(table.names), unique=True))
    images = {name: data.draw(st.one_of(st.just(GradedPoly.zero(table)),
                                        homogeneous(table, table.weight_of(name))))
              for name in mapped}
    prepared = Substitution(table, images, table)
    tuple_images = {n: as_tuple_poly(img) for n, img in images.items()}
    weights = [w for w in range(table.bound + 1) if table.monomials_of_weight(w)]
    for w in data.draw(st.lists(st.sampled_from(weights), min_size=1, max_size=4)):
        a = data.draw(homogeneous(table, w))
        got = a.substitute(prepared, table)
        assert got == a.substitute(images, table)
        assert unpacked(got) == as_tuple_poly(a).substitute(
            tuple_images, TupleTable(table)).terms


def test_prepared_substitution_keeps_its_tables():
    source = GenTable([("u", 1), ("w", 2)], 4)
    target = GenTable([("x", 1), ("y", 1)], 4)
    x, y = GradedPoly.gen(target, "x"), GradedPoly.gen(target, "y")
    prepared = Substitution(source, {"u": x.scale(Fraction(1, 2)), "w": x * y}, target)
    u, w = GradedPoly.gen(source, "u"), GradedPoly.gen(source, "w")
    assert (u ** 2 * w).substitute(prepared, target) == (x ** 3 * y).scale(Fraction(1, 4))
    with pytest.raises(GeneratorTableError):
        (u * w).extend_to(source.union(target)).substitute(prepared, target)
    with pytest.raises(GeneratorTableError):
        (u * w).substitute(prepared, source.union(target))
    with pytest.raises(GradedWeightError):
        Substitution(source, {"w": x}, target)


# ---------------------------------------------------------------------------
# the packing bound
# ---------------------------------------------------------------------------

def test_products_past_the_bound_raise():
    # x's field holds exponents to 7, so x^5 would still pack without a carry
    table = GenTable([("x", 1), ("y", 1), ("z", 2)], 4)
    x, y, z = (GradedPoly.gen(table, n) for n in ("x", "y", "z"))
    assert (x ** 2 * (x + y) ** 2).weight() == 4
    assert (z * z).weight() == 4
    with pytest.raises(DegreeGuardError):
        x ** 3 * x ** 2
    with pytest.raises(DegreeGuardError):
        (x + y) ** 5
    with pytest.raises(DegreeGuardError):
        z * (x + y) ** 3
    with pytest.raises(DegreeGuardError):
        GradedPoly.gen(table, "z", 3)
    with pytest.raises(DegreeGuardError):
        table.pack(((0, 5),))
    with pytest.raises(DegreeGuardError):
        table.monomials_of_weight(5)


def test_substitution_past_the_bound_raises():
    source = GenTable([("u", 1), ("w", 2)], 6)
    target = GenTable([("x", 1), ("y", 1), ("z", 2)], 4)
    x, y = GradedPoly.gen(target, "x"), GradedPoly.gen(target, "y")
    u, w = GradedPoly.gen(source, "u"), GradedPoly.gen(source, "w")
    assert (u ** 2 * w).substitute({"u": x + y, "w": x * y}, target).weight() == 4
    with pytest.raises(DegreeGuardError):
        (u ** 5).substitute({"u": x + y}, target)
    with pytest.raises(DegreeGuardError):
        (u * w ** 2).substitute({"u": x + y, "w": x * y}, target)
    with pytest.raises(DegreeGuardError):
        (w ** 3).extend_to(GenTable([("u", 1), ("w", 2)], 4))
    # a zero image ends the product before the bound is reached
    assert (u ** 5).substitute({"u": GradedPoly.zero(target)}, target).is_zero()


def test_bound_is_part_of_the_table():
    narrow = GenTable([("x", 1), ("y", 2)], 4)
    wide = GenTable([("x", 1), ("y", 2)], 8)
    assert narrow != wide and narrow.union(wide) == wide
    with pytest.raises(GeneratorTableError):
        GradedPoly.gen(narrow, "x") * GradedPoly.gen(wide, "x")
    assert GradedPoly.gen(narrow, "y", 2).extend_to(wide) == GradedPoly.gen(wide, "y", 2)
