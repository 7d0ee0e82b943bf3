"""Exact arithmetic kernel.

Sparse graded polynomials with rational coefficients, exact rational
linear solving by echelon reduction, integer matrices with Smith normal
forms, canonical representatives modulo integer lattices, and finitely
generated abelian groups presented as kernel-mod-image subquotients.  Coefficients are
Python ints or ``fractions.Fraction``; there is no floating point
anywhere in the package.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import Callable, NamedTuple


class ExactAlgError(Exception):
    """Base class for kernel errors."""


class GeneratorTableError(ExactAlgError):
    """Operands do not share a generator table, or a table is malformed."""


class GradedWeightError(ExactAlgError):
    """Sum of homogeneous polynomials of different weights."""


class UnderdeterminedSystemError(ExactAlgError):
    """Consistent linear system without a unique solution."""

    def __init__(self, kernel_dim):
        super().__init__(f"system is underdetermined (kernel dimension {kernel_dim})")
        self.kernel_dim = kernel_dim


class ComplexViolationError(ExactAlgError):
    """Composite of two consecutive differentials is nonzero."""


class IntegralityError(ExactAlgError):
    """A rewrite that is required to be integral produced denominators."""


class DegreeGuardError(ExactAlgError):
    """Requested degree exceeds the truncation the tables were built for."""


class ResourceGuardError(ExactAlgError):
    """Requested computation exceeds the supported desk-scale range."""


def _norm_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# generator tables and monomials
# ---------------------------------------------------------------------------

class GenTable:
    """Weighted generator alphabet, sorted by (weight, name), with a weight
    bound.

    A monomial is one int with a bit field per generator.  Field ``i`` is
    ``(bound // w_i).bit_length()`` bits wide, generator 0 sits in the
    highest of these lower fields, and the weight sits above them, in the
    top field from bit ``shift`` on.  A monomial of weight at most ``bound``
    fits its fields, so no field carries: the product of two monomials is
    their sum, the weight is ``mono >> shift``, and the canonical order
    (ascending weight, then descending exponent vectors), which fixes the
    basis order of every matrix and all rendered output, is the int
    ``mono ^ mask``.
    """

    __slots__ = ("gens", "bound", "shift", "mask", "units", "_index",
                 "_offsets", "_field_at", "_mono_cache")

    def __init__(self, gens, bound):
        gens = tuple(sorted(((str(n), int(w)) for (n, w) in gens),
                            key=lambda g: (g[1], g[0])))
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise GeneratorTableError("duplicate generator names")
        if any(w <= 0 for _, w in gens):
            raise GeneratorTableError("generator weights must be positive")
        if bound < 0:
            raise GeneratorTableError("the weight bound must be nonnegative")
        self.gens = gens
        self.bound = bound
        self._index = {n: i for i, (n, _) in enumerate(gens)}
        widths = [(bound // w).bit_length() for _, w in gens]
        offsets = [sum(widths[i + 1:]) for i in range(len(gens))]
        self.shift = sum(widths)
        self.mask = (1 << self.shift) - 1
        self.units = tuple((w << self.shift) | (1 << off)
                           for (_, w), off in zip(gens, offsets))
        self._offsets = tuple(offsets)
        self._field_at = [i for i in reversed(range(len(gens))) for _ in range(widths[i])]
        self._mono_cache = {}

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return (isinstance(other, GenTable) and self.gens == other.gens
                and self.bound == other.bound)

    def __hash__(self):
        return hash((self.gens, self.bound))

    def __repr__(self):
        return f"GenTable({list(self.gens)!r}, {self.bound})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise GeneratorTableError(f"unknown generator {name!r}") from None

    def name(self, i):
        return self.gens[i][0]

    def weight_of(self, name):
        return self.gens[self.index(name)][1]

    @property
    def names(self):
        return tuple(n for n, _ in self.gens)

    def union(self, other):
        merged = dict(self.gens)
        for n, w in other.gens:
            if merged.get(n, w) != w:
                raise GeneratorTableError(f"conflicting weights for {n!r}")
            merged[n] = w
        return GenTable(merged.items(), max(self.bound, other.bound))

    def check_weight(self, w):
        if w > self.bound:
            raise DegreeGuardError(f"weight {w} exceeds the table bound {self.bound}")

    def pack(self, pairs):
        """The monomial with the given ``(generator index, exponent)`` pairs."""
        mono = sum(e * self.units[i] for i, e in pairs)
        self.check_weight(mono >> self.shift)
        return mono

    def exponents(self, mono):
        """The ``(generator index, exponent)`` pairs of a monomial with a
        positive exponent, by ascending index: each step reads the highest
        nonzero field."""
        rest = mono & self.mask
        out = []
        while rest:
            i = self._field_at[rest.bit_length() - 1]
            off = self._offsets[i]
            e = rest >> off
            out.append((i, e))
            rest -= e << off
        return tuple(out)

    def mono_weight(self, mono):
        return mono >> self.shift

    def mono_key(self, mono):
        """Canonical order key: ascending weight, then descending exponents."""
        return mono ^ self.mask

    def mono_text(self, mono, style, coeff=1, ext=()):
        """The ``(negative, body)`` term of ``coeff * mono`` times the
        already written factors ``ext``; a coefficient of +-1 is written
        only when there is no factor."""
        gen, power = style.gen, style.power
        factors = [power.format(gen(self.gens[i][0]), e) if e > 1 else gen(self.gens[i][0])
                   for i, e in self.exponents(mono)]
        factors += ext
        size = abs(coeff)
        if size != 1 or not factors:
            factors.insert(0, style.coeff(size))
        return coeff < 0, style.times.join(factors)

    def monomials_of_weight(self, w):
        """All monomials of the given weight, in canonical order: each
        exponent, from generator 0 on, runs from its largest value down."""
        if w < 0:
            return ()
        self.check_weight(w)
        if w not in self._mono_cache:
            out = []
            gens, units = self.gens, self.units

            def rec(i, rem, acc):
                if rem == 0:
                    out.append(acc)
                    return
                if i >= len(gens) or gens[i][1] > rem:
                    return
                wt = gens[i][1]
                for e in range(rem // wt, -1, -1):
                    rec(i + 1, rem - e * wt, acc + e * units[i])

            rec(0, w, 0)
            self._mono_cache[w] = tuple(out)
        return self._mono_cache[w]


def coeff_text(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class Style(NamedTuple):
    """How terms are written: generator names, a power (``format`` of the
    written name and the exponent), a nonnegative coefficient, and the sign
    between the factors of a product."""
    gen: Callable
    power: str
    coeff: Callable
    times: str


TEXT = Style(str, "{}^{}", coeff_text, "*")


def signed_sum(parts):
    """Join ``(negative, body)`` terms as ``a - b + c``; no terms is ``0``."""
    text = ""
    for negative, body in parts:
        if text:
            text += " - " if negative else " + "
        elif negative:
            text = "-"
        text += body
    return text or "0"


# ---------------------------------------------------------------------------
# graded polynomials
# ---------------------------------------------------------------------------

class GradedPoly:
    """Sparse exact-rational polynomial over a :class:`GenTable`.

    Zero coefficients are never stored.  Every value produced by this
    package is homogeneous; adding two nonzero homogeneous polynomials of
    different weights raises :class:`GradedWeightError`, which keeps the
    whole pipeline weight-correct by construction.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table, terms=None):
        self.table = table
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = _norm_coeff(c)
                if c:
                    clean[mono] = c
        self.terms = clean

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
        return cls._raw(table, {0: c} if c else {})

    @classmethod
    def one(cls, table):
        return cls._raw(table, {0: 1})

    @classmethod
    def gen(cls, table, name, exp=1, coeff=1):
        i = table.index(name)
        coeff = _norm_coeff(coeff)
        if exp < 0:
            raise ValueError("negative exponent")
        table.check_weight(exp * table.gens[i][1])
        return cls._raw(table, {exp * table.units[i]: coeff} if coeff else {})

    # -- basic queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Common weight of all terms; None for the zero polynomial.  The
        weight is the top field, so the smallest and the largest monomial
        carry the smallest and the largest weight."""
        if not self.terms:
            return None
        lo, hi = self.table.mono_weight(min(self.terms)), self.table.mono_weight(max(self.terms))
        if lo != hi:
            raise GradedWeightError(f"inhomogeneous polynomial: weights {lo} and {hi}")
        return lo

    def coefficient_of_gen(self, name):
        return self.terms.get(self.table.units[self.table.index(name)], 0)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def sorted_terms(self):
        mask = self.table.mask
        return sorted(self.terms.items(), key=lambda kv: kv[0] ^ mask)

    # -- arithmetic ---------------------------------------------------------

    def _check_table(self, other):
        if self.table is not other.table and self.table != other.table:
            raise GeneratorTableError("operands do not share a generator table")

    def __add__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_table(other)
        if self.terms and other.terms:
            w1, w2 = self.weight(), other.weight()
            if w1 != w2:
                raise GradedWeightError(f"cannot add weight {w1} to weight {w2}")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = _norm_coeff(s)
            else:
                out.pop(mono, None)
        return GradedPoly._raw(self.table, out)

    def __neg__(self):
        return GradedPoly._raw(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_table(other)
        table, left, right = self.table, self.terms, other.terms
        if not left or not right:
            return GradedPoly._raw(table, {})
        # one check per product: below the bound no field can carry
        table.check_weight((max(left) >> table.shift) + (max(right) >> table.shift))
        if len(right) == 1:
            left, right = right, left
        out = {}
        if len(left) == 1:
            # a monomial factor moves every term to a distinct monomial
            (m1, c1), = left.items()
            for m2, c2 in right.items():
                c = c1 * c2
                out[m1 + m2] = c if type(c) is int else _norm_coeff(c)
            return GradedPoly._raw(table, out)
        get = out.get
        right = right.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return GradedPoly._raw(table, {m: c if type(c) is int else _norm_coeff(c)
                                       for m, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        if not c:
            return GradedPoly.zero(self.table)
        return GradedPoly._raw(self.table, {m: _norm_coeff(v * c) for m, v in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = GradedPoly.one(self.table)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPoly.const(self.table, other)
        return (isinstance(other, GradedPoly) and self.table == other.table
                and self.terms == other.terms)

    def __repr__(self):
        return f"GradedPoly({self})"

    def __str__(self):
        return self.render(TEXT)

    def render(self, style):
        return signed_sum(self.table.mono_text(mono, style, c)
                          for mono, c in self.sorted_terms())

    # -- structural operations ---------------------------------------------

    def extend_to(self, target):
        """Re-express on another table; every generator actually used must
        exist there under the same name."""
        source = self.table
        if source is target or source == target:
            return GradedPoly._raw(target, dict(self.terms))
        units = {}
        out = {}
        for mono, c in self.terms.items():
            key = 0
            for i, e in source.exponents(mono):
                if i not in units:
                    units[i] = target.units[target.index(source.name(i))]
                key += e * units[i]
            out[key] = c
        # a carry out of a field only raises the weight read from the top
        if out:
            target.check_weight(max(out) >> target.shift)
        return GradedPoly._raw(target, out)

    def substitute(self, images, target):
        """Ring-map substitution.

        ``images`` is a :class:`Substitution` from this polynomial's table to
        ``target``, or the mapping of generator names to images that
        prepares one for this call alone.

        Terms are grouped by their mapped part, the sub-monomial over the
        generators with an image.  Each group costs one product of image
        powers, each power computed once per ``(index, exponent)`` and map;
        the rest of each term is read across to ``target`` as a cofactor.
        The images are scaled to integers, so these products are integral,
        and so is each coefficient ``c / prod d^e`` over the common
        denominator of them all.
        """
        ring = (images if isinstance(images, Substitution)
                else Substitution(self.table, images, target))
        if ring.source != self.table or ring.target != target:
            raise GeneratorTableError("the substitution maps between other tables")
        source, scaled, denom = self.table, ring.scaled, ring.denom
        groups = {}
        for mono, c in self.terms.items():
            mapped, den = 0, 1
            for i, e in source.exponents(mono):
                if scaled[i] is not None:
                    mapped += e * source.units[i]
                    den *= denom[i] ** e
            groups.setdefault(mapped, {})[mono - mapped] = (
                c if den == 1 else _norm_coeff(Fraction(c, den)))
        common = math.lcm(*(s.denominator for rest in groups.values()
                            for s in rest.values() if type(s) is not int))
        out = {}
        get = out.get
        one = GradedPoly.one(target)
        for mapped, rest in groups.items():
            acc = one
            for i, e in source.exponents(mapped):
                acc = acc * ring.power(i, e)
                if not acc.terms:
                    break
            if not acc.terms:
                continue
            cofactor = GradedPoly._raw(
                source, {m: int(s * common) for m, s in rest.items()}).extend_to(target)
            for m, a in (acc * cofactor).terms.items():
                out[m] = get(m, 0) + a
        return GradedPoly._raw(target, {m: v if common == 1 else _norm_coeff(Fraction(v, common))
                                        for m, v in out.items() if v})


class Substitution:
    """A ring map from ``source`` to ``target``, prepared once and applied
    by :meth:`GradedPoly.substitute` to any number of polynomials.

    ``images`` maps generator names to polynomials over ``target``;
    generators without an image must exist in ``target`` with the same
    weight.  Each image must be zero or homogeneous of the generator's
    weight, so substitution preserves homogeneity.  Each image is scaled by
    the lcm d of its denominators (``scaled``, ``denom``; None and 1 for a
    generator without an image), and each power of a scaled image is
    computed on first use and kept.
    """

    __slots__ = ("source", "target", "scaled", "denom", "_powers")

    def __init__(self, source, images, target):
        for name, img in images.items():
            if img.table != target:
                raise GeneratorTableError(f"image of {name!r} is not over the target table")
            w = img.weight()
            if w is not None and w != source.weight_of(name):
                raise GradedWeightError(f"image of {name!r} has weight {w}, "
                                        f"expected {source.weight_of(name)}")
        self.source, self.target = source, target
        self.scaled, self.denom = [], []
        for name in source.names:
            img = images.get(name)
            d = 1 if img is None else math.lcm(
                *(c.denominator for c in img.terms.values() if type(c) is not int))
            self.scaled.append(img if d == 1 else img.scale(d))
            self.denom.append(d)
        self._powers = {}

    def power(self, i, e):
        """The scaled image of generator ``i`` to the ``e``."""
        factor = self._powers.get((i, e))
        if factor is None:
            factor = self._powers[(i, e)] = self.scaled[i] ** e
        return factor


def _accumulate(total, piece):
    # unchecked add for internal accumulation of same-weight pieces
    out = total.terms
    get = out.get
    for mono, c in piece.terms.items():
        s = get(mono, 0) + c
        if s:
            out[mono] = s if type(s) is int else _norm_coeff(s)
        else:
            del out[mono]
    return GradedPoly._raw(total.table, out)


def poly_sum(polys, table):
    out = GradedPoly.zero(table)
    for p in polys:
        if p.terms and out.terms and p.weight() != out.weight():
            raise GradedWeightError("summands of different weights")
        out = _accumulate(out, p)
    return out


# ---------------------------------------------------------------------------
# exact rational linear solving
# ---------------------------------------------------------------------------

def _integral_rows(matrix):
    """Each row scaled to integers by the lcm of its denominators."""
    rows = []
    for row in matrix:
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        rows.append([int(x * scale) for x in row])
    return rows


def solve_rational_linear(matrix, rhs):
    """Solve ``A x = rhs`` exactly for a unique solution.

    The augmented rows ``[A | rhs]``, scaled to integers, are put into
    echelon form by :func:`row_hnf`.  Returns the solution as a list of
    Fractions/ints; returns ``None`` when the system is inconsistent (a
    pivot in the rhs column); raises :class:`UnderdeterminedSystemError`
    when solutions exist but are not unique (fewer pivots than unknowns).
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match matrix")
    hnf, pivots = row_hnf(_integral_rows([*row, b] for row, b in zip(matrix, rhs)))
    if pivots and pivots[-1] == n:
        return None
    if len(pivots) < n:
        raise UnderdeterminedSystemError(n - len(pivots))
    # n pivots, one in each column: back-substitute from the last row
    x = [0] * n
    for row, c in zip(reversed(hnf), reversed(pivots)):
        x[c] = (Fraction(row[n]) - sum(row[j] * x[j] for j in range(c + 1, n))) / row[c]
    return [_norm_coeff(v) for v in x]


def rational_rank(matrix):
    """Rank of a matrix with exact rational entries: each row is scaled to
    integers, which keeps the rank, and put into echelon form."""
    return len(row_hnf(_integral_rows(matrix))[0])


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        # entries are checked once, where they enter through ``from_rows``
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows, cols=None):
        # operator.index refuses Fractions and floats instead of truncating them
        rows = tuple(tuple(operator.index(x) for x in r) for r in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n):
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

    def is_zero(self):
        return not any(map(any, self.entries))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # each right-hand row's nonzeros, listed once for every left row
        rhs = [[(j, y) for j, y in enumerate(r) if y] for r in other.entries]
        out = []
        for a in self.entries:
            row = [0] * other.cols
            for k in compress(range(self.cols), a):
                x = a[k]
                for j, y in rhs[k]:
                    row[j] += x * y
            out.append(tuple(row))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def to_lists(self):
        return [list(r) for r in self.entries]


# name -> (read the log backward, transpose each add, negate each add)
_APPLY_MODES = {"U": (False, False, False), "U_inv": (True, False, True),
                "V": (True, True, False), "V_inv": (False, True, True)}


class SmithDecomposition:
    """``U M V = D`` with ``U``, ``V`` unimodular and ``D`` the Smith form.

    The reduction computes ``D`` and records its elementary row operations
    (which make ``U``) and column operations (which make ``V``); an
    ``add`` is recorded only with a nonzero multiple ``q``, since a zero
    one changes nothing.  :meth:`apply` multiplies a block of rows by any
    of ``U``, ``V``, ``U_inv`` and ``V_inv`` straight from that record.
    The four transforms themselves are built by ``apply`` on the identity
    the first time they are read and then cached.
    """

    def __init__(self, D, row_ops, col_ops):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops

    def apply(self, name, rows):
        """``T rows`` for ``T`` named ``"U"``, ``"U_inv"``, ``"V"`` or
        ``"V_inv"``, as a new list of row lists; no ``T`` is formed.

        A logged ``("add", i, k, q)`` is ``row_i -= q * row_k`` on the rows
        of ``M`` (for ``U``) or ``col_i -= q * col_k`` on its columns (for
        ``V``); ``("swap", i, k)`` and ``("neg", i)`` swap and negate.
        ``U`` replays the row log forward and ``U_inv`` backward with each
        add negated.  ``V = F_1 ... F_N`` for the column operations
        ``F_t``, and ``F_t`` acts on rows as the transposed add
        ``row_k -= q * row_i``, so ``V`` replays the column log backward
        and ``V_inv`` forward with each add negated.
        """
        backward, transpose, negate = _APPLY_MODES[name]
        ops = self._row_ops if name[0] == "U" else self._col_ops
        R = [list(r) for r in rows]
        for op in reversed(ops) if backward else ops:
            kind, i = op[0], op[1]
            if kind == "add":
                k, q = op[2], op[3]
                if transpose:
                    i, k = k, i
                if negate:
                    q = -q
                Ri, Rk = R[i], R[k]
                for j in compress(range(len(Rk)), Rk):
                    Ri[j] -= q * Rk[j]
            elif kind == "swap":
                k = op[2]
                R[i], R[k] = R[k], R[i]
            else:
                R[i] = [-x for x in R[i]]
        return R

    def _transform(self, name, n):
        rows = self.apply(name, IntMatrix.identity(n).entries)
        return IntMatrix(n, n, tuple(map(tuple, rows)))

    @cached_property
    def U(self):
        return self._transform("U", self.D.rows)

    @cached_property
    def U_inv(self):
        return self._transform("U_inv", self.D.rows)

    @cached_property
    def V(self):
        return self._transform("V", self.D.cols)

    @cached_property
    def V_inv(self):
        return self._transform("V_inv", self.D.cols)

    @property
    def diagonal(self):
        """``D[i][i]`` for ``i < min(rows, cols)``: the nonzero invariant
        factors in their divisibility chain, then zeros."""
        D = self.D
        return [D.entries[i][i] for i in range(min(D.rows, D.cols))]

    @property
    def rank(self):
        return sum(map(bool, self.diagonal))


def smith_normal_form_full(matrix):
    """Smith normal form ``U M V = D`` with ``U``, ``V`` unimodular and
    ``D`` diagonal, nonnegative, in a divisibility chain.  Pivoting picks a
    minimal-absolute-value nonzero entry each round to control coefficient
    growth; exactness holds regardless.  Zero-multiple eliminations are
    skipped.  The returned decomposition applies ``U``, ``V`` and their
    inverses from the recorded operations; it builds none of them unless
    one is read.
    """
    A = matrix.to_lists()
    n, m = matrix.rows, matrix.cols
    row_ops = []
    col_ops = []
    # least nonzero |entry| of each row (0 for a zero row), None once the
    # row changes; column swaps and negations keep it
    lows = [None] * n

    def row_op(i, k, q):
        # row_i -= q * row_k, for a nonzero q
        Ai, Ak = A[i], A[k]
        for j in compress(range(m), Ak):
            Ai[j] -= q * Ak[j]
        row_ops.append(("add", i, k, q))
        lows[i] = None

    def col_op(j, t, q):
        # col_j -= q * col_t, called once column t is clear off the pivot
        # (rows below t by the row sweep, rows above t are finished), so
        # only the pivot row changes
        if q:
            A[t][j] -= q * A[t][t]
            col_ops.append(("add", j, t, q))
            lows[t] = None

    def swap_rows(i, k):
        A[i], A[k] = A[k], A[i]
        lows[i], lows[k] = lows[k], lows[i]
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
        # the first entry of least absolute value in row-major order,
        # stopping at the first unit; the printed generator lifts, and so
        # the output bytes, depend on this choice.  Rows t.. are zero left
        # of column t, so a row's least entry over A[i][t:] is its least
        # entry, which stays valid until the row changes.
        pivot_row, best = None, 0
        for i in range(t, n):
            low = lows[i]
            if low is None:
                low = lows[i] = min(map(abs, filter(None, A[i][t:])), default=0)
            if low and (not best or low < best):
                pivot_row, best = i, low
                if best == 1:
                    break
        if pivot_row is None:
            break
        seg = A[pivot_row][t:]
        pivot = (pivot_row, t + min(seg.index(v) for v in (best, -best) if v in seg))
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if A[t][t] < 0:
            negate_row(t)
        while True:
            # the pivot row is fixed during the sweep, so list its nonzeros once
            At = A[t]
            p = At[t]
            support = [(j, At[j]) for j in compress(range(m), At)]
            for i in range(t + 1, n):
                Ai = A[i]
                if Ai[t]:
                    q = Ai[t] // p
                    if q:
                        for j, x in support:
                            Ai[j] -= q * x
                        row_ops.append(("add", i, t, q))
                        lows[i] = None
            # the sweeps leave remainders in [0, pivot), so a swapped-in
            # pivot is positive, as the one chosen above was made
            dirty = next((i for i in range(t + 1, n) if A[i][t]), None)
            if dirty is not None:
                swap_rows(t, dirty)
                continue
            for j in range(t + 1, m):
                if A[t][j]:
                    col_op(j, t, A[t][j] // A[t][t])
            dirty = next((j for j in range(t + 1, m) if A[t][j]), None)
            if dirty is not None:
                swap_cols(t, dirty)
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

    D = IntMatrix(n, m, tuple(map(tuple, A)))
    return SmithDecomposition(D, row_ops, col_ops)


def invariant_factors(matrix):
    """Nonzero diagonal of the Smith form, as a divisibility chain."""
    return tuple(filter(None, smith_normal_form_full(matrix).diagonal))


def solve_integer(matrix, rhs):
    """Solve ``A x = rhs`` over the integers; ``None`` if no integral solution."""
    M = matrix if isinstance(matrix, IntMatrix) else IntMatrix.from_rows(matrix)
    full = smith_normal_form_full(M)
    diagonal = full.diagonal
    urhs = [row[0] for row in full.apply("U", [[x] for x in rhs])]
    # D y = U rhs row by row; a row past the diagonal or with a zero on it
    # needs a zero right side
    if any(urhs[len(diagonal):]) or any(u % d if d else u for u, d in zip(urhs, diagonal)):
        return None
    y = [u // d if d else 0 for u, d in zip(urhs, diagonal)]
    y += [0] * (M.cols - len(y))
    return [row[0] for row in full.apply("V", [[x] for x in y])]


def ext_gcd(a, b):
    """``(g, s, t)`` with ``g = gcd(a, b) = s*a + t*b`` and ``g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def row_hnf(rows):
    """Row echelon basis with positive pivots, built one row at a time.

    Returns ``(rows, pivot_cols)`` for the lattice spanned by ``rows``:
    each row is zero left of its pivot, and the pivot columns increase.
    Each input row is cleared against the basis from its leading column
    on.  A pivot that divides the leading entry is subtracted; otherwise
    the two rows are combined by extended gcd, the gcd row takes the pivot
    and the combination with a zero there carries on (Kannan & Bachem,
    SIAM J. Comput. 1979).  A row that takes a pivot is first reduced
    modulo the pivots right of it, which keeps the entries small.  The
    rows above a new pivot are not reduced, so this is not the Hermite
    form, but ``reduce_mod_rows`` does not need it: the pivot columns and
    pivot values of any such basis are those of the Hermite form, so the
    representatives it returns are the same.
    """
    basis = {}     # pivot column -> row
    support = {}   # pivot column -> the row's nonzero (column, entry) pairs
    pivots = []

    def install(row, c):
        for pc in pivots[bisect_right(pivots, c):]:
            x = row[pc]
            if x:
                q = x // basis[pc][pc]
                if q:
                    for j, y in support[pc]:
                        row[j] -= q * y
        basis[c] = row
        # the row is zero left of its pivot column
        support[c] = [(j, row[j]) for j in compress(range(c, len(row)), row[c:])]

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
                # s*b + t*r takes the pivot, u*r - v*b carries on; both
                # are built from the nonzeros of b and r alone
                g, s, t = ext_gcd(p, a)
                u, v = p // g, a // g
                gcd_row, rest = [0] * m, [0] * m
                for j, x in support[c]:
                    gcd_row[j] = s * x
                    rest[j] = -v * x
                for j in compress(range(c, m), r[c:]):
                    y = r[j]
                    gcd_row[j] += t * y
                    rest[j] += u * y
                install(gcd_row, c)
                r = rest
            c += 1
    return [basis[c] for c in pivots], pivots


def reduce_mod_rows(hnf, pivots, vector):
    """Canonical representative of ``vector`` modulo the row lattice.

    The result is the unique ``v`` in the coset whose pivot coordinates lie
    in ``[0, pivot)``.  It is unique for any echelon basis with positive
    pivots: if two such ``v`` differ by ``sum(c_k row_k)`` and ``c_k`` is
    the first nonzero coefficient, their difference at pivot column ``k``
    is ``c_k`` times the pivot, yet smaller than the pivot in size.
    """
    v = list(vector)
    for row, pc in zip(hnf, pivots):
        q = v[pc] // row[pc]
        if q:
            for j in compress(range(len(row)), row):
                v[j] -= q * row[j]
    return v


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------

def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def p_part(n, p):
    """The largest power of the prime ``p`` dividing the nonzero ``n``."""
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _chain_from_factors(factors):
    """Rebuild the canonical divisor chain from arbitrary torsion factors."""
    primary = {}
    for d in factors:
        for p, e in _factorize(d).items():
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    chain = []
    for k in range(depth):
        d = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                d *= p ** exps_sorted[k]
        chain.append(d)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group ``Z^r + Z/d1 + ...`` with d1 | d2 | ..."""

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        for i, d in enumerate(self.invariant_factors):
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
            if i and d % self.invariant_factors[i - 1]:
                raise ValueError("invariant factors must form a divisor chain")

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def from_factors(cls, free_rank, factors):
        return cls(free_rank, _chain_from_factors([d for d in factors if d > 1]))

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def primary(self):
        """Prime-power decomposition of the torsion, sorted ascending."""
        parts = []
        for d in self.invariant_factors:
            parts.extend(p ** e for p, e in _factorize(d).items())
        return tuple(sorted(parts))

    def localize(self, p):
        """p-primary part (free rank is unchanged)."""
        return FinAbGroup(self.free_rank, _chain_from_factors(
            [p_part(d, p) for d in self.invariant_factors]))

    def direct_sum(self, other):
        return FinAbGroup.from_factors(
            self.free_rank + other.free_rank,
            list(self.invariant_factors) + list(other.invariant_factors))

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


# ---------------------------------------------------------------------------
# subquotients ker/im
# ---------------------------------------------------------------------------

class Subquotient(NamedTuple):
    """``ker(d_out)/im(d_in)``: the group and one ``(order, vector)`` lift
    per summand in ambient coordinates, free generators first."""

    group: FinAbGroup
    generator_vectors: tuple


def _check_cocycle(d_out, vector):
    if any(sum(a * x for a, x in zip(row, vector)) for row in d_out.entries):
        raise ValueError("vector is not a cocycle")


def _injective(matrix):
    """True when every column of ``matrix`` is nonzero and ends (has its
    last nonzero entry) in a row that no other column ends in; False
    otherwise, including for injective maps of any other shape.

    Such columns are independent over Z: in a nonzero combination, the
    column that ends lowest among those used is the only one to reach its
    last row.  Every position-0 map of a positive-root staircase has this
    shape, since the lambda_n coefficient of sigma(x_n) is a nonzero
    constant.
    """
    if matrix.rows < matrix.cols:
        return False
    ends = [max((i for i, x in enumerate(col) if x), default=-1)
            for col in zip(*matrix.entries)]
    return -1 not in ends and len(set(ends)) == len(ends)


def subquotient_group(d_in, d_out):
    """``Subquotient`` of ``ker(d_out)/im(d_in)`` for composable maps.

    ``d_in`` maps into the middle module (its rows), ``d_out`` maps out of it
    (its columns).  When every column of ``d_out`` ends in a row of its own
    (``_injective``), ``d_out`` is injective over Z.  Then the group is
    trivial, ``d_in`` must be zero, and no Smith form is taken.
    Otherwise, for ``d_out`` of rank ``r``, the columns of
    its ``V`` past ``r`` span the (saturated) kernel and the rows of
    ``V^-1`` past ``r`` give kernel coordinates, so ``d_in`` is rejected
    when the first ``r`` rows of ``V^-1 d_in`` do not vanish; the rest are
    the relations, whose Smith form gives the group.  Both Smith forms are
    read through :meth:`SmithDecomposition.apply` on the vectors at hand,
    so no transform is built or kept.  Each lift is reduced modulo the
    echelon basis of the columns of ``d_in`` and has a positive leading
    entry.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("differentials do not compose through a common module")
    if _injective(d_out):
        if not d_in.is_zero():
            raise ComplexViolationError("image does not lie in the kernel")
        return Subquotient(FinAbGroup.trivial(), ())
    out_snf = smith_normal_form_full(d_out)
    r = out_snf.rank
    y = out_snf.apply("V_inv", d_in.entries)
    if any(any(row) for row in y[:r]):
        raise ComplexViolationError("image does not lie in the kernel")
    k = len(y) - r  # the kernel rank
    rel_snf = None  # no relations: the kernel is free on its basis
    relations = []  # the nonzero Smith diagonal of the relations
    if k and d_in.cols:
        rel_snf = smith_normal_form_full(
            IntMatrix(k, d_in.cols, tuple(map(tuple, y[r:]))))
        relations = list(filter(None, rel_snf.diagonal))
    orders = relations + [0] * (k - len(relations))
    gens = []
    lifted = [i for i, d in enumerate(orders) if d != 1]
    if lifted:
        # column c of the block is the kernel coordinates of lift c,
        # padded with r zero rows to V coordinates
        block = [[int(i == j) for j in lifted] for i in range(k)]
        if rel_snf is not None:
            block = rel_snf.apply("U_inv", block)
        block = out_snf.apply("V", [[0] * len(lifted)] * r + block)
        hnf, pivots = row_hnf(zip(*d_in.entries))
        for c, i in enumerate(lifted):
            vec = reduce_mod_rows(hnf, pivots, [row[c] for row in block])
            if next((x for x in vec if x), 0) < 0:
                vec = [-x for x in vec]
            gens.append((orders[i], tuple(vec)))
    gens.sort(key=lambda g: (g[0] != 0, g[0]))  # free generators first
    return Subquotient(group_from_diagonals(k, relations, ()), tuple(gens))


def group_from_diagonals(size, in_diagonal, out_diagonal):
    """The group of ``ker(d_out)/im(d_in)`` on ``Z^size`` for composable
    maps, from the nonzero Smith diagonals of ``d_in`` and ``d_out`` alone.

    The free rank is ``size`` less both ranks.  ``Z^size / ker(d_out)``
    embeds in the codomain of ``d_out`` and so is torsion-free; the
    torsion of ``Z^size / im(d_in)`` therefore lies in ``ker(d_out)``, and
    it is the diagonal of ``d_in`` above 1.  The caller vouches that the
    maps compose to zero.
    """
    return FinAbGroup(size - len(in_diagonal) - len(out_diagonal),
                      tuple(d for d in in_diagonal if d > 1))


def class_orders(d_in, d_out, vectors):
    """Orders of the classes of ``vectors`` in ``ker(d_out)/im(d_in)``, all
    read off one echelon basis of the columns of ``d_in``; 0 means infinite
    order.

    Raises ``ValueError`` when a vector is not a cocycle.  Reduced modulo
    that basis, ``v`` has a multiple in the image only if its first nonzero
    column ``c`` is a pivot column; then, for the pivot ``p`` there, the
    order is ``f = p / gcd(p, v[c])`` times that of ``f v`` (Cohen, GTM 138,
    §2.4).
    """
    hnf, pivots = row_hnf(zip(*d_in.entries))
    pivot_at = {pc: row[pc] for row, pc in zip(hnf, pivots)}

    def order(vector):
        _check_cocycle(d_out, vector)
        out = 1
        v = reduce_mod_rows(hnf, pivots, vector)
        while any(v):
            c = next(j for j, x in enumerate(v) if x)
            p = pivot_at.get(c)
            if p is None:
                return 0
            f = p // math.gcd(p, v[c])
            out *= f
            v = reduce_mod_rows(hnf, pivots, [f * x for x in v])
        return out
    return tuple(map(order, vectors))


def generates(d_in, d_out, vectors):
    """True when the classes of ``vectors`` generate ``ker(d_out)/im(d_in)``:
    every generator lift of :func:`subquotient_group` lies in the image
    lattice plus their span.  Raises ``ValueError`` for a non-cocycle."""
    for v in vectors:
        _check_cocycle(d_out, v)
    lifts = subquotient_group(d_in, d_out).generator_vectors
    hnf, pivots = row_hnf([*zip(*d_in.entries), *vectors])
    return not any(any(reduce_mod_rows(hnf, pivots, g)) for _, g in lifts)
