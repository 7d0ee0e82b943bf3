"""Exact arithmetic kernel.

Sparse graded polynomials with rational coefficients, exact rational
linear solving, integer matrices with Smith and Hermite normal forms,
and finitely generated abelian groups presented as kernel-mod-image
subquotients.  Coefficients are Python ints or ``fractions.Fraction``;
there is no floating point anywhere in the package.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property


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
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise TypeError(f"exact coefficient expected, got {type(c).__name__}")


# ---------------------------------------------------------------------------
# generator tables and monomials
# ---------------------------------------------------------------------------

class GenTable:
    """Weighted generator alphabet, sorted by (weight, name).

    A monomial is a tuple of ``(generator index, exponent)`` pairs with
    positive exponents, sorted by index.  The table's sort order fixes the
    canonical monomial order (graded, then exponent-lexicographic), which in
    turn fixes the basis order of every matrix and all rendered output.
    """

    __slots__ = ("gens", "_index", "_mono_cache")

    def __init__(self, gens):
        gens = tuple(sorted(((str(n), int(w)) for (n, w) in gens),
                            key=lambda g: (g[1], g[0])))
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise GeneratorTableError("duplicate generator names")
        if any(w <= 0 for _, w in gens):
            raise GeneratorTableError("generator weights must be positive")
        self.gens = gens
        self._index = {n: i for i, (n, _) in enumerate(gens)}
        self._mono_cache = {}

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, GenTable) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"GenTable({list(self.gens)!r})"

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise GeneratorTableError(f"unknown generator {name!r}") from None

    def has(self, name):
        return name in self._index

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
        return GenTable(merged.items())

    def mono_weight(self, mono):
        return sum(e * self.gens[i][1] for i, e in mono)

    def mono_key(self, mono):
        """Canonical order key: ascending weight, then descending exponents."""
        dense = [0] * len(self.gens)
        for i, e in mono:
            dense[i] = e
        return (self.mono_weight(mono), tuple(-x for x in dense))

    def mono_text(self, mono):
        if not mono:
            return "1"
        return "*".join(
            f"{self.gens[i][0]}^{e}" if e > 1 else self.gens[i][0]
            for i, e in mono)

    def monomials_of_weight(self, w):
        """All monomials of the given weight, in canonical order."""
        if w < 0:
            return ()
        if w not in self._mono_cache:
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
            self._mono_cache[w] = tuple(out)
        return self._mono_cache[w]


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for i, e in b:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))


def coeff_text(c):
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)


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

    # -- basic queries ------------------------------------------------------

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

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), 0)

    def coefficient_of_gen(self, name):
        return self.terms.get(((self.table.index(name), 1),), 0)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.terms.values())

    def denominators_are_powers_of(self, p):
        for c in self.terms.values():
            if isinstance(c, int):
                continue
            d = c.denominator
            while d % p == 0:
                d //= p
            if d != 1:
                return False
        return True

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.table.mono_key(kv[0]))

    # -- arithmetic ---------------------------------------------------------

    def _check_table(self, other):
        if self.table is not other.table and self.table != other.table:
            raise GeneratorTableError("operands do not share a generator table")

    def _coerce(self, other):
        if isinstance(other, GradedPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedPoly.const(self.table, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
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

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly._raw(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self._check_table(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        for m in list(out):
            out[m] = _norm_coeff(out[m])
        return GradedPoly._raw(self.table, out)

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
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            mtext = self.table.mono_text(mono)
            if mono == ():
                body = coeff_text(abs(c) if isinstance(c, int) else abs(c))
            elif c == 1:
                body = mtext
            elif c == -1:
                body = mtext
            else:
                body = f"{coeff_text(abs(c))}*{mtext}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    # -- structural operations ---------------------------------------------

    def partial(self, name):
        """Partial derivative with respect to one generator."""
        gi = self.table.index(name)
        out = {}
        for mono, c in self.terms.items():
            for k, (i, e) in enumerate(mono):
                if i == gi:
                    rest = mono[:k] + ((i, e - 1),) * (e > 1) + mono[k + 1:]
                    s = out.get(rest, 0) + c * e
                    if s:
                        out[rest] = _norm_coeff(s)
                    else:
                        out.pop(rest, None)
                    break
        return GradedPoly._raw(self.table, out)

    def component_in(self, names, degree):
        """Terms whose total exponent over the named generators equals ``degree``."""
        idxs = {self.table.index(n) for n in names}
        out = {m: c for m, c in self.terms.items()
               if sum(e for i, e in m if i in idxs) == degree}
        return GradedPoly._raw(self.table, out)

    def collect_by(self, names):
        """Group terms by their sub-monomial over the named generators.

        Returns a dict mapping the sub-monomial (on this table) to the
        cofactor polynomial in the remaining generators.
        """
        idxs = {self.table.index(n) for n in names}
        groups = {}
        for mono, c in self.terms.items():
            key = tuple((i, e) for i, e in mono if i in idxs)
            rest = tuple((i, e) for i, e in mono if i not in idxs)
            groups.setdefault(key, {})[rest] = c
        return {k: GradedPoly._raw(self.table, v) for k, v in groups.items()}

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
        return GradedPoly._raw(target, out)

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
        out = GradedPoly.zero(target)
        for mono, c in self.terms.items():
            acc = GradedPoly.const(target, c)
            for i, e in mono:
                name = self.table.name(i)
                if name in images:
                    key = (name, e)
                    if key not in pow_cache:
                        pow_cache[key] = images[name] ** e
                    factor = pow_cache[key]
                else:
                    factor = GradedPoly.gen(target, name, e)
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

def solve_rational_linear(matrix, rhs):
    """Solve ``A x = rhs`` exactly for a unique solution.

    Fraction-free (Bareiss) elimination on the denominator-cleared system.
    Returns the solution as a list of Fractions/ints; returns ``None`` when
    the system is inconsistent; raises :class:`UnderdeterminedSystemError`
    when solutions exist but are not unique.
    """
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
        pivot = None
        for i in range(r, m):
            if aug[i][col]:
                pivot = i
                break
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
    return [_norm_coeff(v if isinstance(v, Fraction) else Fraction(v)) for v in x]


def rational_rank(matrix):
    """Rank of a matrix with exact rational entries."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / pr[col]
                for j in range(col, n):
                    rows[i][j] -= f * pr[j]
        rank += 1
        if rank == len(rows):
            break
    return rank


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
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer entries required")

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
        return all(all(x == 0 for x in row) for row in self.entries)

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        rhs = other.entries
        out = []
        for a in self.entries:
            row = [0] * other.cols
            for k, x in enumerate(a):
                if x:
                    for j, y in enumerate(rhs[k]):
                        if y:
                            row[j] += x * y
            out.append(tuple(row))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def to_lists(self):
        return [list(r) for r in self.entries]


def det_int(rows):
    """Exact determinant of a square integer matrix (Bareiss)."""
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


def _replay(ops, n, inverse, transpose):
    """Apply logged elementary operations, in order, to the ``n x n``
    identity as row operations.

    ``("add", i, k, q)`` is ``row_i -= q * row_k``; ``("swap", i, k)`` and
    ``("neg", i)`` swap and negate rows.  With ``inverse`` each operation is
    replaced by the transpose of its inverse, which yields the inverse
    transpose of the plain replay.  ``transpose`` transposes the result.
    """
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for op in ops:
        kind, i = op[0], op[1]
        if kind == "add":
            k, q = op[2], op[3]
            if inverse:
                i, k, q = k, i, -q
            Mi = M[i]
            for j, x in enumerate(M[k]):
                if x:
                    Mi[j] -= q * x
        elif kind == "swap":
            k = op[2]
            M[i], M[k] = M[k], M[i]
        else:
            M[i] = [-x for x in M[i]]
    return IntMatrix.from_rows(zip(*M) if transpose else M, cols=n)


class SmithDecomposition:
    """``U M V = D`` with ``U``, ``V`` unimodular and ``D`` the Smith form.

    The reduction computes ``D`` and records its elementary row operations
    (which make ``U``) and column operations (which make ``V``).  Each of
    ``U``, ``V``, ``U_inv`` and ``V_inv`` is built from that record the
    first time it is read and then cached, so a caller pays only for the
    transforms it reads.
    """

    def __init__(self, D, row_ops, col_ops):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def U(self):
        return _replay(self._row_ops, self.D.rows, inverse=False, transpose=False)

    @cached_property
    def U_inv(self):
        return _replay(self._row_ops, self.D.rows, inverse=True, transpose=True)

    @cached_property
    def V(self):
        return _replay(self._col_ops, self.D.cols, inverse=False, transpose=True)

    @cached_property
    def V_inv(self):
        return _replay(self._col_ops, self.D.cols, inverse=True, transpose=False)

    @property
    def rank(self):
        return sum(1 for i in range(min(self.D.rows, self.D.cols))
                   if self.D.entries[i][i])

    def kernel_columns(self):
        """Basis of the integer kernel of M, as columns of V."""
        return [self.V.column(j) for j in range(self.rank, self.D.cols)]

    def v_inv_times(self, vector):
        n = self.D.cols
        out = [0] * n
        for j, c in enumerate(vector):
            if c:
                for i in range(n):
                    out[i] += c * self.V_inv.entries[i][j]
        return out


def smith_normal_form_full(matrix):
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


def smith_normal_form(matrix):
    """Smith normal form ``(U, D, V)`` with ``U M V = D``."""
    full = smith_normal_form_full(matrix)
    return full.U, full.D, full.V


def invariant_factors(matrix):
    """Nonzero diagonal of the Smith form, as a divisibility chain."""
    D = smith_normal_form_full(matrix).D
    out = []
    for i in range(min(D.rows, D.cols)):
        d = D.entries[i][i]
        if d:
            out.append(d)
    return tuple(out)


def solve_integer(matrix, rhs):
    """Solve ``A x = rhs`` over the integers; ``None`` if no integral solution."""
    M = matrix if isinstance(matrix, IntMatrix) else IntMatrix.from_rows(matrix)
    n, m = M.rows, M.cols
    U, D, V = smith_normal_form(M)
    urhs = [sum(U.entries[i][k] * rhs[k] for k in range(n)) for i in range(n)]
    y = [0] * m
    r = min(n, m)
    for i in range(n):
        d = D.entries[i][i] if i < r else 0
        if d:
            if urhs[i] % d:
                return None
            y[i] = urhs[i] // d
        elif urhs[i]:
            return None
    return [sum(V.entries[i][k] * y[k] for k in range(m)) for i in range(m)]


def row_hnf(rows):
    """Row Hermite normal form.

    Returns ``(hnf_rows, pivot_cols)`` with positive pivots, zeros below
    each pivot and entries above each pivot reduced into ``[0, pivot)``.
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
            new_rest = []
            for r in nonzero[1:]:
                q = r[col] // base[col]
                for j in range(m):
                    r[j] -= q * base[j]
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
    # reduce entries above pivots
    for k in range(len(hnf) - 1, -1, -1):
        pc = pivots[k]
        pv = hnf[k][pc]
        for i in range(k):
            q = hnf[i][pc] // pv
            if q:
                for j in range(len(hnf[i])):
                    hnf[i][j] -= q * hnf[k][j]
    return hnf, pivots


def reduce_mod_rows(hnf, pivots, vector):
    """Canonical representative of ``vector`` modulo the row lattice."""
    v = list(vector)
    for row, pc in zip(hnf, pivots):
        q = v[pc] // row[pc]
        if q:
            for j in range(len(v)):
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
    """Finitely generated abelian group ``Z^r + Z/d1 + ...`` with d1 | d2 | ...

    ``generators`` optionally carries lifts (free generators first, then one
    per invariant factor); it does not take part in equality.
    """

    free_rank: int
    invariant_factors: tuple = ()
    generators: tuple = field(default=(), compare=False)

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
    def from_factors(cls, free_rank, factors, generators=()):
        return cls(free_rank, _chain_from_factors([d for d in factors if d > 1]),
                   tuple(generators))

    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    def torsion_order(self):
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def primary(self):
        """Prime-power decomposition of the torsion, sorted ascending."""
        parts = []
        for d in self.invariant_factors:
            parts.extend(p ** e for p, e in _factorize(d).items())
        return tuple(sorted(parts))

    def localize(self, p):
        """p-primary part (free rank is unchanged)."""
        local = []
        for d in self.invariant_factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                local.append(p ** e)
        return FinAbGroup(self.free_rank, _chain_from_factors(local))

    def direct_sum(self, other):
        return FinAbGroup.from_factors(
            self.free_rank + other.free_rank,
            list(self.invariant_factors) + list(other.invariant_factors),
            tuple(self.generators) + tuple(other.generators))

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.invariant_factors]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


# ---------------------------------------------------------------------------
# subquotients ker/im
# ---------------------------------------------------------------------------

class SubquotientPresentation:
    """Presentation of ``ker(d_out) / im(d_in)`` over a free module.

    ``out_snf`` is the Smith form of ``d_out``: the columns of its ``V``
    past the rank span the (saturated) kernel, and ``V^-1`` gives kernel
    coordinates.  ``relations`` expresses the image of ``d_in`` in those
    coordinates.  Generator lifts are returned in ambient coordinates,
    HNF-reduced modulo the image.
    """

    def __init__(self, out_snf, relations):
        self._out_snf = out_snf
        self.kernel_basis = out_snf.kernel_columns()  # columns, len n each
        self.relations = [list(c) for c in relations]  # columns, kernel coords
        k = len(self.kernel_basis)
        if self.relations:
            rel_rows = [[c[i] for c in self.relations] for i in range(k)]
            full = smith_normal_form_full(
                IntMatrix.from_rows(rel_rows, cols=len(self.relations)))
            U, D, Uinv = full.U, full.D, full.U_inv
        else:
            U, D, Uinv = (IntMatrix.identity(k), IntMatrix.zero(k, 0),
                          IntMatrix.identity(k))
        self._U = U
        self._D = D
        self._Uinv = Uinv
        diag = [D.entries[i][i] for i in range(min(D.rows, D.cols))]
        self._orders = [diag[i] if i < len(diag) else 0 for i in range(k)]
        factors = [d for d in self._orders if d > 1]
        free = sum(1 for d in self._orders if d == 0)
        gens = []
        image_rows = self._image_rows()
        hnf, pivots = row_hnf(image_rows) if image_rows else ([], [])
        for i in range(k):
            order = self._orders[i]
            if order == 1:
                continue
            vec = self._ambient(self._Uinv.column(i))
            vec = reduce_mod_rows(hnf, pivots, vec) if hnf else vec
            vec = self._sign_normalize(vec)
            gens.append((order, tuple(vec)))
        gens.sort(key=lambda g: (g[0] != 0, g[0]))  # free generators first
        self.generator_vectors = tuple(gens)
        self.group = FinAbGroup(free, _chain_from_factors(factors),
                                tuple(vec for _, vec in gens))

    def _image_rows(self):
        rows = []
        for c in self.relations:
            rows.append(self._ambient(c))
        return [r for r in rows if any(r)]

    def _ambient(self, kernel_coords):
        n = self._out_snf.D.cols
        out = [0] * n
        for k, c in enumerate(kernel_coords):
            if c:
                col = self.kernel_basis[k]
                for i in range(n):
                    out[i] += c * col[i]
        return out

    @staticmethod
    def _sign_normalize(vec):
        lead = next((x for x in vec if x), 0)
        return [-x for x in vec] if lead < 0 else list(vec)

    def kernel_coords(self, vector):
        """Coordinates of an ambient cocycle in the kernel basis; None if
        the vector is not a cocycle."""
        y = self._out_snf.v_inv_times(list(vector))
        r = self._out_snf.rank
        return None if any(y[:r]) else y[r:]

    def class_order(self, vector):
        """Order of the class of ``vector``; 0 means infinite order.

        Raises ``ValueError`` when the vector is not a cocycle.
        """
        z = self.kernel_coords(vector)
        if z is None:
            raise ValueError("vector is not a cocycle")
        k = len(self.kernel_basis)
        y = [sum(self._U.entries[i][j] * z[j] for j in range(k)) for i in range(k)]
        order = 1
        for i in range(k):
            d = self._orders[i]
            if d == 0:
                if y[i]:
                    return 0
            elif d > 1 and y[i] % d:
                order = math.lcm(order, d // math.gcd(d, y[i]))
        return order

    def generates(self, vectors):
        """True when the classes of ``vectors`` generate the whole group."""
        extra = []
        for v in vectors:
            z = self.kernel_coords(v)
            if z is None:
                raise ValueError("vector is not a cocycle")
            extra.append(z)
        cols = self.relations + extra
        k = len(self.kernel_basis)
        if k == 0:
            return True
        rows = [[c[i] for c in cols] for i in range(k)]
        facs = invariant_factors(IntMatrix.from_rows(rows, cols=len(cols)))
        return len(facs) == k and all(d == 1 for d in facs)


def subquotient_group(d_in, d_out):
    """Presentation of ``ker(d_out)/im(d_in)`` for composable differentials.

    ``d_in`` maps into the middle module (its rows), ``d_out`` maps out of it
    (its columns); the composite must vanish.  That is checked on the Smith
    form of ``d_out``: a column of ``d_in`` is rejected when its coordinates
    against the nonzero invariant factors do not all vanish.  When ``d_out``
    is injective its kernel is zero and ``d_in`` itself must vanish.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("differentials do not compose through a common module")
    out_snf = smith_normal_form_full(d_out)
    r = out_snf.rank
    relations = []
    if r == d_out.cols:
        if not d_in.is_zero():
            raise ComplexViolationError("image does not lie in the kernel")
    else:
        for j in range(d_in.cols):
            y = out_snf.v_inv_times(d_in.column(j))
            if any(y[:r]):
                raise ComplexViolationError("image does not lie in the kernel")
            relations.append(y[r:])
    return SubquotientPresentation(out_snf, relations)
