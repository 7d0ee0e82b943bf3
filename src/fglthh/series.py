"""Truncated formal power series over graded polynomial coefficients.

Series in one, two or three variables, composition, compositional
inversion, the universal formal group law built from its logarithm, and
formal sums with respect to a formal group law.  The coefficient of
``x^(k+1)`` (resp. ``x^i y^j``) is homogeneous of weight ``k`` (resp.
``i+j-1``), so every coefficient produced here is weight-correct by
construction.
"""

from __future__ import annotations

from math import comb

from .exactalg import ExactAlgError, GradedPoly, GeneratorTableError, _accumulate


class SeriesError(ExactAlgError):
    """Series operands are incompatible or outside an operation's domain."""


def _as_tuple(exp, nvars):
    if nvars == 1:
        return (exp,) if isinstance(exp, int) else tuple(exp)
    return tuple(exp)


class TruncatedSeries:
    """Series with :class:`GradedPoly` coefficients, truncated above a
    total-exponent bound.

    ``coeffs`` maps exponent tuples (length = number of variables) to
    polynomial coefficients; entries above the bound are dropped on
    construction and in every operation.
    """

    __slots__ = ("table", "nvars", "bound", "coeffs")

    def __init__(self, table, nvars, bound, coeffs=None):
        self.table = table
        self.nvars = nvars
        self.bound = bound
        clean = {}
        if coeffs:
            for exp, poly in coeffs.items():
                exp = _as_tuple(exp, nvars)
                if len(exp) != nvars:
                    raise SeriesError("exponent arity mismatch")
                if sum(exp) > bound or poly.is_zero():
                    continue
                clean[exp] = poly
        self.coeffs = clean

    @classmethod
    def zero(cls, table, bound, nvars=1):
        return cls(table, nvars, bound)

    @classmethod
    def variable(cls, table, bound, nvars=1, which=0):
        exp = tuple(1 if i == which else 0 for i in range(nvars))
        return cls(table, nvars, bound, {exp: GradedPoly.one(table)})

    @classmethod
    def monomial(cls, table, bound, poly, exp, nvars=1):
        return cls(table, nvars, bound, {_as_tuple(exp, nvars): poly})

    def coeff(self, exp):
        return self.coeffs.get(_as_tuple(exp, self.nvars), GradedPoly.zero(self.table))

    def min_degree(self):
        return min((sum(e) for e in self.coeffs), default=self.bound + 1)

    def is_strict(self):
        """Zero constant term and leading coefficient one (single variable)."""
        if self.coeffs.get((0,)) is not None:
            return False
        return self.coeffs.get((1,)) == GradedPoly.one(self.table)

    def _check_compatible(self, other):
        if self.table != other.table:
            raise GeneratorTableError("series over different generator tables")
        if self.bound != other.bound:
            raise SeriesError("truncation bound mismatch")
        if self.nvars != other.nvars:
            raise SeriesError("variable count mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, poly in other.coeffs.items():
            cur = out.get(exp)
            s = poly if cur is None else cur + poly
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        return TruncatedSeries(self.table, self.nvars, self.bound, out)

    def __mul__(self, other):
        self._check_compatible(other)
        out = {}
        for e1, p1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, p2 in other.coeffs.items():
                if d1 + sum(e2) > self.bound:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = p1 * p2
                cur = out.get(e)
                out[e] = prod if cur is None else _accumulate(cur, prod)
        return TruncatedSeries(self.table, self.nvars, self.bound, out)

    def scale(self, poly):
        return TruncatedSeries(self.table, self.nvars, self.bound,
                               {e: p * poly for e, p in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries) and self.table == other.table
                and self.nvars == other.nvars and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def __repr__(self):
        items = sorted(self.coeffs.items())
        return f"TruncatedSeries({items!r})"


def compose(outer, inner):
    """Substitute ``inner`` into the single-variable series ``outer``.

    ``inner`` may have any number of variables but must have zero constant
    term; the result is exact through the common truncation bound.
    """
    if outer.nvars != 1:
        raise SeriesError("outer series must be single-variable")
    if outer.table != inner.table:
        raise GeneratorTableError("series over different generator tables")
    if outer.bound != inner.bound:
        raise SeriesError("truncation bound mismatch")
    if inner.min_degree() < 1:
        raise SeriesError("inner series must have zero constant term")
    out = TruncatedSeries.zero(inner.table, inner.bound, inner.nvars)
    if (0,) in outer.coeffs:
        out = out + TruncatedSeries(inner.table, inner.nvars, inner.bound,
                                    {(0,) * inner.nvars: outer.coeffs[(0,)]})
    power = None
    step = inner.min_degree()
    for k in range(1, outer.bound + 1):
        if k * max(step, 1) > outer.bound:
            break
        power = inner if power is None else power * inner
        ck = outer.coeffs.get((k,))
        if ck is not None:
            out = out + power.scale(ck)
    return out


def _dot(table, pairs):
    """``sum f * g`` over the ``(f, g)`` pairs, skipping zero factors."""
    acc = GradedPoly.zero(table)
    for f, g in pairs:
        if f.terms and g.terms:
            acc = _accumulate(acc, f * g)
    return acc


def _power_entry(c, prev, j, k):
    """``[x^k] f^j = sum_t c_t [x^(k-t)] f^(j-1)`` for a strict series
    ``f = sum c_t x^t``, from the row ``prev`` of ``f^(j-1)``."""
    return _dot(c[1].table, ((c[t], prev[k - t]) for t in range(1, k - j + 2)))


def comp_inverse(f):
    """Compositional inverse of a strict series, degree by degree.

    With ``f = x + sum a_j x^j`` and ``g = x + sum b_i x^i``, the table
    ``P[j][k] = [x^k] g^j`` obeys ``P[j][j] = 1`` and
    ``P[j][k] = sum_{i=1}^{k-j+1} b_i P[j-1][k-i]``, and ``[x^k] f(g) = 0``
    solves ``b_k = -sum_{j=2}^{k} a_j P[j][k]``.  Each ``P[j][k]`` needs only
    ``b_1 .. b_{k-1}``, so the table grows as each ``b_k`` lands and the
    series is never recomposed (Brent & Kung, J. ACM 1978).
    """
    if not f.is_strict():
        raise SeriesError("compositional inverse requires a strict series")
    table, bound = f.table, f.bound
    zero, one = GradedPoly.zero(table), GradedPoly.one(table)
    b = [zero, one] + [zero] * (bound - 1)
    powers = [None, b]
    for k in range(2, bound + 1):
        powers.append([zero] * k + [one] + [zero] * (bound - k))
        bk = GradedPoly.zero(table)
        for j in range(2, k + 1):
            row = powers[j]
            if j < k:
                row[k] = _power_entry(b, powers[j - 1], j, k)
            aj = f.coeffs.get((j,))
            if aj is not None and row[k].terms:
                bk = _accumulate(bk, aj * row[k])
        b[k] = -bk
    return TruncatedSeries(table, 1, bound, {(k,): bk for k, bk in enumerate(b)})


def series_from_coefficient_table(table, bound, coeff_of_power):
    """Strict series ``x + sum_n c_n x^(n+1)`` from a coefficient table
    ``{n: c_n}`` (n >= 1)."""
    coeffs = {(1,): GradedPoly.one(table)}
    for n, poly in coeff_of_power.items():
        if n + 1 <= bound:
            coeffs[(n + 1,)] = poly
    return TruncatedSeries(table, 1, bound, coeffs)


class FGLaw:
    """Formal group law ``F(x, y) = x + y + sum a_ij x^i y^j`` truncated at
    a total-degree bound, with symmetric polynomial coefficients."""

    __slots__ = ("table", "bound", "series")

    def __init__(self, table, bound, series):
        self.table = table
        self.bound = bound
        self.series = series  # two-variable TruncatedSeries

    def a(self, i, j):
        return self.series.coeff((i, j))

    def evaluate(self, s, t):
        """``F(s, t)`` for series with zero constant term (any arity)."""
        if s.nvars != t.nvars or s.bound != t.bound:
            raise SeriesError("incompatible series in formal group law evaluation")
        if s.min_degree() < 1 or t.min_degree() < 1:
            raise SeriesError("formal group law arguments need zero constant term")
        bound = s.bound
        out = s + t
        s_pows = {1: s}
        t_pows = {1: t}
        s_min, t_min = max(s.min_degree(), 1), max(t.min_degree(), 1)
        for (i, j), a in sorted(self.series.coeffs.items()):
            if i < 1 or j < 1:
                continue
            if i * s_min + j * t_min > bound:
                continue
            for pows, base, k in ((s_pows, s, i), (t_pows, t, j)):
                while max(pows) < k:
                    m = max(pows)
                    pows[m + 1] = pows[m] * base
            term = (s_pows[i] * t_pows[j]).scale(a)
            out = out + term
        return out


def power_table(f):
    """``P[j][k] = [x^k] f^j`` for ``0 <= j <= k <= bound`` of a strict series."""
    table, bound = f.table, f.bound
    zero = GradedPoly.zero(table)
    c = [f.coeff(k) for k in range(bound + 1)]
    rows = [[GradedPoly.one(table)] + [zero] * bound]
    for j in range(1, bound + 1):
        rows.append([zero] * j + [_power_entry(c, rows[-1], j, k) for k in range(j, bound + 1)])
    return rows


def _binomial_coefficients(m_list, bound, pairs):
    """``{(a, b): [x^a y^b] F}`` over ``pairs`` for the universal formal group
    law with logarithm coefficients ``m_list``.

    ``m_list[n-1]`` is the weight-``n`` logarithm coefficient (the
    coefficient of ``x^(n+1)``); ``F(x,y) = exp(log(x) + log(y))`` where
    ``exp = sum e_k z^k`` is the compositional inverse of ``log``.  Expanding
    ``(log x + log y)^k`` by the binomial formula, with
    ``P[i][a] = [x^a] log(x)^i``, gives ``[x^a y^b] F = sum_i P[i][a] R[i][b]``
    where ``R[i][b] = sum_j C(i+j, i) e_(i+j) P[j][b]``: products of
    one-variable coefficients and no two-variable composition.  ``P[i][a]``
    vanishes unless ``i <= a`` and ``P[0][a]`` unless ``a = 0``, so only the
    ``R[i][b]`` some pair reads are built.
    """
    if not m_list:
        raise SeriesError("logarithm coefficients required (may be zero polynomials)")
    table = m_list[0].table
    if len(m_list) < bound - 1:
        raise SeriesError("insufficient truncation data for the requested bound")
    log = series_from_coefficient_table(
        table, bound, {n + 1: p for n, p in enumerate(m_list)})
    exp = comp_inverse(log)
    e = [exp.coeff(k) for k in range(bound + 1)]
    P = power_table(log)
    ce, R = {}, {}

    def r(i, b):
        if (i, b) not in R:
            if i not in ce:
                ce[i] = [e[i + j].scale(comb(i + j, i)) for j in range(bound + 1 - i)]
            R[i, b] = _dot(table, ((ce[i][j], P[j][b]) for j in range(b + 1)))
        return R[i, b]

    return {(a, b): _dot(table, ((P[i][a], r(i, b)) for i in range(min(a, 1), a + 1)))
            for a, b in pairs}


def lazard_coefficients(m_list, bound):
    """The coefficients ``a_ij`` with ``1 <= i <= j`` and ``i + j <= bound``
    of the universal formal group law, the half a Lazard basis reads: no
    ``i = 0`` or ``j = 0`` edge and no mirrored ``a_ji``.  The same binomial
    formula as :func:`fgl_from_log`, without its law checks."""
    return _binomial_coefficients(
        m_list, bound,
        [(i, j) for i in range(1, bound // 2 + 1) for j in range(i, bound + 1 - i)])


def fgl_from_log(m_list, bound):
    """Universal formal group law from its logarithm coefficients, by the
    binomial formula of :func:`_binomial_coefficients`.  Every coefficient,
    those with ``a = 0`` or ``b = 0`` and both of each symmetric pair
    included, is computed, so the identity and symmetry checks below test
    the construction.  With all coefficients zero this yields the additive
    law ``x + y``.
    """
    coeffs = _binomial_coefficients(
        m_list, bound, [(a, b) for a in range(bound + 1) for b in range(bound + 1 - a)])
    table = m_list[0].table
    law = FGLaw(table, bound, TruncatedSeries(table, 2, bound, coeffs))
    # F(x, 0) = x and symmetry are construction invariants; fail loudly if broken
    for (i, j), p in law.series.coeffs.items():
        if j == 0 and not (i == 1 and p == GradedPoly.one(table)):
            raise SeriesError("formal group law does not restrict to the identity")
        if law.a(i, j) != law.a(j, i):
            raise SeriesError("formal group law is not symmetric")
    return law


def fgl_formal_sum(law, terms):
    """Iterated formal sum ``F(t1, F(t2, ...))`` associated to the right.

    Every term must have zero constant term; for the additive law the
    result degenerates to the ordinary sum.
    """
    if not terms:
        raise SeriesError("formal sum of an empty list")
    for t in terms:
        if t.min_degree() < 1:
            raise SeriesError("formal sum terms must have zero constant term")
        if t.bound != terms[0].bound or t.nvars != terms[0].nvars:
            raise SeriesError("formal sum terms must share bound and arity")
    acc = terms[-1]
    for t in reversed(terms[:-1]):
        acc = law.evaluate(t, acc)
    return acc
