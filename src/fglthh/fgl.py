"""Base rings and bases.

The Lazard ring in its logarithmic (m) and integral (x) bases, with exact
conversion both ways and integrality verdicts, and the p-typical ring in
its logarithmic (ell) and Hazewinkel (v) bases at a concrete prime.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .exactalg import (GenTable, GradedPoly, DegreeGuardError,
                       IntegralityError, ResourceGuardError, Substitution,
                       p_part, row_hnf, reduce_mod_rows)
from .series import lazard_coefficients


def m_name(n):
    return f"m_{n}"


def x_name(n):
    return f"x_{n}"


def _coordinates(poly, index):
    """Integer coordinates of ``poly`` over the monomials ``index`` numbers."""
    row = [0] * len(index)
    for mono, c in poly.terms.items():
        row[index[mono]] = int(c)
    return row


def lazard_indecomposable_unit(n):
    """Minimal positive coefficient of the top logarithm generator among
    integral weight-n elements: p when n+1 is a power of the prime p, else 1."""
    k = n + 1
    for p in range(2, k + 1):
        q = p
        while q < k:
            q *= p
        if q == k:
            return p
        if k % p == 0:
            return 1


class LazardBasis:
    """Integral polynomial generators of the classifying ring of formal
    group laws, expanded over the logarithm coefficients.

    Generators of weight at most four are the classical choices expressed
    through the universal-law coefficients ``a_ij``; higher generators are
    selected automatically: an integer combination of the ``a_ij`` whose
    expansion has top-generator coefficient of minimal absolute value, read
    off their echelon basis and reduced to a canonical representative
    modulo the echelon basis of the decomposables.
    """

    CLASSICAL_MAX = 4

    def __init__(self, N):
        self.N = N
        self.m_table = GenTable([(m_name(n), n) for n in range(1, N + 1)], N)
        self.x_table = GenTable([(x_name(n), n) for n in range(1, N + 1)], N)
        self.a_in_m = lazard_coefficients(
            [GradedPoly.gen(self.m_table, m_name(n)) for n in range(1, N + 1)],
            N + 1)
        self.x_in_m = {}
        # x-monomial -> its expansion over the m's, each one lighter product
        # times one generator; kept only while the generators are chosen
        products = {0: GradedPoly.one(self.m_table)}
        for n in range(1, N + 1):
            if n <= self.CLASSICAL_MAX:
                self.x_in_m[n] = self._fixed_generator(n)
            else:
                self.x_in_m[n] = self._auto_generator(n, products)
            products[self.x_table.units[n - 1]] = self.x_in_m[n]
        self._m_in_x = {}
        for n in range(1, N + 1):
            if self.x_in_m[n].coefficient_of_gen(m_name(n)) == 0:
                raise ValueError(f"generator {n} has no indecomposable part")

    # -- generator construction ---------------------------------------------

    def _fixed_generator(self, n):
        a = self.a_in_m
        if n == 1:
            return a[(1, 1)]
        if n == 2:
            return a[(1, 2)]
        if n == 3:
            return a[(2, 2)] - a[(1, 3)]
        return a[(1, 4)]

    def _product(self, mono, products):
        """The expansion of the x-monomial ``mono`` over the m's: the product
        of the monomial without one factor of its lightest generator, built
        once in ``products``, and that generator."""
        poly = products.get(mono)
        if poly is None:
            i = self.x_table.exponents(mono)[0][0]
            poly = products[mono] = (self._product(mono - self.x_table.units[i], products)
                                     * self.x_in_m[i + 1])
        return poly

    def _auto_generator(self, n, products):
        # with m_n's column first, the first echelon row of the a_ij is an
        # integral combination whose top coefficient is the least positive one
        top = self.m_table.units[self.m_table.index(m_name(n))]
        monos = (top, *(m for m in self.m_table.monomials_of_weight(n) if m != top))
        index = {m: k for k, m in enumerate(monos)}
        first = row_hnf(_coordinates(self.a_in_m[(i, n + 1 - i)], index)
                        for i in range(1, (n + 1) // 2 + 1))[0][0]
        expect = lazard_indecomposable_unit(n)
        if first[0] != expect:
            raise IntegralityError(
                f"indecomposable coefficient {first[0]} at weight {n}, expected {expect}")
        # orient the top coefficient negative, matching the low-weight table
        vec = [-v for v in first]

        decomposables = []
        for mono in self.x_table.monomials_of_weight(n):
            if mono != self.x_table.units[n - 1]:
                decomposables.append(_coordinates(self._product(mono, products), index))
        hnf, pivots = row_hnf(decomposables)
        if len(hnf) != len(monos) - 1:
            raise DegreeGuardError(
                f"decomposable lattice at weight {n} is rank-deficient; "
                "truncation too small")
        # every integral combination with this top coefficient differs from
        # the row by a decomposable, so the representative is the same
        vec = reduce_mod_rows(hnf, pivots, vec)
        return GradedPoly(self.m_table, {monos[k]: v for k, v in enumerate(vec) if v})

    # -- conversion ----------------------------------------------------------

    def rewrite_m_to_x(self, poly):
        """Rewrite a homogeneous polynomial in the logarithmic basis into the
        integral basis.  Returns ``(result, integral)``."""
        if poly.is_zero():
            return GradedPoly.zero(self.x_table), True
        w = poly.weight()
        if w > self.N:
            raise DegreeGuardError(f"weight {w} exceeds the basis table (N={self.N})")
        out = poly.substitute(self._m_to_x, self.x_table)
        return out, out.is_integral()

    @cached_property
    def _m_to_x(self):
        """The m -> x rewrite, prepared once for every call."""
        return Substitution(self.m_table, self.m_images(self.x_table), self.x_table)

    def m_in_x(self, n):
        """The weight-n logarithm coefficient in the integral basis.

        ``x_n = c m_n + r_n(m_1..m_{n-1})`` with ``c != 0``, so
        ``m_n = (x_n - r_n) / c`` with the lower ``m_i`` already rewritten.
        """
        if n not in self._m_in_x:
            c = self.x_in_m[n].coefficient_of_gen(m_name(n))
            r = self.x_in_m[n] - GradedPoly.gen(self.m_table, m_name(n), coeff=c)
            lower = r.substitute({m_name(i): self.m_in_x(i) for i in range(1, n)},
                                 self.x_table)
            self._m_in_x[n] = (GradedPoly.gen(self.x_table, x_name(n))
                               - lower).scale(Fraction(1, c))
        return self._m_in_x[n]

    @cached_property
    def hurewicz_map(self):
        """The Hurewicz map on the integral alphabet, prepared once: the image
        of each integral generator is ``x_in_m[n]`` with each ``m_k`` read as
        ``x_k``, the weight-k generator standing for the moving coordinate
        ``c_k``."""
        m_as_x = {m_name(k): GradedPoly.gen(self.x_table, x_name(k))
                  for k in range(1, self.N + 1)}
        return Substitution(self.x_table, {
            x_name(n): self.x_in_m[n].substitute(m_as_x, self.x_table)
            for n in range(1, self.N + 1)}, self.x_table)

    def m_images(self, target):
        """Images of every logarithm generator in the integral basis,
        extended to an arbitrary table containing the x generators."""
        return {m_name(n): self.m_in_x(n).extend_to(target)
                for n in range(1, self.N + 1)}

    def integral_in_a(self, n):
        """Whether generator ``n`` lies in the integer span of the weight-n
        monomials in the universal coefficients ``a_ij`` (membership test
        over Z)."""
        keys = {f"a_{i}_{j}": (i, j) for (i, j) in self.a_in_m if i + j - 1 <= n}
        a_table = GenTable([(name, i + j - 1) for name, (i, j) in keys.items()], n)
        a = [self.a_in_m[keys[name]] for name in a_table.names]
        index = {m: k for k, m in enumerate(self.m_table.monomials_of_weight(n))}
        cols = []
        for mono in a_table.monomials_of_weight(n):
            poly = GradedPoly.one(self.m_table)
            for i, e in a_table.exponents(mono):
                poly = poly * a[i] ** e
            cols.append(_coordinates(poly, index))
        rhs = _coordinates(self.x_in_m[n], index)
        return not any(reduce_mod_rows(*row_hnf(cols), rhs))


# ---------------------------------------------------------------------------
# p-typical bases
# ---------------------------------------------------------------------------

def ell_name(n):
    return f"ell_{n}"


def v_name(n):
    return f"v_{n}"


# ell_in_v[n] has 2^(n-1) terms and the sigma table grows about 2.7 times
# per step of n at every prime: sigma --flavor bp --format json --output FILE
# at --max-n 12 takes 2.7 s, 58 MB and writes 21 MB at p=2 (3.9 s, 79 MB and
# 29 MB at p=5); at --max-n 13 and p=2 it takes 7.2 s, 127 MB and 57 MB
# (2-core box, CPython 3.11).
TYPICAL_MAX_N = 12


class TypicalBasis:
    """Hazewinkel generators at a prime: the logarithm coefficients solve
    ``p*ell_n = sum_{i<n} ell_i v_{n-i}^(p^i)`` with ``ell_0 = 1``, and all
    denominators appearing in either direction are powers of ``p``."""

    def __init__(self, p, max_n):
        if max_n < 1:
            raise ValueError("max_n must be at least 1")
        if max_n > TYPICAL_MAX_N:
            raise ResourceGuardError(
                f"the p-typical tables are capped at max_n {TYPICAL_MAX_N}, got {max_n}")
        self.p = p
        self.max_n = max_n
        # the ring on v_1..v_max_n is complete through the weight just below v_{max_n+1}
        self.truncation_weight = p ** (max_n + 1) - 2
        self.ell_table = GenTable([(ell_name(n), p ** n - 1) for n in range(1, max_n + 1)],
                                  self.truncation_weight)
        self.v_table = GenTable([(v_name(n), p ** n - 1) for n in range(1, max_n + 1)],
                                self.truncation_weight)
        self.ell_in_v = {}
        for n in range(1, max_n + 1):
            acc = GradedPoly.gen(self.v_table, v_name(n))
            for i in range(1, n):
                acc = acc + self.ell_in_v[i] * GradedPoly.gen(
                    self.v_table, v_name(n - i)) ** (p ** i)
            self.ell_in_v[n] = acc.scale(Fraction(1, p))
        self._v_in_ell = {}

    def v_in_ell(self, n):
        if n not in self._v_in_ell:
            p = self.p
            acc = GradedPoly.gen(self.ell_table, ell_name(n)).scale(p)
            for i in range(1, n):
                acc = acc - (GradedPoly.gen(self.ell_table, ell_name(i))
                             * self.v_in_ell(n - i) ** (p ** i))
            self._v_in_ell[n] = acc
        return self._v_in_ell[n]

    def pn_ell(self, n):
        """``p^n * ell_n`` in the Hazewinkel basis (integral by the defining
        recursion)."""
        poly = self.ell_in_v[n].scale(self.p ** n)
        if not poly.is_integral():
            raise IntegralityError(f"p^{n} ell_{n} is not integral at p={self.p}")
        return poly

    def recursion_residual(self, n):
        """``p*ell_n - sum_{i<n} ell_i v_{n-i}^(p^i)`` expanded in the
        Hazewinkel basis; identically zero when the table is consistent."""
        p = self.p
        acc = self.ell_in_v[n].scale(p) - GradedPoly.gen(self.v_table, v_name(n))
        for i in range(1, n):
            acc = acc - self.ell_in_v[i] * GradedPoly.gen(
                self.v_table, v_name(n - i)) ** (p ** i)
        return acc

    def rewrite_ell_to_v(self, poly):
        """Rewrite a polynomial in the logarithmic basis into the Hazewinkel
        basis; returns ``(result, p_locally_integral)``."""
        out = poly.substitute({ell_name(n): self.ell_in_v[n]
                               for n in range(1, self.max_n + 1)}, self.v_table)
        if any(p_part(c.denominator, self.p) != c.denominator for c in out.terms.values()):
            raise IntegralityError("denominators are not powers of the prime")
        return out, out.is_integral()
