"""Base rings and bases.

The Lazard ring in its logarithmic (m) and integral (x) bases, with exact
conversion both ways and integrality verdicts, and the p-typical ring in
its logarithmic (ell) and Hazewinkel (v) bases at a concrete prime.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import (GenTable, GradedPoly, DegreeGuardError,
                       IntegralityError, row_hnf, reduce_mod_rows,
                       solve_integer, solve_rational_linear)
from .series import fgl_from_log


def m_name(n):
    return f"m_{n}"


def x_name(n):
    return f"x_{n}"


def _ext_gcd_combo(values):
    """Deterministic integer combination achieving gcd(values)."""
    g = 0
    combo = [0] * len(values)
    for k, v in enumerate(values):
        if v == 0:
            continue
        if g == 0:
            g = abs(v)
            combo = [0] * len(values)
            combo[k] = 1 if v > 0 else -1
            continue
        a, b = g, v
        # extended gcd of (a, b)
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
        combo = [c * old_s for c in combo]
        combo[k] += old_t
        g = old_r
    return g, combo


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
    return 1


class LazardBasis:
    """Integral polynomial generators of the classifying ring of formal
    group laws, expanded over the logarithm coefficients.

    Generators of weight at most four are the classical choices expressed
    through the universal-law coefficients ``a_ij``; higher generators are
    selected automatically: an integer combination of ``a_ij`` whose
    expansion has top-generator coefficient of minimal absolute value,
    reduced to a canonical representative modulo the decomposable lattice
    by Hermite normal form.
    """

    CLASSICAL_MAX = 4

    def __init__(self, N):
        self.N = N
        self.m_table = GenTable([(m_name(n), n) for n in range(1, N + 1)])
        self.x_table = GenTable([(x_name(n), n) for n in range(1, N + 1)])
        self.fgl = fgl_from_log(
            [GradedPoly.gen(self.m_table, m_name(n)) for n in range(1, N + 1)],
            N + 1)
        self.a_in_m = {}
        for (i, j), poly in self.fgl.coefficients().items():
            if i <= j:
                self.a_in_m[(i, j)] = poly
        self.x_in_m = {}
        for n in range(1, N + 1):
            if n <= self.CLASSICAL_MAX:
                self.x_in_m[n] = self._fixed_generator(n)
            else:
                self.x_in_m[n] = self._auto_generator(n)
        self._m_in_x = {}
        self._rewrite_cache = {}
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

    def _auto_generator(self, n):
        mono_list = self.m_table.monomials_of_weight(n)
        mono_index = {m: k for k, m in enumerate(mono_list)}
        top = ((self.m_table.index(m_name(n)), 1),)

        linear = [(i, n + 1 - i) for i in range(1, (n + 1) // 2 + 1)]
        tops = [int(self.a_in_m[(i, j)].coefficient(top)) for (i, j) in linear]
        d, combo = _ext_gcd_combo(tops)
        expect = lazard_indecomposable_unit(n)
        if d != expect:
            raise IntegralityError(
                f"indecomposable coefficient {d} at weight {n}, expected {expect}")

        vec = [0] * len(mono_list)
        for c, (i, j) in zip(combo, linear):
            if not c:
                continue
            for mono, coeff in self.a_in_m[(i, j)].terms.items():
                vec[mono_index[mono]] += c * int(coeff)
        # orient the top coefficient negative, matching the low-weight table
        if vec[mono_index[top]] > 0:
            vec = [-v for v in vec]

        decomposables = []
        for mono in self.x_table.monomials_of_weight(n):
            if len(mono) == 1 and mono[0][1] == 1:
                continue
            poly = GradedPoly.one(self.m_table)
            for gi, e in mono:
                k = int(self.x_table.name(gi).split("_")[1])
                poly = poly * self.x_in_m[k] ** e
            row = [0] * len(mono_list)
            for m, c in poly.terms.items():
                row[mono_index[m]] = int(c)
            decomposables.append(row)
        if decomposables:
            rank_expected = len(mono_list) - 1
            hnf, pivots = row_hnf(decomposables)
            if len(hnf) != rank_expected:
                raise DegreeGuardError(
                    f"decomposable lattice at weight {n} is rank-deficient; "
                    "truncation too small")
            vec = reduce_mod_rows(hnf, pivots, vec)
        return GradedPoly(self.m_table,
                          {mono_list[k]: v for k, v in enumerate(vec) if v})

    # -- conversion ----------------------------------------------------------

    def _weight_data(self, w):
        if w > self.N:
            raise DegreeGuardError(f"weight {w} exceeds the basis table (N={self.N})")
        if w not in self._rewrite_cache:
            m_monos = self.m_table.monomials_of_weight(w)
            x_monos = self.x_table.monomials_of_weight(w)
            index = {m: k for k, m in enumerate(m_monos)}
            cols = []
            for mono in x_monos:
                poly = GradedPoly.one(self.m_table)
                for gi, e in mono:
                    k = int(self.x_table.name(gi).split("_")[1])
                    poly = poly * self.x_in_m[k] ** e
                col = [0] * len(m_monos)
                for m, c in poly.terms.items():
                    col[index[m]] = c
                cols.append(col)
            matrix = [[cols[j][i] for j in range(len(x_monos))]
                      for i in range(len(m_monos))]
            self._rewrite_cache[w] = (m_monos, x_monos, matrix)
        return self._rewrite_cache[w]

    def rewrite_m_to_x(self, poly):
        """Rewrite a homogeneous polynomial in the logarithmic basis into the
        integral basis.  Returns ``(result, integral)``."""
        if poly.is_zero():
            return GradedPoly.zero(self.x_table), True
        if poly.table != self.m_table:
            poly = poly.extend_to(self.m_table)
        w = poly.weight()
        m_monos, x_monos, matrix = self._weight_data(w)
        index = {m: k for k, m in enumerate(m_monos)}
        rhs = [0] * len(m_monos)
        for m, c in poly.terms.items():
            rhs[index[m]] = c
        sol = solve_rational_linear(matrix, rhs)
        if sol is None:
            raise IntegralityError("polynomial does not lie in the integral span")
        out = GradedPoly(self.x_table,
                         {x_monos[j]: sol[j] for j in range(len(x_monos))})
        return out, out.is_integral()

    def m_in_x(self, n):
        """The weight-n logarithm coefficient in the integral basis."""
        if n not in self._m_in_x:
            poly, _ = self.rewrite_m_to_x(GradedPoly.gen(self.m_table, m_name(n)))
            self._m_in_x[n] = poly
        return self._m_in_x[n]

    def m_images(self, target):
        """Images of every logarithm generator in the integral basis,
        extended to an arbitrary table containing the x generators."""
        return {m_name(n): self.m_in_x(n).extend_to(target)
                for n in range(1, self.N + 1)}

    def x_images(self, target):
        """Images of every integral generator in the logarithmic basis."""
        return {x_name(n): self.x_in_m[n].extend_to(target)
                for n in range(1, self.N + 1)}

    def integral_in_a(self, n):
        """Whether generator ``n`` lies in the integer span of the
        universal-coefficient monomials (membership test over Z)."""
        w = n
        m_monos = self.m_table.monomials_of_weight(w)
        index = {m: k for k, m in enumerate(m_monos)}
        a_monos = []
        alphabet = sorted(self.a_in_m)
        singles = [(i, j) for (i, j) in alphabet if i + j - 1 == w]

        def expansions(remaining, budget):
            if budget == 0:
                yield GradedPoly.one(self.m_table)
                return
            if not remaining:
                return
            (i, j) = remaining[0]
            wt = i + j - 1
            yield from expansions(remaining[1:], budget)
            power = GradedPoly.one(self.m_table)
            for e in range(1, budget // wt + 1):
                power = power * self.a_in_m[(i, j)]
                for rest in expansions(remaining[1:], budget - e * wt):
                    yield power * rest

        cols = []
        usable = [(i, j) for (i, j) in alphabet if i + j - 1 <= w]
        for poly in expansions(usable, w):
            col = [0] * len(m_monos)
            for m, c in poly.terms.items():
                col[index[m]] = int(c)
            if any(col):
                cols.append(col)
        rows = [[c[i] for c in cols] for i in range(len(m_monos))]
        rhs = [int(self.x_in_m[n].terms.get(m, 0)) for m in m_monos]
        return solve_integer(rows, rhs) is not None


def lazard_generators(N):
    """Build a :class:`LazardBasis` through weight ``N``."""
    return LazardBasis(N)


# ---------------------------------------------------------------------------
# p-typical bases
# ---------------------------------------------------------------------------

def ell_name(n):
    return f"ell_{n}"


def v_name(n):
    return f"v_{n}"


class TypicalBasis:
    """Hazewinkel generators at a prime: the logarithm coefficients solve
    ``p*ell_n = sum_{i<n} ell_i v_{n-i}^(p^i)`` with ``ell_0 = 1``, and all
    denominators appearing in either direction are powers of ``p``."""

    def __init__(self, p, max_n):
        if max_n < 1:
            raise ValueError("max_n must be at least 1")
        self.p = p
        self.max_n = max_n
        self.ell_table = GenTable([(ell_name(n), p ** n - 1) for n in range(1, max_n + 1)])
        self.v_table = GenTable([(v_name(n), p ** n - 1) for n in range(1, max_n + 1)])
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

    def ell_images(self, target):
        return {ell_name(n): self.ell_in_v[n].extend_to(target)
                for n in range(1, self.max_n + 1)}

    def rewrite_ell_to_v(self, poly):
        """Rewrite a polynomial in the logarithmic basis into the Hazewinkel
        basis; returns ``(result, p_locally_integral)``."""
        if poly.table != self.ell_table:
            poly = poly.extend_to(self.ell_table)
        out = poly.substitute(self.ell_images(self.v_table), self.v_table)
        if not out.denominators_are_powers_of(self.p):
            raise IntegralityError("denominators are not powers of the prime")
        return out, out.is_integral()


def hazewinkel_generators(p, max_n):
    """Build a :class:`TypicalBasis` at the prime ``p`` through index ``max_n``."""
    return TypicalBasis(p, max_n)
