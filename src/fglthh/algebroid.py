"""Structure maps of the formal-group Hopf algebroids.

Right units, conjugation and coproduct in absolute coordinates, the
absolute-to-moving coordinate change (solved degree by degree from the
right unit, whose moving form is a closed divisor sum), and the p-typical
right unit.  The formal sum that defines the moving coordinates is not
built here; ``verify`` evaluates it as the independent check.
Conjugation and coproduct are implemented only for the split (absolute)
coordinate algebra, where the classical closed data exists; the moving
and p-typical coalgebras carry them abstractly but no formulas are
produced for them here.
"""

from __future__ import annotations

from functools import cached_property

from .exactalg import (GenTable, GradedPoly, IntegralityError,
                       DegreeGuardError, Substitution, poly_sum)
from .series import (compose, comp_inverse, power_table,
                     series_from_coefficient_table)
from .fgl import LazardBasis, TypicalBasis, m_name, ell_name


def b_name(n):
    return f"b_{n}"


def c_name(n):
    return f"c_{n}"


def t_name(n):
    return f"t_{n}"


def generic_strict_series(table, names_by_degree, bound):
    """``x + sum_n g_n x^(n+1)`` for an alphabet ``{n: name}``."""
    return series_from_coefficient_table(
        table, bound,
        {n: GradedPoly.gen(table, name) for n, name in names_by_degree.items()})


def moving_right_unit(n, table=None):
    """Right unit on the weight-n logarithm coefficient in moving
    coordinates.  A closed divisor sum, so it needs no truncation data; when
    no table is given, a private one holds just the generators of the
    divisor pairs."""
    pairs = [(i, (n + 1) // (i + 1) - 1) for i in range(n + 1) if (n + 1) % (i + 1) == 0]
    if table is None:
        table = GenTable([(m_name(i), i) for i, _ in pairs if i]
                         + [(c_name(j), j) for _, j in pairs if j], n)
    parts = []
    for i, j in pairs:
        mi = GradedPoly.one(table) if i == 0 else GradedPoly.gen(table, m_name(i))
        cj = GradedPoly.one(table) if j == 0 else GradedPoly.gen(table, c_name(j))
        parts.append(mi * cj ** (i + 1))
    return poly_sum(parts, table)


class MuStructure:
    """Structure-map tables over one Lazard basis.

    Only the conjugates are built up front.  Each derived table (the right
    unit on the logarithm, the moving coordinates and the powers of the
    split series, which give the coproduct) is a cached property built on
    first read; the per-index accessors rewrite from those tables on every
    call.
    """

    def __init__(self, basis: LazardBasis):
        self.basis = basis
        N = basis.N
        self.N = N
        self.b_table = GenTable([(b_name(n), n) for n in range(1, N + 1)], N)
        self.c_table = GenTable([(c_name(n), n) for n in range(1, N + 1)], N)
        self.mb_table = basis.m_table.union(self.b_table)
        self.xb_table = basis.x_table.union(self.b_table)
        self.mc_table = basis.m_table.union(self.c_table)

        self.f_b = generic_strict_series(self.b_table,
                                         {n: b_name(n) for n in range(1, N + 1)}, N + 1)
        fbar = comp_inverse(self.f_b)
        self.chi = {n: fbar.coeff(n + 1) for n in range(1, N + 1)}

    def _check_range(self, n):
        if not 1 <= n <= self.N:
            raise DegreeGuardError(
                f"index {n} outside the truncation (1..{self.N})")

    # -- right unit, absolute coordinates ------------------------------------

    @cached_property
    def _eta_m_images(self):
        """Right unit on every logarithm generator, keyed by its name."""
        table, bound = self.mb_table, self.N + 1
        log_mb = series_from_coefficient_table(
            table, bound,
            {k: GradedPoly.gen(table, m_name(k)) for k in range(1, self.N + 1)})
        fbar_mb = series_from_coefficient_table(
            table, bound, {k: chi.extend_to(table) for k, chi in self.chi.items()})
        eta_series = compose(log_mb, fbar_mb)
        return {m_name(k): eta_series.coeff(k + 1) for k in range(1, self.N + 1)}

    def eta_m(self, n):
        """Right unit on the weight-n logarithm coefficient, in the split
        alphabet: the degree-n coefficient of ``log(f^{-1}(x))``."""
        self._check_range(n)
        return self._eta_m_images[m_name(n)]

    def eta_x(self, n):
        """Right unit on the weight-n integral generator: computed rationally
        on the logarithm expansion, then rewritten integrally."""
        self._check_range(n)
        raw = self.basis.x_in_m[n].substitute(self._eta_m_images, self.mb_table)
        out = self._rewrite_mb_to_xb(raw)
        if not out.is_integral():
            raise IntegralityError(f"right unit of x_{n} is not integral")
        return out

    @cached_property
    def _m_to_xb(self):
        """The m -> x rewrite on the split alphabet, prepared once."""
        return Substitution(self.mb_table, self.basis.m_images(self.xb_table), self.xb_table)

    def _rewrite_mb_to_xb(self, poly):
        return poly.substitute(self._m_to_xb, self.xb_table)

    # -- right unit, moving coordinates ---------------------------------------

    def eta_m_moving(self, n):
        """Right unit on the weight-n logarithm coefficient in moving
        coordinates: the divisor sum over (i+1)(j+1) = n+1."""
        return moving_right_unit(n, self.mc_table)

    # -- moving coordinates ----------------------------------------------------

    @cached_property
    def _c_in_mb_table(self):
        """Moving coordinates solved degree by degree from the right unit,
        over the logarithm and split alphabets: the divisor sum
        ``eta_m_moving(n)`` equals ``eta_m(n)`` once the c's are expressed,
        and its ``i = 0`` term is ``c_n`` itself, so ``c_n`` is ``eta_m(n)``
        minus the rest of the sum with the lower c's substituted."""
        c_solved = {}
        for n in range(1, self.N + 1):
            tail = self.eta_m_moving(n) - GradedPoly.gen(self.mc_table, c_name(n))
            lowered = tail.substitute({c_name(j): c_solved[j] for j in range(1, n)},
                                      self.mb_table)
            c_solved[n] = self.eta_m(n) - lowered
        return c_solved

    def c_in_mb(self, n):
        """The weight-n moving coordinate in the logarithm and split
        alphabets, as the right-unit solve gives it."""
        self._check_range(n)
        return self._c_in_mb_table[n]

    def c_in_xb(self, n):
        """The weight-n moving coordinate expressed in integral and split
        generators."""
        out = self._rewrite_mb_to_xb(self.c_in_mb(n))
        if not out.is_integral():
            raise IntegralityError(f"moving coordinate {n} is not integral")
        return out

    # -- coproduct --------------------------------------------------------------

    @cached_property
    def _powers(self):
        """``P[j][k] = [x^k] f^j`` for the split series ``f = x + sum b_k x^(k+1)``."""
        return power_table(self.f_b)

    def psi(self, n):
        """Coproduct of the weight-n split coordinate as sorted tensor pairs
        ``(left monomial, right polynomial)`` over the split alphabet:
        ``psi(b_n) = sum_i [x^(n+1)] f^(i+1) (x) b_i`` with ``b_0 = 1``.  A
        left monomial has weight ``n - i``, so each occurs once."""
        self._check_range(n)
        table = self.b_table
        terms = sorted(((m, c, i) for i in range(n + 1)
                        for m, c in self._powers[i + 1][n + 1].terms.items()),
                       key=lambda t: table.mono_key(t[0]))
        b = [GradedPoly.one(table)] + [GradedPoly.gen(table, b_name(k))
                                       for k in range(1, n + 1)]
        return [(GradedPoly(table, {m: 1}), c * b[i]) for m, c, i in terms]

    def _psi_into(self, n, table, left, right):
        """``psi(b_n)`` multiplied out over ``table``: ``sum_i P[i+1][n+1] *
        right[i]`` with ``right[0] = 1``, each ``b_k`` of ``P`` sent to
        ``left[k]`` (``left=None`` keeps the split alphabet)."""
        images = None if left is None else {b_name(k): left[k] for k in range(1, n + 1)}
        parts = []
        for i in range(n + 1):
            part = self._powers[i + 1][n + 1]
            if images is not None:
                part = part.substitute(images, table)
            parts.append(part if i == 0 else part * right[i])
        return poly_sum(parts, table)

    # -- axioms -----------------------------------------------------------------

    def counit_residual(self, n):
        """``(id (x) eps) psi(b_n) - b_n``; zero when the counit axiom holds."""
        zeros = {k: GradedPoly.zero(self.b_table) for k in range(1, n + 1)}
        return (self._psi_into(n, self.b_table, None, zeros)
                - GradedPoly.gen(self.b_table, b_name(n)))

    def coassociativity_residual(self, n):
        """Difference of the two double coproducts on the weight-n generator,
        over three copies u, v, w of the split alphabet."""
        N = self.N
        uvw = GenTable([(f"{a}_{k}", k) for a in "uvw" for k in range(1, N + 1)], N)
        u, v, w = ({k: GradedPoly.gen(uvw, f"{a}_{k}") for k in range(1, n + 1)}
                   for a in "uvw")
        psi_uv = {k: self._psi_into(k, uvw, u, v) for k in range(1, n + 1)}
        psi_vw = {k: self._psi_into(k, uvw, v, w) for k in range(1, n + 1)}
        return self._psi_into(n, uvw, psi_uv, w) - self._psi_into(n, uvw, u, psi_vw)

    def antipode_residual(self, n):
        """Multiply-then-fold of ``(chi (x) id) psi(b_n)``; equals the counit
        value, so it must vanish for positive weight."""
        b = {k: GradedPoly.gen(self.b_table, b_name(k)) for k in range(1, n + 1)}
        return self._psi_into(n, self.b_table, self.chi, b)


# ---------------------------------------------------------------------------
# p-typical structure maps
# ---------------------------------------------------------------------------

class TypicalStructure:
    """Right-unit data for the p-typical pair at a concrete prime."""

    def __init__(self, tbasis: TypicalBasis):
        self.tbasis = tbasis
        p, max_n = tbasis.p, tbasis.max_n
        self.t_table = GenTable([(t_name(n), p ** n - 1) for n in range(1, max_n + 1)],
                                tbasis.truncation_weight)
        self.ellt_table = tbasis.ell_table.union(self.t_table)

    def eta_ell(self, n):
        """``sum_{i+j=n} ell_i t_j^(p^i)`` with leading and trailing units."""
        p = self.tbasis.p
        table = self.ellt_table
        parts = []
        for i in range(0, n + 1):
            j = n - i
            li = GradedPoly.one(table) if i == 0 else GradedPoly.gen(table, ell_name(i))
            tj = GradedPoly.one(table) if j == 0 else GradedPoly.gen(table, t_name(j))
            parts.append(li * tj ** (p ** i))
        return poly_sum(parts, table)

    def epsilon_eta_ell(self, n):
        """Augmentation (all t to zero) applied to the right unit."""
        images = {t_name(k): GradedPoly.zero(self.tbasis.ell_table)
                  for k in range(1, self.tbasis.max_n + 1)}
        images.update({ell_name(k): GradedPoly.gen(self.tbasis.ell_table, ell_name(k))
                       for k in range(1, self.tbasis.max_n + 1)})
        return self.eta_ell(n).substitute(images, self.tbasis.ell_table)


def typicality_filter(tstruct: TypicalStructure, n):
    """Apply the p-typicalization correspondence to the moving right unit:
    logarithm and moving coordinates survive exactly at prime-power indices,
    landing on the p-typical alphabet."""
    p = tstruct.tbasis.p
    target = tstruct.ellt_table
    poly = moving_right_unit(n)
    images = {}
    for name in poly.table.names:  # distinct divisor pairs: each occurs in a term
        family, j = name.split("_")
        j = int(j)
        k, q = 0, 1
        while q < j + 1:
            q *= p
            k += 1
        hit = (q == j + 1)
        if not hit:
            images[name] = GradedPoly.zero(target)
        elif family == "m":
            images[name] = GradedPoly.gen(target, ell_name(k))
        else:
            images[name] = GradedPoly.gen(target, t_name(k))
    return poly.substitute(images, target)
