"""Homotopy rings of topological Hochschild homology and the sigma operator.

Elements live in ``base (x) E(exterior generators)`` for one of three
flavors: moving coordinates (lambda'), split coordinates (e) over the
integral Lazard basis, and the p-typical case (lambda) over Hazewinkel
generators.  The sigma operator is a degree +1 right derivation vanishing
on the lambda generators; in the split flavor its exterior values are
forced by the vanishing of its square.  The p-typical table comes from the
defining recursion alone; ``verify`` checks it forward, in the ell basis.
The de Rham differential is a table of the same kind, and every map between
these rings is one ``ring_map``, fixed by its values on generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .exactalg import (GenTable, GeneratorTableError, GradedPoly, IntegralityError,
                       TEXT, signed_sum)
from .fgl import LazardBasis, TypicalBasis, x_name, ell_name, v_name
from .algebroid import TypicalStructure, t_name


@dataclass(frozen=True)
class ThhFlavor:
    """Base ring plus exterior alphabet for one homotopy ring.  Exterior
    generator n belongs to the n-th generator of the base table and sits one
    degree above it; the truncation is the table's weight bound."""

    tag: str
    base: GenTable
    ext_prefix: str

    def ext_indices(self):
        return tuple(range(1, len(self.base) + 1))


def mu_split_flavor(basis: LazardBasis):
    return ThhFlavor("mu-split", basis.x_table, "e")


def merge_sign(left, right):
    """Sign of sorting the concatenation of two disjoint sorted index tuples."""
    inv = 0
    for a in left:
        for b in right:
            if a > b:
                inv += 1
    return -1 if inv % 2 else 1


class ExtElement:
    """Element of ``base (x) E(ext)``: exterior monomials (strictly sorted
    index tuples) with polynomial coefficients."""

    __slots__ = ("flavor", "terms")

    def __init__(self, flavor, terms=None):
        self.flavor = flavor
        clean = {}
        if terms:
            for subset, poly in terms.items():
                if poly.is_zero():
                    continue
                clean[tuple(subset)] = poly
        self.terms = clean

    @classmethod
    def zero(cls, flavor):
        return cls(flavor)

    @classmethod
    def from_base(cls, flavor, poly):
        return cls(flavor, {(): poly})

    @classmethod
    def ext_gen(cls, flavor, n, coeff=None):
        poly = GradedPoly.one(flavor.base) if coeff is None else coeff
        return cls(flavor, {(n,): poly})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.flavor != other.flavor:
            raise ValueError("flavor mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for s, p in other.terms.items():
            cur = out.get(s)
            v = p if cur is None else cur + p
            if v.is_zero():
                out.pop(s, None)
            else:
                out[s] = v
        return ExtElement(self.flavor, out)

    def __neg__(self):
        return ExtElement(self.flavor, {s: -p for s, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return ExtElement(self.flavor, {s: p.scale(c) for s, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, GradedPoly):
            return ExtElement(self.flavor,
                              {s: p * other for s, p in self.terms.items()})
        self._check(other)
        out = {}
        for s1, p1 in self.terms.items():
            for s2, p2 in other.terms.items():
                if set(s1) & set(s2):
                    continue
                sign = merge_sign(s1, s2)
                s = tuple(sorted(s1 + s2))
                prod = (p1 * p2).scale(sign)
                cur = out.get(s)
                v = prod if cur is None else cur + prod
                if v.is_zero():
                    out.pop(s, None)
                else:
                    out[s] = v
        return ExtElement(self.flavor, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, GradedPoly):
            return ExtElement(self.flavor,
                              {s: other * p for s, p in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        return (isinstance(other, ExtElement) and self.flavor == other.flavor
                and self.terms == other.terms)

    def coefficient(self, subset, pairs):
        poly = self.terms.get(tuple(subset))
        return 0 if poly is None else poly.coefficient(pairs)

    def is_integral(self):
        return all(p.is_integral() for p in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __str__(self):
        return self.render(TEXT)

    def render(self, style):
        """A monomial coefficient joins the exterior factors in one term; a
        longer one is parenthesized."""
        parts = []
        for s, p in self.sorted_terms():
            ext = [style.gen(f"{self.flavor.ext_prefix}_{n}") for n in s]
            if len(p.terms) == 1:
                (mono, c), = p.terms.items()
                parts.append(self.flavor.base.mono_text(mono, style, c, ext))
            else:
                parts.append((False, style.times.join([f"({p.render(style)})", *ext])))
        return signed_sum(parts)

    def __repr__(self):
        return f"ExtElement({self})"


class SigmaTable:
    """The sigma derivation recorded on base and exterior generators.

    Extension to arbitrary elements uses the right-action Leibniz rule
    ``sigma(x*y) = x*sigma(y) + (-1)^|y| sigma(x)*y``.  On ``c * lambda_S``
    this is ``(-1)^|S| sum_i dc/dy_i sigma(y_i) lambda_S + c sigma(lambda_S)``,
    which ``sigma`` sums straight onto packed monomials from each base
    generator's image, read once per ``S``, and a memo of ``sigma(lambda_S)``.
    The generator values are fixed when the table is built (read-only
    mappings over the table's own copies), so both caches hold for its
    whole life.
    """

    def __init__(self, flavor, on_base, on_ext=None):
        self.flavor = flavor
        self.on_base = MappingProxyType(dict(on_base))
        self.on_ext = MappingProxyType(dict(on_ext or {}))
        self._placed = {}       # (S, i) -> rows of sigma(y_i) lambda_S
        self._ext_memo = {}     # S -> sigma(lambda_S)

    def _placed_rows(self, subset, i):
        """``(merged subset, sign, weight, terms)`` for each term of
        ``sigma(y_i)`` that ``lambda_subset`` does not kill, the sign
        including the ``(-1)^|subset|`` of the Leibniz rule."""
        base = self.flavor.base
        sign = -1 if len(subset) % 2 else 1
        rows = []
        for s1, poly in self.on_base[base.name(i)].terms.items():
            if poly.table is not base and poly.table != base:
                raise GeneratorTableError("operands do not share a generator table")
            if not set(s1) & set(subset):
                rows.append((tuple(sorted(s1 + subset)), sign * merge_sign(s1, subset),
                             max(poly.terms) >> base.shift, tuple(poly.terms.items())))
        rows = self._placed[(subset, i)] = tuple(rows)
        return rows

    def _sigma_lambda(self, subset):
        """``sigma(lambda_h lambda_T) = lambda_h sigma(lambda_T)
        + (-1)^|T| sigma(lambda_h) lambda_T`` for a nonempty subset."""
        value = self._ext_memo.get(subset)
        if value is None:
            flavor = self.flavor
            head, tail = subset[0], subset[1:]
            value = (self.on_ext.get(head, ExtElement.zero(flavor))
                     * ExtElement(flavor, {tail: GradedPoly.one(flavor.base)}))
            if len(tail) % 2:
                value = -value
            if tail:
                value = ExtElement.ext_gen(flavor, head) * self._sigma_lambda(tail) + value
            self._ext_memo[subset] = value
        return value

    def sigma(self, elt, twist=False):
        """``sigma(elt)``; with ``twist``, each odd-|S| part is negated first,
        which gives ``sigma_prime``."""
        base = self.flavor.base
        shift, bound, units, exponents = base.shift, base.bound, base.units, base.exponents
        placed = self._placed
        out = {}
        for subset, coeff in elt.terms.items():
            if coeff.table is not base and coeff.table != base:
                raise GeneratorTableError("operands do not share a generator table")
            terms = coeff.terms.items()
            if twist and len(subset) % 2:
                terms = [(m, -c) for m, c in terms]
            for m, c in terms:
                for i, e in exponents(m):
                    rows = placed.get((subset, i))
                    if rows is None:
                        rows = self._placed_rows(subset, i)
                    rest = m - units[i]
                    rest_w = rest >> shift
                    k = c * e
                    for merged, sign, w, image in rows:
                        # the bound of GradedPoly products, checked per product
                        if rest_w + w > bound:
                            base.check_weight(rest_w + w)
                        acc = out.setdefault(merged, {})
                        get = acc.get
                        f = sign * k
                        for m2, c2 in image:
                            key = rest + m2
                            acc[key] = get(key, 0) + f * c2
            if self.on_ext and subset:
                for merged, poly in self._sigma_lambda(subset).terms.items():
                    w = max(poly.terms) >> shift
                    acc = out.setdefault(merged, {})
                    get = acc.get
                    for m, c in terms:
                        if (m >> shift) + w > bound:
                            base.check_weight((m >> shift) + w)
                        for m2, c2 in poly.terms.items():
                            key = m + m2
                            acc[key] = get(key, 0) + c * c2
        return ExtElement(self.flavor, {s: GradedPoly(base, part) for s, part in out.items()})

    def apply(self, elt):
        """The table as a cochain differential: ``sigma``."""
        return self.sigma(elt)

    def sigma_prime(self, elt):
        """Left-derivation variant: sign twist by the internal degree, whose
        parity is that of the exterior count (exterior degrees are odd)."""
        return self.sigma(elt, twist=True)


class DeRhamDifferential(SigmaTable):
    """Exterior derivative on the de Rham complex of a weighted polynomial
    ring; exterior generator n is the differential of the n-th base
    generator and sits one degree above it.  As a table it sends each base
    generator to its exterior partner and the exterior generators to zero,
    and it is applied as the left derivation ``sigma_prime``."""

    def __init__(self, base_table):
        flavor = ThhFlavor("de-rham", base_table, "d")
        super().__init__(flavor, {name: ExtElement.ext_gen(flavor, k + 1)
                                  for k, name in enumerate(base_table.names)})

    def apply(self, elt):
        return self.sigma_prime(elt)


def ring_map(elt, target, ext, base=None):
    """The ring map into the flavor ``target`` given by generator images:
    ``c * prod lambda_n`` goes to ``base(c) * prod ext[n]``, the product in
    the order of the exterior monomial.  ``base`` defaults to carrying the
    coefficient across to ``target.base`` unchanged."""
    out = ExtElement.zero(target)
    for subset, coeff in elt.terms.items():
        acc = ExtElement.from_base(
            target, coeff.extend_to(target.base) if base is None else base(coeff))
        for n in subset:
            acc = acc * ext[n]
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def sigma_mu_moving(basis: LazardBasis):
    """Moving-coordinate sigma: the de Rham differential of each ``x_n`` in
    the logarithm coefficients (``d(m_k) = lambda'_k``), its coefficients
    rewritten integrally on the integral basis."""
    flavor = ThhFlavor("mu-moving", basis.x_table, "lambda'")
    derham = DeRhamDifferential(basis.m_table)
    on_base = {}
    for n in range(1, basis.N + 1):
        d_x = derham.sigma(ExtElement.from_base(derham.flavor, basis.x_in_m[n]))
        terms = {}
        for (k,), poly in sorted(d_x.terms.items()):
            rewritten, integral = basis.rewrite_m_to_x(poly)
            if not integral:
                raise IntegralityError(
                    f"sigma(x_{n}) has a non-integral lambda'_{k} coefficient")
            terms[(k,)] = rewritten
        on_base[x_name(n)] = ExtElement(flavor, terms)
    return SigmaTable(flavor, on_base)


def split_sigma_table(flavor, on_base):
    """The split-coordinate table with base values ``on_base``: the exterior
    values are solved inductively from the vanishing of sigma squared, with
    exact division."""
    on_ext = {}
    for n in flavor.ext_indices():
        sx = on_base[x_name(n)]
        lead = sx.coefficient((n,), ())
        if lead == 0:
            raise IntegralityError(f"sigma(x_{n}) has vanishing e_{n} coefficient")
        # sigma(e_n) is still unknown, so it counts as 0 in sigma(sigma(x_n))
        residual = SigmaTable(flavor, on_base, on_ext).sigma(sx)
        value = residual.scale(Fraction(-1, int(lead)))
        if not value.is_integral():
            raise IntegralityError(f"sigma(e_{n}) requires a non-exact division")
        on_ext[n] = value
    return SigmaTable(flavor, on_base, on_ext)


def sigma_mu_split(basis: LazardBasis):
    """Split-coordinate sigma: ``sigma(x_n)`` is the part of the right unit
    ``eta_R(x_n)`` linear in the b's, with each ``b_k`` read as ``e_k``.  By
    the chain rule that is the moving table carried across by
    ``lambda_in_e``: the ``lambda'_k`` coefficient of ``sigma(x_n)`` in
    moving coordinates is ``dx_n/dm_k``.  ``verify`` compares it with the
    b-linear part of the full right unit."""
    return _split_with_conversion(basis, sigma_mu_moving(basis))[0]


def _split_with_conversion(basis: LazardBasis, moving):
    """The split table carried across from the moving table ``moving`` of
    ``basis``, and the conversion ``lambda_in_e(basis)`` that carries it."""
    flavor = mu_split_flavor(basis)
    conv = lambda_in_e(basis)
    return split_sigma_table(flavor, {
        x_name(n): ring_map(moving.on_base[x_name(n)], flavor, conv)
        for n in range(1, basis.N + 1)}), conv


def lambda_in_e(basis: LazardBasis):
    """Conversion of the moving exterior generators into the split flavor:
    the part of each moving coordinate ``c_k`` linear in the b's.  Modulo
    ``(b)^2`` the conjugate series is ``x - sum_i b_i x^(i+1)``, so
    ``eta_R(m_k) = m_k - sum_{i=1..k} (k-i+1) m_{k-i} b_i`` with ``m_0 = 1``,
    and only the ``i = 0`` and ``j = 0`` terms of the divisor sum survive:
    ``c_k`` is that sum alone, which sends ``lambda'_k`` to
    ``-sum_i (k-i+1) m_{k-i} e_i`` in the integral basis."""
    flavor = mu_split_flavor(basis)
    one = GradedPoly.one(basis.x_table)
    conv = {}
    for k in range(1, basis.N + 1):
        value = ExtElement(flavor, {
            (i,): (one if i == k else basis.m_in_x(k - i)).scale(i - k - 1)
            for i in range(1, k + 1)})
        if not value.is_integral():
            raise IntegralityError(f"moving coordinate {k} is not integral")
        conv[k] = value
    return conv


def sigma_bp(tbasis: TypicalBasis):
    """p-typical sigma from its defining recursion
    ``sigma(v_n) = p*lambda_n - sum_{0<i<n} (v_{n-i}^(p^i) lambda_i
    + sigma(v_{n-i}) p^i ell_i v_{n-i}^(p^i - 1))`` (Ravenel, *Complex
    Cobordism*, A2.2).  ``verify --flavor bp`` maps the table forward by
    ``v_k -> v_in_ell(k)`` and compares it with the de Rham differential of
    ``v_in_ell(n)``; nothing is rewritten from ell back into v."""
    flavor = ThhFlavor("bp", tbasis.v_table, "lambda")
    p = tbasis.p
    on_base = {}
    for n in range(1, tbasis.max_n + 1):
        acc = ExtElement.ext_gen(flavor, n).scale(p)
        for i in range(1, n):
            vpow = GradedPoly.gen(tbasis.v_table, v_name(n - i)) ** (p ** i)
            acc = acc - ExtElement.ext_gen(flavor, i, vpow)
            pl = tbasis.pn_ell(i)
            vpow1 = GradedPoly.gen(tbasis.v_table, v_name(n - i)) ** (p ** i - 1)
            acc = acc - on_base[v_name(n - i)] * (pl * vpow1)
        on_base[v_name(n)] = acc
    return SigmaTable(flavor, on_base)


# ---------------------------------------------------------------------------
# Hurewicz images
# ---------------------------------------------------------------------------

def hurewicz_mu(basis: LazardBasis, poly):
    """Image of an integral-basis polynomial in the homology ring, on the
    same alphabet with x_k standing for the moving coordinate c_k.
    Returns ``(image, integral)``."""
    out = poly.substitute(basis.hurewicz_map, basis.x_table)
    return out, out.is_integral()


def hurewicz_bp(tstruct: TypicalStructure, poly):
    """Image of a Hazewinkel-basis polynomial in the p-typical homology ring."""
    tbasis = tstruct.tbasis
    images = {v_name(n): tbasis.v_in_ell(n).substitute(
        {ell_name(k): GradedPoly.gen(tstruct.t_table, t_name(k))
         for k in range(1, tbasis.max_n + 1)}, tstruct.t_table)
        for n in range(1, tbasis.max_n + 1)}
    out = poly.substitute(images, tstruct.t_table)
    return out, out.is_integral()
