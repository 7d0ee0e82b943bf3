"""Integer cochain complexes carried by the sigma operator, and their
cohomology.

The homotopy ring splits as a direct sum of short "staircase" complexes:
the one rooted at an even internal degree ``r`` has the exterior-count-q
elements of internal degree ``r + q`` in position ``q``.  Cohomology in a
given internal degree is the direct sum over exterior counts of the
kernel-mod-image of the staircases passing through it.  The same engine
computes algebraic de Rham cohomology (the differential is the exterior
derivative instead) and the normalized bar homology used as an
independent check on the exterior-algebra form of the coalgebra Tor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from .exactalg import (GenTable, GradedPoly, FinAbGroup, IntMatrix,
                       ComplexViolationError, IntegralityError, DegreeGuardError,
                       ResourceGuardError, subquotient_group, group_from_diagonals,
                       invariant_factors, rational_rank, p_part)
from . import exactalg
from .thh import DeRhamDifferential, ExtElement, hurewicz_mu, ring_map

# A cochain differential is any object with a ``flavor`` and an ``apply``
# method: a ``SigmaTable``, of which ``DeRhamDifferential`` is one.


def _basis_at(diff, k, q):
    """Basis (exterior subset, base monomial) at position q of the staircase
    rooted at 2k.  Exterior generator n has degree 2w_n + 1, so every
    element there has total weight k."""
    base = diff.flavor.base
    weights = [w for _, w in base.gens]
    # subsets come in lexicographic order, each with its monomials in
    # canonical order; a subset heavier than k leaves a negative weight,
    # which has no monomials
    return tuple((subset, mono)
                 for subset in combinations(diff.flavor.ext_indices(), q)
                 for mono in base.monomials_of_weight(k - sum(weights[n - 1] for n in subset)))


@dataclass(frozen=True)
class DegreeComplex:
    """One staircase complex: position q holds internal degree root+q and
    exterior count q."""

    root: int
    bases: tuple      # per q: tuple of (subset, mono)
    diffs: tuple      # per q: IntMatrix from position q to q+1

    def maps(self, q):
        """``(d_in, d_out)`` at position q; nothing comes into position 0."""
        d_in = self.diffs[q - 1] if q else IntMatrix.zero(len(self.bases[0]), 0)
        return d_in, self.diffs[q]


def _element_vector(index, elt):
    """Coordinates of ``elt`` in a basis given as ``{(subset, mono): position}``."""
    vec = [0] * len(index)
    for subset, poly in elt.terms.items():
        for mono, c in poly.terms.items():
            if not isinstance(c, int):
                raise IntegralityError("non-integral differential entry")
            key = (subset, mono)
            if key not in index:
                raise ValueError(f"element leaves the expected basis at {key}")
            vec[index[key]] += c
    return vec


def basis_element(diff, subset, mono):
    return ExtElement(diff.flavor, {subset: GradedPoly(diff.flavor.base, {mono: 1})})


def _map_matrix(diff, dom, cod):
    """Matrix of ``diff`` from the span of basis ``dom`` to that of ``cod``."""
    index = {bm: k for k, bm in enumerate(cod)}
    cols = [_element_vector(index, diff.apply(basis_element(diff, subset, mono)))
            for subset, mono in dom]
    # ``_element_vector`` has refused every non-integral entry already
    rows = tuple(zip(*cols)) if cols else ((),) * len(cod)
    return IntMatrix(len(cod), len(dom), rows)


def staircase(diff, root):
    """Assemble the staircase complex rooted at an even internal degree."""
    flavor = diff.flavor
    if root < 0 or root % 2:
        raise ValueError("staircase roots are nonnegative even degrees")
    if root > 2 * flavor.base.bound:
        raise DegreeGuardError(
            f"degree {root} exceeds the truncation (weight {flavor.base.bound})")
    # position q is there while the q lightest generators fit in weight k
    k = root // 2
    lightest = accumulate(sorted(w for _, w in flavor.base.gens), initial=0)
    bases = [_basis_at(diff, k, q) for q, least in enumerate(lightest) if least <= k]
    while len(bases) > 1 and not bases[-1]:
        bases.pop()

    diffs = [_map_matrix(diff, dom, bases[q + 1] if q + 1 < len(bases) else ())
             for q, dom in enumerate(bases)]
    _require_complex(zip(diffs[1:], diffs))
    return DegreeComplex(root, tuple(bases), tuple(diffs))


def _require_complex(pairs):
    """Raise unless ``later · earlier`` is zero for each pair of consecutive maps."""
    for later, earlier in pairs:
        if not later.mul(earlier).is_zero():
            raise ComplexViolationError("consecutive differentials do not compose to zero")


@dataclass
class CohomologyTable:
    """Cohomology groups per internal degree with the finer per-exterior-count
    breakdown, generator lifts, and the staircase complexes
    (root -> ``DegreeComplex``) they were computed from, whose maps answer
    class orders and generation and which checks on the same differential
    reuse instead of assembling them again."""

    d_max: int
    groups: dict
    by_q: dict
    generators: dict
    stairs: dict

    def class_orders(self, d, q, elts):
        stair = self.stairs[d - q]
        index = {bm: k for k, bm in enumerate(stair.bases[q])}
        return exactalg.class_orders(*stair.maps(q), [_element_vector(index, e) for e in elts])

    def class_order(self, d, q, elt):
        return self.class_orders(d, q, (elt,))[0]

    def generates(self, d, q, elts):
        stair = self.stairs[d - q]
        index = {bm: k for k, bm in enumerate(stair.bases[q])}
        return exactalg.generates(*stair.maps(q),
                                  [_element_vector(index, e) for e in elts])


def cohomology_groups(diff, d_max):
    """Cohomology of ``(ring, differential)`` in internal degrees up to
    ``d_max``, direct-summed over exterior counts.

    Each staircase rooted at an even degree up to ``d_max`` is assembled
    once and kept on the table as ``stairs``.  Through ``2b + 1``, for the
    base table's bound b, no group needs a base weight above b.
    """
    flavor = diff.flavor
    if d_max > 2 * flavor.base.bound + 1:
        raise DegreeGuardError(
            f"d_max {d_max} exceeds the truncation (weight {flavor.base.bound})")
    stairs = {root: staircase(diff, root) for root in range(0, d_max + 1, 2)}

    groups, by_q, generators = {}, {}, {}
    for d in range(d_max + 1):
        total = FinAbGroup.trivial()
        gens = []
        for q in range(d % 2, d + 1, 2):
            stair = stairs[d - q]
            if q >= len(stair.bases) or not stair.bases[q]:
                continue
            basis = stair.bases[q]
            sub = subquotient_group(*stair.maps(q))
            by_q[(d, q)] = sub.group
            total = total.direct_sum(sub.group)
            for order, vec in sub.generator_vectors:
                terms = {}
                for k, c in enumerate(vec):
                    if c:
                        subset, mono = basis[k]
                        terms.setdefault(subset, {})[mono] = c
                gens.append((order, ExtElement(flavor, {
                    s: GradedPoly(flavor.base, part) for s, part in terms.items()})))
        groups[d] = total
        generators[d] = tuple(gens)
    return CohomologyTable(d_max, groups, by_q, generators, stairs)


def localize_table(table, p):
    """p-primary view of a cohomology table: groups and generator orders are
    replaced by their p-parts (free ranks are unchanged)."""
    groups = {d: g.localize(p) for d, g in table.groups.items()}
    by_q = {k: g.localize(p) for k, g in table.by_q.items()}
    gens = {}
    for d, pairs in table.generators.items():
        # a free generator keeps order 0; one of order prime to p drops out
        local = [(p_part(order, p) if order else 0, elt) for order, elt in pairs]
        gens[d] = tuple((order, elt) for order, elt in local if order != 1)
    return CohomologyTable(table.d_max, groups, by_q, gens, table.stairs)


SMALL_PRIMES = (2, 3, 5)


def bp_degree_range(p):
    return 2 * p * p + 4 * p - 6


# ---------------------------------------------------------------------------
# rational collapse
# ---------------------------------------------------------------------------

@dataclass
class CollapseReport:
    ranks: dict
    ranks_ok: bool
    injective_weights: dict
    all_ok: bool


def log_basis_injectivity(log_table, weight):
    """Rational injectivity of the derivation sending each logarithmic
    generator to its exterior partner, on the weight-``weight`` part of the
    polynomial ring.  That derivation is the first map of the de Rham
    staircase rooted at ``2 * weight`` over the logarithmic alphabet, so the
    check is generator-independent.  Only that first map is built."""
    diff = DeRhamDifferential(log_table)
    d0 = _map_matrix(diff, _basis_at(diff, weight, 0), _basis_at(diff, weight, 1))
    return rational_rank(d0.entries) == d0.cols


def rational_collapse_check(table, log_table):
    """Free ranks must be (1, 0, 0, ...) and the logarithmic-basis
    derivation must act injectively on every positive weight in range."""
    d_max = table.d_max
    ranks = {d: table.groups[d].free_rank for d in range(d_max + 1)}
    ranks_ok = ranks[0] == 1 and all(ranks[d] == 0 for d in range(1, d_max + 1))
    inj = {}
    for w in range(1, d_max // 2 + 1):
        inj[w] = log_basis_injectivity(log_table, w)
    all_ok = ranks_ok and all(inj.values())
    return CollapseReport(ranks, ranks_ok, inj, all_ok)


# ---------------------------------------------------------------------------
# bar construction cross-check
# ---------------------------------------------------------------------------

@dataclass
class BarTorReport:
    table: dict        # (q, weight) -> FinAbGroup
    expected: dict     # (q, weight) -> exterior-algebra rank
    all_ok: bool


def bar_tor_check(prime, weight_max, q_max):
    """Homology of the normalized bar complex of a coordinate algebra,
    which the bar check reads only through its generator weights: one in
    each weight n with ``prime=None`` (both MU coalgebras), p^n - 1 at a
    prime p.  The ranks must match the exterior algebra on one class per
    generator and all torsion must vanish."""
    if q_max > 3 or weight_max > 8:
        raise ResourceGuardError("bar homology is supported for q <= 3, weight <= 8")
    # p^n - 1 >= n, so no generator past n = weight_max is in range
    weights = [w for w in (n if prime is None else prime ** n - 1
                           for n in range(1, weight_max + 1)) if w <= weight_max]
    table = GenTable([(f"y_{k}", w) for k, w in enumerate(weights, 1)], weight_max)

    # position q, weight w: the q-tuples of positive monomials of total
    # weight w, each a tuple at position q-1 extended by one monomial
    bases = {(0, w): [()] if w == 0 else [] for w in range(weight_max + 1)}
    for q in range(1, q_max + 2):
        for w in range(weight_max + 1):
            bases[(q, w)] = sorted(
                (tup + (mono,) for part in range(1, w + 1)
                 for tup in bases[(q - 1, w - part)]
                 for mono in table.monomials_of_weight(part)),
                key=lambda tup: tuple(table.mono_key(m) for m in tup))

    def differential(q, w):
        dom = bases[(q, w)]
        cod = bases[(q - 1, w)]
        index = {t: k for k, t in enumerate(cod)}
        rows = [[0] * len(dom) for _ in range(len(cod))]
        for j, tup in enumerate(dom):
            for i in range(1, q):
                merged = tup[:i - 1] + (tup[i - 1] + tup[i],) + tup[i + 1:]
                sign = -1 if i % 2 else 1
                rows[index[merged]][j] += sign
        return IntMatrix(len(cod), len(dom), tuple(map(tuple, rows)))

    results, expected, ok = {}, {}, True
    for w in range(weight_max + 1):
        # the maps out of positions 1 .. q_max + 1
        maps = [differential(q, w) for q in range(1, q_max + 2)]
        _require_complex(zip(maps, maps[1:]))
        # the Smith diagonal of the map out of position q, read on both sides
        diagonals = [(), *map(invariant_factors, maps)]
        for q in range(q_max + 1):
            group = group_from_diagonals(len(bases[(q, w)]), diagonals[q + 1],
                                         diagonals[q])
            results[(q, w)] = group
            expected[(q, w)] = sum(1 for c in combinations(weights, q) if sum(c) == w)
            if group.invariant_factors or group.free_rank != expected[(q, w)]:
                ok = False
    return BarTorReport(results, expected, ok)


# ---------------------------------------------------------------------------
# de Rham complexes and the two cochain-level inclusions
# ---------------------------------------------------------------------------

def de_rham_cohomology(gens, d_max):
    """Cohomology of the algebraic de Rham complex of a weighted polynomial
    ring (a Koszul-shaped complex with one exterior generator per ring
    generator), over ``(name, weight)`` generators and through ``d_max``."""
    return cohomology_groups(DeRhamDifferential(GenTable(gens, d_max // 2)), d_max)


@dataclass
class DeRhamComparison:
    forms: CohomologyTable
    chain_map_residuals_zero: bool
    induced: dict


def _commutes(stair, d_max, source, d_source, d_target, include):
    """Whether ``include`` carries ``d_source`` to ``d_target`` on every
    basis element of ``stair`` through internal degree ``d_max``."""
    ok = True
    for q, basis_q in enumerate(stair.bases):
        if stair.root + q > d_max:
            continue
        for subset, mono in basis_q:
            elt = basis_element(source, subset, mono)
            if include(d_source(elt)) != d_target(include(elt)):
                ok = False
    return ok


def _induced_orders(label, d, generators, include, target):
    """``(label, order, order of the image class)`` for each generator in
    degree ``d``; where ``target`` has no group at ``(d, q)``, the image
    order is 1 for a zero image and None otherwise.  The images with the
    same exterior count ``q`` are answered together."""
    qs, images = [], {}
    for _, gen in generators:
        subset_counts = {len(s) for s in gen.terms}
        qs.append(subset_counts.pop() if subset_counts else 0)
        images.setdefault(qs[-1], []).append(include(gen))
    orders = {q: iter(target.class_orders(d, q, at_q) if (d, q) in target.by_q
                      else [1 if image.is_zero() else None for image in at_q])
              for q, at_q in images.items()}
    return tuple((label, order, next(orders[q])) for (order, _), q in zip(generators, qs))


def de_rham_comparison(basis, sigma_moving, thh_table, d_max):
    """de Rham cohomology bracketing the sigma cohomology, with both
    inclusions verified as chain maps and the induced maps on cohomology
    reported.  The base ring Z[x_n] and the homology ring Z[c_n] have one
    generator in each weight, so one de Rham table over the integral
    alphabet serves both ends, x_k standing for c_k in the second.

    ``thh_table`` is the cohomology table of ``sigma_moving`` through at
    least ``d_max``; the caller builds it once and may read it elsewhere.
    """
    if thh_table.d_max < d_max:
        raise ValueError("the sigma table stops below the comparison range")
    derham = DeRhamDifferential(basis.x_table)
    forms = cohomology_groups(derham, d_max)

    # dx_n goes to sigma(x_n), the base carried across
    sigma_x = {n: sigma_moving.on_base[name]
               for n, name in enumerate(derham.flavor.base.names, 1)}

    def to_thh(elt):
        return ring_map(elt, sigma_moving.flavor, sigma_x)

    # the base goes through the homology image, lambda'_n to dx_n
    dx = {n: ExtElement.ext_gen(derham.flavor, n) for n in derham.flavor.ext_indices()}

    # the chain-map check and the induced orders meet the same coefficients
    images = {}

    def integral_image(coeff):
        key = frozenset(coeff.terms.items())
        image = images.get(key)
        if image is None:
            image, integral = hurewicz_mu(basis, coeff)
            if not integral:
                raise IntegralityError("homology image is not integral")
            images[key] = image
        return image

    def to_forms(elt):
        return ring_map(elt, derham.flavor, dx, integral_image)

    residual_ok = True
    for root in range(0, d_max + 1, 2):
        residual_ok &= _commutes(forms.stairs[root], d_max, derham,
                                 derham.apply, sigma_moving.sigma_prime, to_thh)
        residual_ok &= _commutes(thh_table.stairs[root], d_max, sigma_moving,
                                 sigma_moving.sigma_prime, derham.apply, to_forms)

    induced = {d: (_induced_orders("forms->thh", d, forms.generators[d], to_thh, thh_table)
                   + _induced_orders("thh->forms", d, thh_table.generators[d], to_forms,
                                     forms))
               for d in range(d_max + 1)}

    return DeRhamComparison(forms, residual_ok, induced)
