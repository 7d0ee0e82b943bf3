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

from .exactalg import (GenTable, GradedPoly, FinAbGroup, IntMatrix,
                       IntegralityError, DegreeGuardError, ResourceGuardError,
                       subquotient_group, rational_rank)
from .thh import ExtElement, SigmaTable, ThhFlavor
from .algebroid import CoordFlavor


class SigmaDifferential:
    """Cochain differential given by a sigma table."""

    def __init__(self, table: SigmaTable):
        self.table = table
        self.flavor = table.flavor

    def apply(self, elt):
        return self.table.sigma(elt)


class DeRhamDifferential:
    """Exterior derivative on the de Rham complex of a weighted polynomial
    ring; exterior generator n is the differential of the n-th base
    generator and sits one degree above it."""

    def __init__(self, base_table, truncation_weight=None, tag="de-rham"):
        names = base_table.names
        self.flavor = ThhFlavor(
            tag, base_table, "d",
            tuple((k + 1, base_table.weight_of(name)) for k, name in enumerate(names)),
            truncation_weight=truncation_weight)
        self._gen_names = {k + 1: name for k, name in enumerate(names)}

    def apply(self, elt):
        out = ExtElement.zero(self.flavor)
        for subset, coeff in elt.terms.items():
            lam = ExtElement(self.flavor, {subset: GradedPoly.one(self.flavor.base)})
            for n, gname in self._gen_names.items():
                if n in subset:
                    continue
                part = coeff.partial(gname)
                if not part.is_zero():
                    out = out + ExtElement(self.flavor, {(n,): part}) * lam
        return out


def _basis_at(diff, degree, q):
    """Basis (exterior subset, base monomial) of one bidegree."""
    flavor = diff.flavor
    indices = [n for n in flavor.ext_indices() if flavor.ext_degree(n) <= degree]
    out = []

    def subsets(start, count, budget, acc):
        if count == 0:
            rest = degree - sum(flavor.ext_degree(n) for n in acc)
            if rest >= 0 and rest % 2 == 0:
                for mono in flavor.base.monomials_of_weight(rest // 2):
                    out.append((tuple(acc), mono))
            return
        for k in range(start, len(indices)):
            n = indices[k]
            d = flavor.ext_degree(n)
            if d > budget:
                break
            acc.append(n)
            subsets(k + 1, count - 1, budget - d, acc)
            acc.pop()

    subsets(0, q, degree, [])
    out.sort(key=lambda sm: (sm[0], flavor.base.mono_key(sm[1])))
    return tuple(out)


@dataclass(frozen=True)
class DegreeComplex:
    """One staircase complex: position q holds internal degree root+q and
    exterior count q; ``degree`` is the internal degree whose torsion the
    staircase computes."""

    flavor_tag: str
    degree: int
    root: int
    bases: tuple      # per q: tuple of (subset, mono)
    diffs: tuple      # per q: IntMatrix from position q to q+1


def _element_vector(basis, elt):
    index = {bm: k for k, bm in enumerate(basis)}
    vec = [0] * len(basis)
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


def staircase(diff, root):
    """Assemble the staircase complex rooted at an even internal degree."""
    flavor = diff.flavor
    if root < 0 or root % 2:
        raise ValueError("staircase roots are nonnegative even degrees")
    if flavor.truncation_weight is not None and root > 2 * flavor.truncation_weight:
        raise DegreeGuardError(
            f"degree {root} exceeds the truncation (weight {flavor.truncation_weight})")
    ext_degrees = sorted(flavor.ext_degree(n) for n in flavor.ext_indices())
    bases = []
    q = 0
    while True:
        min_ext = sum(ext_degrees[:q]) if q <= len(ext_degrees) else None
        if min_ext is None or min_ext > root + q:
            break
        bases.append(_basis_at(diff, root + q, q))
        q += 1
    while len(bases) > 1 and not bases[-1]:
        bases.pop()

    diffs = []
    for q in range(len(bases)):
        dom = bases[q]
        cod = bases[q + 1] if q + 1 < len(bases) else ()
        rows = [[0] * len(dom) for _ in range(len(cod))]
        index = {bm: k for k, bm in enumerate(cod)}
        for j, (subset, mono) in enumerate(dom):
            image = diff.apply(basis_element(diff, subset, mono))
            for s, poly in image.terms.items():
                for m, c in poly.terms.items():
                    if not isinstance(c, int):
                        raise IntegralityError("non-integral differential entry")
                    key = (s, m)
                    if key not in index:
                        raise ValueError("differential leaves the staircase")
                    rows[index[key]][j] += c
        diffs.append(IntMatrix.from_rows(rows, cols=len(dom)))
    for q in range(len(diffs) - 1):
        if diffs[q + 1].rows and diffs[q].cols:
            comp = diffs[q + 1].mul(diffs[q])
            if not comp.is_zero():
                raise IntegralityError("consecutive differentials do not compose to zero")
    top = root + len(bases) - 1
    return DegreeComplex(flavor.tag, top, root, tuple(bases), tuple(diffs))


def assemble_complex(diff, d):
    """The staircase computing the torsion classes of internal degree ``d``:
    rooted at ``d-1`` for odd ``d``, at ``d-2`` for positive even ``d``."""
    if d < 0:
        raise ValueError("negative internal degree")
    root = 0 if d == 0 else (d - 1 if d % 2 else d - 2)
    return staircase(diff, root)


@dataclass
class CohomologyTable:
    """Cohomology groups per internal degree with the finer per-exterior-count
    breakdown, generator lifts, the presentations used to verify stated
    generators by membership and order, and the staircase complexes
    (root -> ``DegreeComplex``) they were computed from, so that checks on
    the same differential reuse them instead of assembling them again."""

    tag: str
    d_max: int
    groups: dict
    by_q: dict
    generators: dict
    presentations: dict
    stairs: dict

    def class_order(self, d, q, elt):
        pres, basis = self.presentations[(d, q)]
        return pres.class_order(_element_vector(basis, elt))

    def generates(self, d, q, elts):
        pres, basis = self.presentations[(d, q)]
        return pres.generates([_element_vector(basis, e) for e in elts])


def cohomology_groups(diff, d_max):
    """Cohomology of ``(ring, differential)`` in internal degrees up to
    ``d_max``, direct-summed over exterior counts.

    Each staircase rooted at an even degree up to ``d_max`` is assembled
    once and kept on the table as ``stairs``.
    """
    flavor = diff.flavor
    if flavor.truncation_weight is not None and d_max > 2 * flavor.truncation_weight:
        raise DegreeGuardError(
            f"d_max {d_max} exceeds the truncation (weight {flavor.truncation_weight})")
    stairs = {root: staircase(diff, root) for root in range(0, d_max + 1, 2)}

    groups, by_q, generators, presentations = {}, {}, {}, {}
    for d in range(d_max + 1):
        total = FinAbGroup.trivial()
        gens = []
        for q in range(d + 1):
            root = d - q
            if root < 0 or root % 2:
                continue
            stair = stairs[root]
            if q >= len(stair.bases) or not stair.bases[q]:
                continue
            basis = stair.bases[q]
            # staircase emits one map per position (the top one is 0 x n)
            d_in = stair.diffs[q - 1] if q else IntMatrix.zero(len(basis), 0)
            pres = subquotient_group(d_in, stair.diffs[q])
            by_q[(d, q)] = pres.group
            presentations[(d, q)] = (pres, basis)
            total = total.direct_sum(pres.group)
            for order, vec in pres.generator_vectors:
                elt = ExtElement.zero(flavor)
                for k, c in enumerate(vec):
                    if c:
                        subset, mono = basis[k]
                        elt = elt + ExtElement(
                            flavor, {subset: GradedPoly(flavor.base, {mono: c})})
                gens.append((order, elt))
        groups[d] = total
        generators[d] = tuple(gens)
    return CohomologyTable(flavor.tag, d_max, groups, by_q, generators,
                           presentations, stairs)


def localize_table(table, p):
    """p-primary view of a cohomology table: groups and generator orders are
    replaced by their p-parts (free ranks are unchanged)."""
    groups = {d: g.localize(p) for d, g in table.groups.items()}
    by_q = {k: g.localize(p) for k, g in table.by_q.items()}
    gens = {}
    for d, pairs in table.generators.items():
        kept = []
        for order, elt in pairs:
            if order == 0:
                kept.append((0, elt))
                continue
            e = 0
            while order % p == 0:
                order //= p
                e += 1
            if e:
                kept.append((p ** e, elt))
        gens[d] = tuple(kept)
    return CohomologyTable(table.tag, table.d_max, groups, by_q, gens,
                           table.presentations, table.stairs)


def bp_degree_range(p):
    return 2 * p * p + 4 * p - 6


def bp_cohomology_table(sigma_table):
    """Full p-typical cohomology table through the supported degree range,
    with p-local invariant factors."""
    p = sigma_table.flavor.prime
    if p not in (2, 3, 5):
        raise ResourceGuardError(
            f"prime {p} outside the supported desk-scale range {{2, 3, 5}}")
    d_max = bp_degree_range(p)
    table = cohomology_groups(SigmaDifferential(sigma_table), d_max)
    return localize_table(table, p)


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
    polynomial ring.  Generator-independent: runs entirely in the
    logarithmic alphabet."""
    monos = log_table.monomials_of_weight(weight)
    rows_index = {}
    rows = []
    cols = []
    for mono in monos:
        col = {}
        for k, (gi, e) in enumerate(mono):
            rest = mono[:k] + ((gi, e - 1),) * (e > 1) + mono[k + 1:]
            key = (gi, rest)
            if key not in rows_index:
                rows_index[key] = len(rows)
                rows.append(key)
            col[rows_index[key]] = col.get(rows_index[key], 0) + e
        cols.append(col)
    matrix = [[cols[j].get(i, 0) for j in range(len(cols))]
              for i in range(len(rows))]
    return rational_rank(matrix) == len(monos)


def rational_collapse_check(table, log_table, d_max=None):
    """Free ranks must be (1, 0, 0, ...) and the logarithmic-basis
    derivation must act injectively on every positive weight in range."""
    if d_max is None:
        d_max = table.d_max
    if d_max > table.d_max:
        raise DegreeGuardError("requested range exceeds the computed table")
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
    flavor_tag: str
    table: dict        # (q, weight) -> FinAbGroup
    expected: dict     # (q, weight) -> exterior-algebra rank
    all_ok: bool


def bar_tor_check(coord_flavor: CoordFlavor, weight_max, q_max):
    """Homology of the normalized bar complex of the augmented coordinate
    algebra; the ranks must match the exterior algebra on one class per
    generator and all torsion must vanish."""
    if q_max > 3 or weight_max > 8:
        raise ResourceGuardError("bar homology is supported for q <= 3, weight <= 8")
    weights = []
    n = 1
    while coord_flavor.coord_weight(n) <= weight_max:
        weights.append(coord_flavor.coord_weight(n))
        n += 1
    table = coord_flavor.coord_table(max(n - 1, 1)) if weights else GenTable(
        [(coord_flavor.coord_name(1), coord_flavor.coord_weight(1))])

    def positive_monos(w):
        return [m for m in table.monomials_of_weight(w) if m]

    bases = {}
    for q in range(q_max + 2):
        for w in range(weight_max + 1):
            if q == 0:
                bases[(q, w)] = [()] if w == 0 else []
                continue
            out = []

            def rec(left, acc):
                if len(acc) == q:
                    if left == 0:
                        out.append(tuple(acc))
                    return
                remaining = q - len(acc)
                for part in range(1, left - (remaining - 1) + 1):
                    for mono in positive_monos(part):
                        acc.append(mono)
                        rec(left - part, acc)
                        acc.pop()

            rec(w, [])
            out.sort(key=lambda tup: tuple(table.mono_key(m) for m in tup))
            bases[(q, w)] = out

    def differential(q, w):
        dom = bases[(q, w)]
        cod = bases[(q - 1, w)] if q >= 1 else []
        index = {t: k for k, t in enumerate(cod)}
        rows = [[0] * len(dom) for _ in range(len(cod))]
        from .exactalg import mono_mul
        for j, tup in enumerate(dom):
            for i in range(1, q):
                merged = tup[:i - 1] + (mono_mul(tup[i - 1], tup[i]),) + tup[i + 1:]
                sign = -1 if i % 2 else 1
                rows[index[merged]][j] += sign
        return IntMatrix.from_rows(rows, cols=len(dom))

    gen_weights = weights

    def expected_rank(q, w):
        if q == 0:
            return 1 if w == 0 else 0
        count = 0

        def rec(start, left, depth):
            nonlocal count
            if depth == 0:
                if left == 0:
                    count += 1
                return
            for k in range(start, len(gen_weights)):
                if gen_weights[k] > left:
                    break
                rec(k + 1, left - gen_weights[k], depth - 1)

        rec(0, w, q)
        return count

    results, expected, ok = {}, {}, True
    for q in range(q_max + 1):
        for w in range(weight_max + 1):
            d_out = differential(q, w) if q >= 1 else IntMatrix.zero(
                0, len(bases[(0, w)]))
            d_in = differential(q + 1, w)
            pres = subquotient_group(d_in, d_out)
            results[(q, w)] = pres.group
            expected[(q, w)] = expected_rank(q, w)
            if (pres.group.invariant_factors
                    or pres.group.free_rank != expected[(q, w)]):
                ok = False
    return BarTorReport(coord_flavor.tag, results, expected, ok)


# ---------------------------------------------------------------------------
# de Rham complexes and the two cochain-level inclusions
# ---------------------------------------------------------------------------

def de_rham_cohomology(gens, d_max, truncated=False):
    """Cohomology of the algebraic de Rham complex of a weighted polynomial
    ring (a Koszul-shaped complex with one exterior generator per ring
    generator)."""
    table = gens if isinstance(gens, GenTable) else GenTable(gens)
    trunc = max((w for _, w in table.gens), default=0) if truncated else None
    diff = DeRhamDifferential(table, truncation_weight=trunc)
    return cohomology_groups(diff, d_max)


@dataclass
class DeRhamComparison:
    forms_base: CohomologyTable
    thh: CohomologyTable
    forms_coords: CohomologyTable
    chain_map_residuals_zero: bool
    induced: dict


def _include_forms_to_thh(sigma_table, source_flavor, elt):
    """dx_n -> left-derivation value of sigma on x_n, base carried across."""
    out = ExtElement.zero(sigma_table.flavor)
    base = sigma_table.flavor.base
    for subset, coeff in elt.terms.items():
        acc = ExtElement.from_base(sigma_table.flavor, coeff.extend_to(base))
        for n in subset:
            name = source_flavor.base.name(n - 1)
            acc = acc * sigma_table.on_base[name]
        out = out + acc
    return out


def _include_thh_to_forms(structure, derham_c, elt):
    """Base through the homology image, exterior generators to coordinate
    differentials; fails if an image is not integral."""
    from .thh import hurewicz_mu
    flavor = derham_c.flavor
    out = ExtElement.zero(flavor)
    for subset, coeff in elt.terms.items():
        image, integral = hurewicz_mu(structure, coeff)
        if not integral:
            raise IntegralityError("homology image is not integral")
        out = out + ExtElement(flavor, {subset: image})
    return out


def de_rham_comparison(structure, sigma_moving, d_max):
    """de Rham cohomology of the base and coordinate rings bracketing the
    sigma cohomology, with both inclusions verified as chain maps and the
    induced maps on cohomology reported."""
    basis = structure.basis
    if d_max > 2 * basis.N:
        raise DegreeGuardError("comparison range exceeds the truncation")
    derham_l = DeRhamDifferential(basis.x_table, truncation_weight=basis.N)
    derham_c = DeRhamDifferential(structure.c_table, truncation_weight=basis.N)
    sig = SigmaDifferential(sigma_moving)

    forms_l = cohomology_groups(derham_l, d_max)
    thh_table = cohomology_groups(sig, d_max)
    forms_c = cohomology_groups(derham_c, d_max)

    residual_ok = True
    for root in range(0, d_max + 1, 2):
        stair = forms_l.stairs[root]
        for q, basis_q in enumerate(stair.bases):
            for subset, mono in basis_q:
                if root + q > d_max:
                    continue
                form = basis_element(derham_l, subset, mono)
                left = _include_forms_to_thh(sigma_moving, derham_l.flavor,
                                             derham_l.apply(form))
                right = sigma_moving.sigma_prime(
                    _include_forms_to_thh(sigma_moving, derham_l.flavor, form))
                if left != right:
                    residual_ok = False
        stair_t = thh_table.stairs[root]
        for q, basis_q in enumerate(stair_t.bases):
            for subset, mono in basis_q:
                if root + q > d_max:
                    continue
                z = basis_element(sig, subset, mono)
                left = _include_thh_to_forms(structure, derham_c,
                                             sigma_moving.sigma_prime(z))
                right = derham_c.apply(_include_thh_to_forms(structure, derham_c, z))
                if left != right:
                    residual_ok = False

    induced = {}
    for d in range(d_max + 1):
        entries = []
        for order, gen in forms_l.generators[d]:
            subset_counts = {len(s) for s in gen.terms}
            q = subset_counts.pop() if subset_counts else 0
            image = _include_forms_to_thh(sigma_moving, derham_l.flavor, gen)
            if (d, q) in thh_table.presentations:
                target_order = thh_table.class_order(d, q, image)
            else:
                target_order = 1 if image.is_zero() else None
            entries.append(("forms->thh", order, target_order))
        for order, gen in thh_table.generators[d]:
            subset_counts = {len(s) for s in gen.terms}
            q = subset_counts.pop() if subset_counts else 0
            image = _include_thh_to_forms(structure, derham_c, gen)
            if (d, q) in forms_c.presentations:
                target_order = forms_c.class_order(d, q, image)
            else:
                target_order = 1 if image.is_zero() else None
            entries.append(("thh->forms", order, target_order))
        induced[d] = tuple(entries)

    return DeRhamComparison(forms_l, thh_table, forms_c, residual_ok, induced)
