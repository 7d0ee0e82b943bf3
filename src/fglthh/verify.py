"""Internal consistency suite.

Every check here is a self-contained identity of the computed objects
(round trips, Hopf axioms, derivation laws, rank and normal-form
cross-checks); nothing depends on externally tabulated values.  The
command-line ``verify`` subcommand runs these and reports one line per
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .exactalg import (GenTable, GradedPoly, Substitution, invariant_factors,
                       row_hnf, IntegralityError, DegreeGuardError)
from .series import (TruncatedSeries, fgl_from_log, fgl_formal_sum,
                     series_from_coefficient_table)
from .fgl import LazardBasis, TypicalBasis, m_name, x_name, ell_name, v_name
from .algebroid import (MuStructure, TypicalStructure, typicality_filter,
                        b_name, c_name)
from .thh import (DeRhamDifferential, ExtElement, sigma_mu_moving, sigma_bp,
                  _split_with_conversion, mu_split_flavor, ring_map, hurewicz_mu,
                  hurewicz_bp)
# staircase is unused here; perfbench's tests assert the tracer wraps this binding
from .cohomology import (staircase, basis_element, cohomology_groups,
                         rational_collapse_check, bar_tor_check,
                         de_rham_comparison)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def minor_gcd_invariants(matrix):
    """Invariant factors recomputed as successive quotients of gcds of
    k-by-k minors: the independent oracle for the Smith form."""
    entries = matrix.entries
    n, m = matrix.rows, matrix.cols
    out = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                # |det| is the product of the k pivots of an echelon basis
                # of the rows; with fewer pivots the minor vanishes
                hnf, pivots = row_hnf([[entries[i][j] for j in cols] for i in rows])
                if len(pivots) == k:
                    g = math.gcd(g, math.prod(row[c] for row, c in zip(hnf, pivots)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _check(results, name, ok, detail=""):
    results.append(CheckResult(name, bool(ok), detail))


def _sigma_squared(results, sig, table, d_max, label):
    bad = None
    count = 0
    for root in range(0, d_max + 1, 2):
        for q, bq in enumerate(table.stairs[root].bases):
            if root + q > d_max:
                continue
            for subset, mono in bq:
                count += 1
                z = sig.sigma(sig.sigma(basis_element(sig, subset, mono)))
                if not z.is_zero():
                    bad = (root + q, subset, mono)
                    break
    _check(results, f"{label}: sigma^2 = 0 through degree {d_max}",
           bad is None, f"{count} basis elements" if bad is None else f"fails at {bad}")


def _snf_minor_check(results, table, d_max, label):
    checked = 0
    bad = None
    for root in range(0, d_max + 1, 2):
        for mat in table.stairs[root].diffs:
            if mat.rows == 0 or mat.cols == 0 or mat.rows > 8 or mat.cols > 8:
                continue
            checked += 1
            got = invariant_factors(mat)
            ora = minor_gcd_invariants(mat)
            if tuple(d for d in got if d) != ora:
                bad = (root, got, ora)
    _check(results, f"{label}: Smith form matches gcd-of-minors oracle (<=8x8)",
           bad is None, f"{checked} matrices" if bad is None else str(bad))


def _linear_split_part(structure: MuStructure, flavor, poly):
    """The part of ``poly`` (over the integral and split alphabets) linear in
    the b's, with each ``b_k`` read as the exterior generator ``e_k``."""
    table = structure.xb_table
    b_index = {table.index(b_name(k)): k for k in range(1, structure.N + 1)}
    parts = {}
    for mono, c in poly.terms.items():
        b_part = [(i, e) for i, e in table.exponents(mono) if i in b_index]
        if len(b_part) == 1 and b_part[0][1] == 1:
            i = b_part[0][0]
            parts.setdefault((b_index[i],), {})[mono - table.units[i]] = c
    return ExtElement(flavor, {idx: GradedPoly(table, part).extend_to(structure.basis.x_table)
                               for idx, part in parts.items()})


def split_sigma_by_definition(structure: MuStructure):
    """The split sigma on the integral generators and the exterior
    conversion as they are defined: the b-linear parts of the full right
    unit ``eta_R(x_n)`` and of the moving coordinate ``c_n``, each ``b_k``
    read as ``e_k``.  Both are checked integral on the way."""
    flavor = mu_split_flavor(structure.basis)
    ns = range(1, structure.N + 1)
    return ({x_name(n): _linear_split_part(structure, flavor, structure.eta_x(n)) for n in ns},
            {n: _linear_split_part(structure, flavor, structure.c_in_xb(n)) for n in ns})


def verify_mu(flavor_tag, N, d_max):
    """All internal contracts of the complex-cobordism side."""
    if d_max > 2 * N + 1:
        raise DegreeGuardError(f"degree {d_max} exceeds the truncation (weight {N})")
    results = []
    basis = LazardBasis(N)
    structure = MuStructure(basis)

    ok = all(basis.rewrite_m_to_x(basis.x_in_m[n])
             == (GradedPoly.gen(basis.x_table, x_name(n)), True)
             for n in range(1, N + 1))
    _check(results, "integral basis round trip", ok)

    small = min(N, 5)
    ok = all(basis.integral_in_a(n) for n in range(1, small + 1))
    _check(results, "generators lie in the integer coefficient span", ok)

    # counit on both presentations
    ok = True
    for n in range(1, min(N, 6) + 1):
        eta = structure.eta_m(n)
        eps = eta.substitute(
            {b_name(k): GradedPoly.zero(basis.m_table) for k in range(1, N + 1)},
            basis.m_table)
        if eps != GradedPoly.gen(basis.m_table, m_name(n)):
            ok = False
        etam = structure.eta_m_moving(n)
        epsm = etam.substitute(
            {c_name(k): GradedPoly.zero(basis.m_table) for k in range(1, N + 1)},
            basis.m_table)
        if epsm != GradedPoly.gen(basis.m_table, m_name(n)):
            ok = False
    _check(results, "counit composed with right unit is the identity", ok)

    # ring map on all monomial pairs of total weight <= 5, on tables whose
    # bound holds weight 5 when the truncation is smaller
    m_table = GenTable(basis.m_table.gens, max(N, 5))
    mb_table = GenTable(structure.mb_table.gens, max(N, 5))
    eta = Substitution(m_table, {m_name(k): structure.eta_m(k).extend_to(mb_table)
                                 for k in range(1, N + 1)}, mb_table)
    eta_of = {}

    def eta_mono(mono):
        # the right unit on a monomial, substituted once however many pairs read it
        if mono not in eta_of:
            eta_of[mono] = GradedPoly(m_table, {mono: 1}).substitute(eta, mb_table)
        return eta_of[mono]

    ok = True
    for w1 in range(1, 5):
        for w2 in range(1, 6 - w1):
            for mono1 in m_table.monomials_of_weight(w1):
                for mono2 in m_table.monomials_of_weight(w2):
                    # the product of two monomials is the sum of their packed ints
                    if eta_mono(mono1 + mono2) != eta_mono(mono1) * eta_mono(mono2):
                        ok = False
    _check(results, "right unit is a ring map (all pairs, weight <= 5)", ok)

    _check(results, f"coproduct counit axiom (n <= {small})",
           all(structure.counit_residual(n).is_zero() for n in range(1, small + 1)))
    _check(results, f"coproduct coassociativity (n <= {small})",
           all(structure.coassociativity_residual(n).is_zero()
               for n in range(1, small + 1)))
    _check(results, f"antipode identity (n <= {small})",
           all(structure.antipode_residual(n).is_zero() for n in range(1, small + 1)))

    # conjugation is an involution
    ok, top = True, min(N, 6)
    for n in range(1, top + 1):
        chi2 = structure.chi[n].substitute(
            {b_name(k): structure.chi[k] for k in range(1, N + 1)},
            structure.b_table)
        if chi2 != GradedPoly.gen(structure.b_table, b_name(n)):
            ok = False
    _check(results, f"conjugation is an involution (n <= {top})", ok)

    # the moving coordinates are solved from the right unit, so check them
    # against their definition: x +_F c_1 x^2 +_F ... +_F c_n x^(n+1) is the
    # conjugate series x + sum chi(b_k) x^(k+1)
    mb = structure.mb_table
    law = fgl_from_log([GradedPoly.gen(mb, m_name(k)) for k in range(1, top + 1)], top + 1)
    terms = [TruncatedSeries.variable(mb, top + 1)] + [
        TruncatedSeries.monomial(mb, top + 1, structure.c_in_mb(k), k + 1)
        for k in range(1, top + 1)]
    fbar = series_from_coefficient_table(
        mb, top + 1, {k: structure.chi[k].extend_to(mb) for k in range(1, top + 1)})
    _check(results, f"moving and absolute right units agree (n <= {top})",
           fgl_formal_sum(law, terms) == fbar)

    # sigma tables; construction already enforces integral rewrites
    try:
        mov = sigma_mu_moving(basis)
        _check(results, "moving sigma rewrites are integral", True)
    except IntegralityError as err:
        _check(results, "moving sigma rewrites are integral", False, str(err))
        return results
    # the divisions are the conversion's: its m_(k-i) denominators must cancel
    try:
        spl, fast_conv = _split_with_conversion(basis, mov)
        _check(results, "split sigma solves with exact divisions", True)
    except IntegralityError as err:
        _check(results, "split sigma solves with exact divisions", False, str(err))
        return results

    # the split table is the moving one carried across by the first-order
    # conversion; the definition is the b-linear part of the full right unit
    label = "moving and split sigma agree under the exterior conversion"
    try:
        on_base, conv = split_sigma_by_definition(structure)
    except IntegralityError as err:
        _check(results, label, False, str(err))
        return results
    ok = (all(ring_map(mov.on_base[x_name(n)], spl.flavor, conv) == on_base[x_name(n)]
              for n in range(1, min(N, 4) + 1))
          and spl.on_base == on_base
          and fast_conv == conv)
    _check(results, label, ok)

    ok = all(spl.on_ext[n].is_zero() for n in (1, 2) if n <= N)
    _check(results, "split exterior sigma vanishes in the first two slots", ok)

    sig, other = (mov, spl) if flavor_tag == "mu-moving" else (spl, mov)
    table = cohomology_groups(sig, d_max)
    _sigma_squared(results, sig, table, d_max, flavor_tag)
    _snf_minor_check(results, table, min(d_max, 10), flavor_tag)

    rep = rational_collapse_check(table, basis.m_table)
    _check(results, "rational collapse: free ranks are (1, 0, 0, ...)",
           rep.ranks_ok, str(rep.ranks))
    _check(results, "rational injectivity in the logarithmic basis",
           all(rep.injective_weights.values()), str(rep.injective_weights))

    other_table = cohomology_groups(other, table.d_max)
    ok = all(table.groups[d] == other_table.groups[d]
             for d in range(table.d_max + 1))
    _check(results, "moving and split cohomology tables are isomorphic", ok)

    rep_bar = bar_tor_check(None, 8, 3)
    _check(results, "bar homology matches the exterior algebra (weight <= 8, q <= 3)",
           rep_bar.all_ok)

    cmp_range = min(d_max, 10)
    mov_table = table if flavor_tag == "mu-moving" else other_table
    cmp = de_rham_comparison(basis, mov, mov_table, cmp_range)
    _check(results, f"de Rham inclusions are chain maps (degree <= {cmp_range})",
           cmp.chain_map_residuals_zero)

    ok, top = True, min(N, 4)
    for n in range(1, top + 1):
        _, integral = hurewicz_mu(basis, GradedPoly.gen(basis.x_table, x_name(n)))
        ok = ok and integral
    _check(results, f"homology images of the generators are integral (n <= {top})", ok)
    return results


def sigma_bp_disagreement(tbasis, sig):
    """The first ``v_n`` on which ``sig`` leaves the rational route, or None.
    Over Q, ``v_k -> v_in_ell(k)`` is a ring isomorphism, so ``sigma(v_n)``
    is carried forward, each lambda_k kept, and compared with the de Rham
    differential ``d(ell_k) = lambda_k`` of ``v_in_ell(n)``."""
    derham = DeRhamDifferential(tbasis.ell_table)
    ns = range(1, tbasis.max_n + 1)
    images = {v_name(k): tbasis.v_in_ell(k) for k in ns}
    lam = {k: ExtElement.ext_gen(derham.flavor, k) for k in ns}
    for n in ns:
        forward = ring_map(sig.on_base[v_name(n)], derham.flavor, lam,
                           lambda c: c.substitute(images, tbasis.ell_table))
        if forward != derham.sigma(ExtElement.from_base(derham.flavor, images[v_name(n)])):
            return v_name(n)
    return None


def verify_bp(p, max_n, d_max):
    """All internal contracts of the p-typical side at one prime."""
    results = []
    tbasis = TypicalBasis(p, max_n)
    tstruct = TypicalStructure(tbasis)

    _check(results, f"Hazewinkel recursion residual vanishes (n <= {max_n})",
           all(tbasis.recursion_residual(n).is_zero() for n in range(1, max_n + 1)))
    try:
        ok = all(tbasis.pn_ell(n).is_integral() for n in range(1, max_n + 1))
    except IntegralityError:
        ok = False
    _check(results, "p^n ell_n lies in the Hazewinkel span", ok)

    images = {v_name(k): tbasis.v_in_ell(k) for k in range(1, max_n + 1)}
    _check(results, "Hazewinkel basis round trip",
           all(tbasis.ell_in_v[n].substitute(images, tbasis.ell_table)
               == GradedPoly.gen(tbasis.ell_table, ell_name(n)) for n in range(1, max_n + 1)))

    _check(results, "counit composed with the p-typical right unit is the identity",
           all(tstruct.epsilon_eta_ell(n)
               == GradedPoly.gen(tbasis.ell_table, ell_name(n))
               for n in range(1, max_n + 1)))

    ok = True
    for k in range(1, max_n + 1):
        if typicality_filter(tstruct, p ** k - 1) != tstruct.eta_ell(k):
            ok = False
    _check(results, "p-typicalization filter matches the p-typical right unit", ok)

    label = "recursive and rational sigma routes agree"
    try:
        sig = sigma_bp(tbasis)
    except IntegralityError as err:
        _check(results, label, False, str(err))
        return results
    bad = sigma_bp_disagreement(tbasis, sig)
    _check(results, label, not bad,
           f"recursive and rational sigma disagree on {bad}" if bad else "")
    if bad:
        return results

    table = cohomology_groups(sig, d_max)
    _sigma_squared(results, sig, table, d_max, f"bp(p={p})")
    _snf_minor_check(results, table, d_max, f"bp(p={p})")

    rep = rational_collapse_check(table, tbasis.ell_table)
    _check(results, "rational collapse: free ranks are (1, 0, 0, ...)",
           rep.ranks_ok, str(rep.ranks))
    _check(results, "rational injectivity in the logarithmic basis",
           all(rep.injective_weights.values()))

    rep_bar = bar_tor_check(p, 8, 3)
    _check(results, "bar homology matches the exterior algebra (weight <= 8, q <= 3)",
           rep_bar.all_ok)

    ok = True
    for n in range(1, min(max_n, 4) + 1):
        _, integral = hurewicz_bp(tstruct, GradedPoly.gen(tbasis.v_table, v_name(n)))
        ok = ok and integral
    _check(results, "homology images of the generators are p-locally integral", ok)
    return results
