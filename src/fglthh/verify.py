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

from .exactalg import (GradedPoly, det_int, invariant_factors,
                       IntegralityError, DegreeGuardError)
from .fgl import LazardBasis, TypicalBasis, m_name, x_name, ell_name, v_name
from .algebroid import (MuStructure, TypicalStructure, CoordFlavor,
                        typicality_filter, b_name, c_name)
from .thh import (sigma_mu_moving, sigma_mu_split, sigma_bp,
                  lambda_in_e, convert_moving_to_split, hurewicz_mu,
                  hurewicz_bp)
# staircase is unused here; perfbench's tests assert the tracer wraps this binding
from .cohomology import (SigmaDifferential, staircase, basis_element,
                         cohomology_groups, rational_collapse_check,
                         bar_tor_check, de_rham_comparison)


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
                sub = [[entries[i][j] for j in cols] for i in rows]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def _check(results, name, ok, detail=""):
    results.append(CheckResult(name, bool(ok), detail))


def _sigma_squared(results, sig, table, d_max, label):
    diff = SigmaDifferential(sig)
    bad = None
    count = 0
    for root in range(0, d_max + 1, 2):
        for q, bq in enumerate(table.stairs[root].bases):
            if root + q > d_max:
                continue
            for subset, mono in bq:
                count += 1
                z = sig.sigma(sig.sigma(basis_element(diff, subset, mono)))
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

    # ring map on all monomial pairs of total weight <= 5
    images = {m_name(k): structure.eta_m(k) for k in range(1, N + 1)}
    ok = True
    for w1 in range(1, 5):
        for w2 in range(1, 6 - w1):
            for mono1 in basis.m_table.monomials_of_weight(w1):
                p1 = GradedPoly(basis.m_table, {mono1: 1})
                for mono2 in basis.m_table.monomials_of_weight(w2):
                    p2 = GradedPoly(basis.m_table, {mono2: 1})
                    lhs = (p1 * p2).substitute(images, structure.mb_table)
                    rhs = (p1.substitute(images, structure.mb_table)
                           * p2.substitute(images, structure.mb_table))
                    if lhs != rhs:
                        ok = False
    _check(results, "right unit is a ring map (all pairs, weight <= 5)", ok)

    small = min(N, 5)
    _check(results, "coproduct counit axiom (n <= 5)",
           all(structure.counit_residual(n).is_zero() for n in range(1, small + 1)))
    _check(results, "coproduct coassociativity (n <= 5)",
           all(structure.coassociativity_residual(n).is_zero()
               for n in range(1, small + 1)))
    _check(results, "antipode identity (n <= 5)",
           all(structure.antipode_residual(n).is_zero() for n in range(1, small + 1)))

    # conjugation is an involution
    ok = True
    for n in range(1, min(N, 6) + 1):
        chi2 = structure.chi[n].substitute(
            {b_name(k): structure.chi[k] for k in range(1, N + 1)},
            structure.b_table)
        if chi2 != GradedPoly.gen(structure.b_table, b_name(n)):
            ok = False
    _check(results, "conjugation is an involution (n <= 6)", ok)

    # moving/absolute consistency
    ok = True
    c_images = {c_name(k): structure.c_in_mb(k) for k in range(1, N + 1)}
    for n in range(1, min(N, 6) + 1):
        moved = structure.eta_m_moving(n).substitute(c_images, structure.mb_table)
        if moved != structure.eta_m(n):
            ok = False
    _check(results, "moving and absolute right units agree (n <= 6)", ok)

    # sigma tables; construction already enforces integral rewrites
    try:
        mov = sigma_mu_moving(basis)
        _check(results, "moving sigma rewrites are integral", True)
    except IntegralityError as err:
        _check(results, "moving sigma rewrites are integral", False, str(err))
        return results
    try:
        spl = sigma_mu_split(structure)
        _check(results, "split sigma solves with exact divisions", True)
    except IntegralityError as err:
        _check(results, "split sigma solves with exact divisions", False, str(err))
        return results

    conv = lambda_in_e(structure)
    ok = all(convert_moving_to_split(conv, mov.on_base[x_name(n)])
             == spl.on_base[x_name(n)] for n in range(1, min(N, 4) + 1))
    _check(results, "moving and split sigma agree under the exterior conversion",
           ok)

    ok = all(spl.on_ext[n].is_zero() for n in (1, 2) if n <= N)
    _check(results, "split exterior sigma vanishes in the first two slots", ok)

    sig, other = (mov, spl) if flavor_tag == "mu-moving" else (spl, mov)
    table = cohomology_groups(SigmaDifferential(sig), min(d_max, 2 * N))
    _sigma_squared(results, sig, table, d_max, flavor_tag)
    _snf_minor_check(results, table, min(d_max, 10), flavor_tag)

    rep = rational_collapse_check(table, basis.m_table)
    _check(results, "rational collapse: free ranks are (1, 0, 0, ...)",
           rep.ranks_ok, str(rep.ranks))
    _check(results, "rational injectivity in the logarithmic basis",
           all(rep.injective_weights.values()), str(rep.injective_weights))

    other_table = cohomology_groups(SigmaDifferential(other), table.d_max)
    ok = all(table.groups[d] == other_table.groups[d]
             for d in range(table.d_max + 1))
    _check(results, "moving and split cohomology tables are isomorphic", ok)

    rep_bar = bar_tor_check(CoordFlavor.moving() if flavor_tag == "mu-moving"
                            else CoordFlavor.absolute(), 8, 3)
    _check(results, "bar homology matches the exterior algebra (weight <= 8, q <= 3)",
           rep_bar.all_ok)

    cmp_range = min(d_max, 10)
    cmp = de_rham_comparison(structure, mov, cmp_range)
    _check(results, f"de Rham inclusions are chain maps (degree <= {cmp_range})",
           cmp.chain_map_residuals_zero)

    ok = True
    for n in range(1, min(N, 4) + 1):
        _, integral = hurewicz_mu(structure, GradedPoly.gen(basis.x_table, x_name(n)))
        ok = ok and integral
    _check(results, "homology images of the generators are integral (n <= 4)", ok)
    return results


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

    ok = True
    for n in range(1, max_n + 1):
        back, _ = tbasis.rewrite_ell_to_v(tbasis.v_in_ell(n))
        if back != GradedPoly.gen(tbasis.v_table, v_name(n)):
            ok = False
    _check(results, "Hazewinkel basis round trip", ok)

    _check(results, "counit composed with the p-typical right unit is the identity",
           all(tstruct.epsilon_eta_ell(n)
               == GradedPoly.gen(tbasis.ell_table, ell_name(n))
               for n in range(1, max_n + 1)))

    ok = True
    for k in range(1, max_n + 1):
        if typicality_filter(None, tstruct, p ** k - 1) != tstruct.eta_ell(k):
            ok = False
    _check(results, "p-typicalization filter matches the p-typical right unit", ok)

    try:
        sig = sigma_bp(tbasis)
        _check(results, "recursive and rational sigma routes agree", True)
    except IntegralityError as err:
        _check(results, "recursive and rational sigma routes agree", False, str(err))
        return results

    table = cohomology_groups(SigmaDifferential(sig), d_max)
    _sigma_squared(results, sig, table, d_max, f"bp(p={p})")
    _snf_minor_check(results, table, d_max, f"bp(p={p})")

    rep = rational_collapse_check(table, tbasis.ell_table)
    _check(results, "rational collapse: free ranks are (1, 0, 0, ...)",
           rep.ranks_ok, str(rep.ranks))
    _check(results, "rational injectivity in the logarithmic basis",
           all(rep.injective_weights.values()))

    rep_bar = bar_tor_check(CoordFlavor.typical(p), 8, 3)
    _check(results, "bar homology matches the exterior algebra (weight <= 8, q <= 3)",
           rep_bar.all_ok)

    ok = True
    for n in range(1, min(max_n, 4) + 1):
        _, integral = hurewicz_bp(tstruct, GradedPoly.gen(tbasis.v_table, v_name(n)))
        ok = ok and integral
    _check(results, "homology images of the generators are p-locally integral", ok)
    return results
