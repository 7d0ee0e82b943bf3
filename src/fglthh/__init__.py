"""Exact formal-group-law Hopf algebroids, sigma tables on the homotopy of
topological Hochschild homology, and their torsion cohomology."""

from .exactalg import (GenTable, GradedPoly, IntMatrix, FinAbGroup,
                       smith_normal_form_full, invariant_factors,
                       solve_rational_linear, subquotient_group)
from .series import TruncatedSeries, FGLaw, compose, comp_inverse, fgl_from_log, fgl_formal_sum
from .fgl import LazardBasis, TypicalBasis
from .algebroid import MuStructure, TypicalStructure
from .thh import (ExtElement, SigmaTable, sigma_mu_moving, sigma_mu_split,
                  sigma_bp, lambda_in_e, hurewicz_mu, hurewicz_bp)
from .cohomology import (DegreeComplex, cohomology_groups,
                         rational_collapse_check, bar_tor_check,
                         de_rham_cohomology, de_rham_comparison)

__version__ = "0.1.0"

__all__ = [
    "GenTable", "GradedPoly", "IntMatrix", "FinAbGroup",
    "smith_normal_form_full", "invariant_factors",
    "solve_rational_linear", "subquotient_group",
    "TruncatedSeries", "FGLaw", "compose", "comp_inverse", "fgl_from_log",
    "fgl_formal_sum",
    "LazardBasis", "TypicalBasis",
    "MuStructure", "TypicalStructure",
    "ExtElement", "SigmaTable", "sigma_mu_moving", "sigma_mu_split",
    "sigma_bp", "lambda_in_e", "hurewicz_mu", "hurewicz_bp",
    "DegreeComplex", "cohomology_groups", "rational_collapse_check",
    "bar_tor_check", "de_rham_cohomology", "de_rham_comparison",
]
