"""Outside-in tracer for the fglthh layers.

The tracer wraps chosen public functions and methods of each layer from
outside the package.  Every wrapped call is a span.  A span's self time is
its duration minus the durations of the spans it directly encloses, so the
self times of all spans add up to the traced part of a job.  Spans are
aggregated as they close (per span group: calls, self time, counters), so
memory does not grow with the number of calls.

Module-level functions are imported by name into other modules
(``cohomology`` binds ``subquotient_group``, ``verify`` binds
``staircase``), so a function is patched in every ``fglthh`` module that
binds it, and every patch is undone on exit.  Methods are patched once, on
the class that defines them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

PACKAGE = "fglthh"
LAYERS = ("cli", "fgl", "series", "algebroid", "thh", "cohomology",
          "exactalg", "verify")

# Span group -> wrapped targets, as "module:function" or "module:Class.method".
# The group's prefix before the first dot is the layer the span belongs to.
SPANS = {
    "exactalg.snf": ["exactalg:smith_normal_form_full"],
    "exactalg.mul": ["exactalg:IntMatrix.mul"],
    "exactalg.hnf": ["exactalg:row_hnf", "exactalg:reduce_mod_rows"],
    "exactalg.subquotient": ["exactalg:subquotient_group"],
    "exactalg.poly_mul": ["exactalg:GradedPoly.__mul__"],
    "exactalg.substitute": ["exactalg:GradedPoly.substitute"],
    "exactalg.solve": ["exactalg:solve_rational_linear", "exactalg:rational_rank",
                       "exactalg:solve_integer"],
    "series.compose": ["series:compose"],
    "series.inverse": ["series:comp_inverse"],
    "series.fgl": ["series:fgl_from_log", "series:fgl_formal_sum"],
    "fgl.basis": ["fgl:LazardBasis.__init__", "fgl:TypicalBasis.__init__"],
    "fgl.rewrite": ["fgl:LazardBasis.rewrite_m_to_x", "fgl:LazardBasis.integral_in_a",
                    "fgl:TypicalBasis.rewrite_ell_to_v"],
    "algebroid.maps": [
        "algebroid:MuStructure.__init__", "algebroid:MuStructure.eta_m",
        "algebroid:MuStructure.eta_x", "algebroid:MuStructure.eta_m_moving",
        "algebroid:MuStructure.c_in_xb", "algebroid:MuStructure.c_in_mb",
        "algebroid:MuStructure.psi", "algebroid:MuStructure.counit_residual",
        "algebroid:MuStructure.coassociativity_residual",
        "algebroid:MuStructure.antipode_residual",
        "algebroid:TypicalStructure.__init__", "algebroid:TypicalStructure.eta_ell",
        "algebroid:TypicalStructure.epsilon_eta_ell", "algebroid:typicality_filter"],
    "thh.table": ["thh:sigma_mu_moving", "thh:sigma_mu_split", "thh:sigma_bp",
                  "thh:lambda_in_e"],
    "thh.apply": ["thh:SigmaTable.sigma", "thh:SigmaTable.sigma_prime"],
    "thh.hurewicz": ["thh:hurewicz_mu", "thh:hurewicz_bp"],
    "cohomology.staircase": ["cohomology:staircase"],
    "cohomology.groups": ["cohomology:cohomology_groups", "cohomology:localize_table",
                          "cohomology:rational_collapse_check",
                          "cohomology:CohomologyTable.class_order",
                          "cohomology:CohomologyTable.generates"],
    "cohomology.bar": ["cohomology:bar_tor_check"],
    "cohomology.de_rham": ["cohomology:de_rham_comparison",
                           "cohomology:de_rham_cohomology"],
    "verify.oracle": ["verify:minor_gcd_invariants"],
    "verify.checks": ["verify:verify_mu", "verify:verify_bp"],
    "cli.command": ["cli:main"],
    # The two __str__ methods are called by the cli row builders; counting
    # them as rendering keeps text formatting out of the algebra layers.
    "cli.render": ["cli:emit_report", "cli:write_output", "cli:poly_json",
                   "cli:ext_json", "cli:group_json", "cli:poly_tex", "cli:ext_tex",
                   "cli:group_text", "cli:group_tex",
                   "exactalg:GradedPoly.__str__", "thh:ExtElement.__str__"],
}


def _entry_bits(matrix):
    return max((abs(x).bit_length() for row in matrix.entries for x in row),
               default=0)


def _cells(matrix):
    if hasattr(matrix, "entries"):
        return matrix.rows * matrix.cols
    return len(matrix) * (len(matrix[0]) if matrix else 0)


class Tracer:
    """Wraps the targets in ``SPANS`` while installed and aggregates spans."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.layer_self_s = defaultdict(float)
        self.layer_wall_s = defaultdict(float)
        self.counts = Counter()
        self.max_bits = 0
        self._staircases = {}      # id(table) -> (table, set of roots)
        self._stack = []           # per open span: time covered by its children
        self._layer_depth = Counter()
        self._hook_s = 0.0         # counter bookkeeping, excluded from every span
        self._patches = []         # (namespace, name, original)

    # -- counters computed at span boundaries ---------------------------------

    def _count_snf(self, args, result):
        self.counts["snf_cells"] += _cells(args[0])
        self.max_bits = max(self.max_bits, _entry_bits(result.U), _entry_bits(result.V),
                            _entry_bits(result.U_inv), _entry_bits(result.V_inv))

    def _count_mul(self, args, result):
        left, right = args
        self.counts["mul_ops"] += left.rows * left.cols * right.cols

    def _count_staircase(self, args, result):
        diff, root = args
        table = getattr(diff, "table", diff)
        # The table is kept alive so its id cannot be reused by another one.
        _, roots = self._staircases.setdefault(id(table), (table, set()))
        roots.add(root)

    def staircase_distinct(self):
        return sum(len(roots) for _, roots in self._staircases.values())

    # -- spans ------------------------------------------------------------------

    def _wrap(self, group, fn):
        layer = group.split(".", 1)[0]
        clock = time.perf_counter
        stack = self._stack
        depth = self._layer_depth
        hook = {"exactalg.snf": self._count_snf, "exactalg.mul": self._count_mul,
                "cohomology.staircase": self._count_staircase}.get(group)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = depth[layer] == 0
            depth[layer] += 1
            stack.append(0.0)
            hook_before = self._hook_s
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start - (self._hook_s - hook_before)
                children = stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1] += duration
                own = duration - children
                self.calls[group] += 1
                self.self_s[group] += own
                self.layer_self_s[layer] += own
                if outermost:
                    self.layer_wall_s[layer] += duration
            if hook is not None:
                t0 = clock()
                hook(args, result)
                self._hook_s += clock() - t0
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        for group, targets in self.spans.items():
            for target in targets:
                modname, qualname = target.split(":")
                module = sys.modules[f"{PACKAGE}.{modname}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(group, original))
                    continue
                original = getattr(module, qualname)
                wrapped = self._wrap(group, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped):
        if not callable(original) or hasattr(original, "__wrapped_by_tracer__"):
            raise TypeError(f"cannot wrap {owner!r}.{name}")
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextmanager
    def installed(self):
        """Patch on entry, restore on exit, also when patching fails midway."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    def summary(self):
        """Plain-data aggregate of all closed spans."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layer_self_s": {layer: self.layer_self_s.get(layer, 0.0) for layer in LAYERS},
            "layer_wall_s": {layer: self.layer_wall_s.get(layer, 0.0) for layer in LAYERS},
            "counts": {
                "snf_cells": self.counts["snf_cells"],
                "snf_transform_bits": self.max_bits,
                "mul_ops": self.counts["mul_ops"],
                "staircase_distinct": self.staircase_distinct(),
            },
        }
