"""In-memory span tracer that wraps the package's public calls from outside.

A wrapper is installed on every binding a caller looks up: the attribute of
the defining module, every ``fsichannel`` module that imported the name
(``fsi`` imports ``transform_fields`` from ``geomap``, for instance), or the
class for methods.  ``restore`` puts every original back.  Nothing under
``src/`` knows about the tracer; the untraced benchmark never creates one.
"""

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "count")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.phase = phase
        self.count = None

    def as_row(self):
        return [self.name, self.start, self.end, self.parent, self.phase,
                self.count]


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends."""

    def __init__(self):
        self.spans = []
        self.patches = []  # (owner, attribute, original)
        self._open = []
        self._phase = None

    def _enter(self, name):
        parent = self._open[-1] if self._open else None
        span = Span(name, time.perf_counter(), parent, self._phase)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def phase(self, name):
        """Top-level span of one benchmark phase; tags the spans inside."""
        self._phase = name
        span = self._enter("phase." + name)
        try:
            yield span
        finally:
            self._exit(span)
            self._phase = None

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = count(args, result)
                return result
            finally:
                self._exit(span)
        return traced

    def install(self, targets):
        """Wrap each (owner, attribute, span name, count) target.

        ``count(args, result)`` may attach an integer to the span.  Module
        functions are patched in every ``fsichannel`` module that binds the
        same object, under whatever name it uses.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fsichannel" or n.startswith("fsichannel.")]
        for owner, attr, name, count in targets:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(owner, attr)
                bindings = [(m, key) for m in modules
                            for key, val in vars(m).items() if val is original]
            wrapper = self._wrap(name, original, count)
            for where, key in bindings:
                self.patches.append((where, key, original))
                setattr(where, key, wrapper)

    def restore(self):
        for where, key, original in reversed(self.patches):
            setattr(where, key, original)

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def layer_targets():
    """The public calls into each layer, named ``<module>.<operation>``."""
    from fsichannel import (
        assembly, elasticity, fluid, fsi, geomap, linsolve, mesh, sensitivity,
        spaces,
    )

    def factor_nnz(args, _):
        lu = args[0].lu
        return int(lu.L.nnz + lu.U.nnz)

    def report_iterations(_, result):
        return int(result.report.iterations)

    return [
        (mesh, "build_channel_mesh", "mesh.build", None),
        (mesh, "refine_uniform", "mesh.build", None),
        (spaces, "make_space", "spaces.make_space", None),
        (spaces.Space, "grads_at", "spaces.grads_at", None),
        (spaces.FEFunction, "values_at", "spaces.values_at", None),
        (spaces.FEFunction, "gradients_at", "spaces.gradients_at", None),
        (assembly, "assemble_viscous", "assembly.viscous", None),
        (assembly, "assemble_convection", "assembly.convection", None),
        (assembly, "assemble_reaction", "assembly.reaction", None),
        (assembly, "assemble_pressure_blocks", "assembly.pressure", None),
        (assembly, "transformed_oseen_system", "assembly.oseen_system", None),
        (assembly, "assemble_scalar_stiffness", "assembly.scalar_stiffness",
         None),
        (assembly, "assemble_elasticity", "assembly.elasticity", None),
        (linsolve.FrozenFactorization, "__init__", "linsolve.factorize",
         factor_nnz),
        (linsolve.FrozenFactorization, "solve", "linsolve.lu_solve", None),
        (geomap.HarmonicExtender, "extend", "geomap.extend", None),
        (geomap, "transform_fields", "geomap.transform_fields", None),
        (geomap, "transform_derivatives", "geomap.transform_derivatives",
         None),
        (fluid.PicardSolver, "solve", "fluid.picard",
         lambda _, result: int(result[1].iterations)),
        (fluid.PicardSolver, "residual", "fluid.residual", None),
        (elasticity.ElasticitySolver, "__init__", "elasticity.setup", None),
        (elasticity.ElasticitySolver, "solve", "elasticity.solve", None),
        (fsi.FSISolver, "__init__", "fsi.setup", None),
        (fsi.FSISolver, "solve", "fsi.solve", report_iterations),
        (fsi.TractionEvaluator, "evaluate", "fsi.traction", None),
        (sensitivity.SensitivitySolver, "__init__", "sensitivity.setup", None),
        (sensitivity.SensitivitySolver, "solve", "sensitivity.solve",
         report_iterations),
        (sensitivity, "coefficient_rhs", "sensitivity.coefficient_rhs", None),
    ]


# per-layer metrics of the form <span name>.<calls|s|self_s>
_SPAN_METRICS = {
    "mesh.build": ("s",),
    "spaces.make_space": ("s",),
    "spaces.grads_at": ("calls", "s"),
    "spaces.values_at": ("s",),
    "spaces.gradients_at": ("s",),
    "assembly.viscous": ("calls", "s", "self_s"),
    "assembly.convection": ("calls", "s", "self_s"),
    "assembly.reaction": ("calls", "s", "self_s"),
    "assembly.pressure": ("calls", "s", "self_s"),
    "assembly.oseen_system": ("calls", "s"),
    "assembly.scalar_stiffness": ("s",),
    "assembly.elasticity": ("s",),
    "linsolve.factorize": ("calls", "s"),
    "linsolve.lu_solve": ("calls", "s"),
    "geomap.extend": ("calls", "s"),
    "geomap.transform_fields": ("calls", "s"),
    "geomap.transform_derivatives": ("calls", "s"),
    "fluid.picard": ("calls", "s", "self_s"),
    "fluid.residual": ("calls", "s"),
    "elasticity.setup": ("s",),
    "elasticity.solve": ("calls", "s"),
    "fsi.setup": ("s",),
    "fsi.traction": ("calls", "s"),
    "fsi.solve": ("self_s",),
    "sensitivity.setup": ("s",),
    "sensitivity.coefficient_rhs": ("calls", "s"),
    "sensitivity.solve": ("self_s",),
}


def layer_metrics(tracer):
    """Per-layer values of one traced workload pass, keyed by metric name.

    Iteration counts are those of the phase they belong to: outer and Picard
    steps of the coupled solve, iterations of the derivative.  Per-step
    times and ratios use every call in the pass.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    total = defaultdict(int)  # span name -> summed count
    in_phase = defaultdict(int)  # (span name, phase) -> summed count
    for span, own in zip(tracer.spans, tracer.self_times()):
        calls[span.name] += 1
        incl[span.name] += span.end - span.start
        self_s[span.name] += own
        if span.count is not None:
            total[span.name] += span.count
            in_phase[span.name, span.phase] += span.count
    kinds = {"calls": calls, "s": incl, "self_s": self_s}
    out = {f"{name}.{kind}": kinds[kind][name]
           for name, wanted in _SPAN_METRICS.items() for kind in wanted}

    outer = in_phase["fsi.solve", "solve"]
    picard = in_phase["fluid.picard", "solve"]
    out["linsolve.factor_nnz"] = total["linsolve.factorize"]
    out["assembly.convection.per_picard_step"] = (
        calls["assembly.convection"] / max(total["fluid.picard"], 1))
    out["fluid.picard_steps"] = picard
    out["fluid.picard_step_ms"] = (
        1e3 * incl["fluid.picard"] / max(total["fluid.picard"], 1))
    out["fsi.outer_iterations"] = outer
    out["fsi.picard_per_outer"] = picard / max(outer, 1)
    out["sensitivity.iterations"] = in_phase["sensitivity.solve", "derivative"]
    out["sensitivity.iteration_ms"] = (
        1e3 * incl["sensitivity.solve"] / max(total["sensitivity.solve"], 1))
    out["sensitivity.taylor.solves"] = sum(
        1 for s in tracer.spans if s.name == "fsi.solve" and s.phase == "taylor")
    out["sensitivity.taylor.s"] = incl["phase.taylor"]
    return out
