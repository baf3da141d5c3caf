"""Spans around calls into heatctl, recorded from outside the package.

The benchmark wraps each public function it measures in every module
namespace that holds a reference to it (``heatctl.control.gram_matrix`` as
well as ``heatctl.geometry.gram_matrix``), plus ``numpy.linalg.eigh`` and
``eigvalsh``.  A wrapper records a span only while the tracer is enabled, so
the same process can alternate traced and untraced runs of one job.  Spans
stay in memory until :meth:`Tracer.write` at the end of the run.
"""

import json
import sys
import time
from collections import defaultdict

RESOLVABLE_FLOOR = 1e-15

# (metric name, module, attribute); several functions may share one metric
TARGETS = (
    ("spectral.build_basis", "heatctl.spectral", "build_basis"),
    ("spectral.galerkin_schrodinger", "heatctl.spectral", "galerkin_schrodinger"),
    ("geometry.gram_matrix", "heatctl.geometry", "gram_matrix"),
    ("geometry.scan", "heatctl.geometry", "thickness_estimate"),
    ("geometry.scan", "heatctl.geometry", "beta_complement"),
    ("uncertainty.spectral_ineq_constant", "heatctl.uncertainty", "spectral_ineq_constant"),
    ("uncertainty.fit_uncertainty_form", "heatctl.uncertainty", "fit_uncertainty_form"),
    ("control.empirical_cost", "heatctl.control", "empirical_cost"),
    ("control.worst_initial_state", "heatctl.control", "worst_initial_state"),
    ("control.min_norm_control", "heatctl.control", "min_norm_control"),
    ("control.gramian_condition", "heatctl.control", "gramian_condition"),
    ("control.duhamel_solve", "heatctl.control", "duhamel_solve"),
    ("control.active_passive_synthesize", "heatctl.control", "active_passive_synthesize"),
    ("bounds.cost_bound", "heatctl.bounds", "cost_bound"),
    ("exhaustion.semigroup_difference", "heatctl.exhaustion", "semigroup_difference"),
    ("exhaustion.nested_control_family", "heatctl.exhaustion", "nested_control_family"),
    ("exhaustion.cross_gram", "heatctl.exhaustion", "cross_gram"),
    ("cli.main", "heatctl.cli", "main"),
    ("runio.write_outputs", "heatctl.runio", "write_outputs"),
    ("linalg.eig", "numpy.linalg", "eigh"),
    ("linalg.eig", "numpy.linalg", "eigvalsh"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


class Tracer:
    """Collects spans, per-name call counts and self times, and counters."""

    def __init__(self):
        self.enabled = False
        self.job = -1
        self.stack = []             # open frames: [name, start, child_time, span index]
        self.spans = []             # (job, name, start, end, parent span index)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._problems = set()

    def start_job(self, job):
        self.job = job
        self._problems = set()

    def end_job(self):
        self.counters["control.problems"] += len(self._problems)
        self._problems = set()

    def _before(self, name, args):
        """Counters read from the arguments; runs outside every span.

        Returns whether the call is a decomposition made inside a control call.
        """
        if name == "geometry.gram_matrix":
            basis, S = args[0], args[1]
            boxes = 0 if S.kind in ("full", "empty") else len(S.boxes_in_region(basis.domain.box()))
            self.counters["geometry.gram_boxes"] += boxes
            self.counters["geometry.gram_entries"] += boxes * basis.n ** 2
        elif name.startswith("control."):
            problem = args[0]
            self.counters["control.attempts"] += 1
            self._problems.add((id(problem.op), id(problem.control_gram), problem.T))
        elif name == "linalg.eig" and any(f[0].startswith("control.") for f in self.stack):
            self.counters["linalg.eig_in_control"] += 1
            return True
        return False

    def _after(self, name, result):
        if name == "spectral.build_basis":
            self.counters["spectral.modes"] += result.n
        elif name == "uncertainty.spectral_ineq_constant":
            self.counters["uncertainty.constants"] += 1
            self.counters["uncertainty.resolvable"] += result > RESOLVABLE_FLOOR

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_hook = time.perf_counter()
            in_control = tracer._before(name, args)
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [name, time.perf_counter(), 0.0, len(tracer.spans)]
            if parent is not None:
                parent[2] += frame[1] - t_hook
            tracer.stack.append(frame)
            tracer.spans.append(None)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ConditioningError" and name.startswith("control."):
                    tracer.counters["control.refusals"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                duration = end - frame[1]
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[2]
                if in_control:
                    tracer.counters["linalg.eig_in_control_s"] += duration - frame[2]
                tracer.spans[frame[3]] = (tracer.job, name, frame[1], end,
                                          parent[3] if parent else None)
                if parent is not None:
                    parent[2] += duration
            t_hook = time.perf_counter()
            tracer._after(name, result)
            if parent is not None:
                parent[2] += time.perf_counter() - t_hook
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to each target in heatctl and numpy.linalg."""
        for name, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:  # never imported, so never called
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            setattr(module, attr, wrapped)
            for mod in list(sys.modules.values()):
                if mod is None or not mod.__name__.startswith("heatctl"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["job", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
