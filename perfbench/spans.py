"""Span and count wrappers installed around the package's public functions.

Nothing here edits the package: `install` rebinds each traced function in
every `sthirring.*` namespace that holds it (so names imported with
`from .x import f` are traced too), and patches traced methods on their
class.  Spans and counts stay in memory in a `Tracer`; the job writes them
out when it ends.

Per traced name the tracer keeps
  calls    number of calls (for a generator: number of generators made)
  yielded  items produced (generators only)
  s        inclusive wall time, counted once for recursive calls
  self_s   inclusive time minus the time covered by traced callees
A few outline functions also keep one span record per call
(name, start, end, parent span) so a run can be read as a call tree.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, attribute or Class.method, traced name, is a generator, outline)
TARGETS = [
    ("cli", "main", "cli.main", False, True),
    ("perturbation", "expand", "perturbation.expand", False, True),
    ("perturbation", "vertex_term", "perturbation.vertex_term", False, False),
    ("terms", "TermSum.add", "terms.TermSum.add", False, False),
    ("terms", "canonicalize", "terms.canonicalize", False, False),
    ("deformation", "term_census", "deformation.term_census", False, False),
    ("deformation", "partial_matchings", "deformation.partial_matchings", True, False),
    ("deformation", "gamma_Q", "deformation.gamma_Q", False, True),
    ("deformation", "bullet_cross", "deformation.bullet_cross", False, False),
    ("deformation", "two_point", "deformation.two_point", False, True),
    ("deformation", "extract_counterterms", "deformation.extract_counterterms", False, True),
    ("deformation", "renormalized_residual", "deformation.renormalized_residual", False, True),
    ("diagrams", "DeformedSum.add", "diagrams.DeformedSum.add", False, False),
    ("diagrams", "canonicalize", "diagrams.canonicalize", False, False),
    ("diagrams", "graph_counts", "diagrams.graph_counts", False, False),
    ("power_counting", "classify", "power_counting.classify", False, True),
    ("power_counting", "divergence_degree", "power_counting.divergence_degree", False, False),
    ("power_counting", "maximal_contractions", "power_counting.maximal_contractions", True, False),
    ("kernels", "greens_identity_residual", "kernels.greens_identity_residual", False, True),
    ("kernels", "green_2d", "kernels.green_2d", False, False),
    ("kernels", "q_kernel_1d", "kernels.q_kernel_1d", False, True),
    ("kernels", "clipped_integral", "kernels.clipped_integral", False, True),
    ("kernels", "scaling_degree_probe", "kernels.scaling_degree_probe", False, True),
    ("kernels", "dirac_kernel_2d", "kernels.dirac_kernel_2d", False, False),
    ("clifford", "build_gamma_rep", "clifford.build_gamma_rep", False, False),
    ("properties", "check_linearity", "properties.linearity", False, True),
    ("properties", "check_convolve_commutation", "properties.convolve_commutation", False, True),
    ("properties", "check_leaf_parity", "properties.leaf_parity", False, True),
    ("properties", "check_contraction_counts", "properties.contraction_counts", False, True),
    ("properties", "check_canonical_stability", "properties.canonical_stability", False, True),
    ("properties", "check_grading_additivity", "properties.grading_additivity", False, True),
]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stats: dict[str, list] = {}   # name -> [calls, s, self_s, yielded, depth]
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.spans: list[tuple] = []       # outline: (name, start, end, parent)
        self._stack: list[list] = []       # open frames: [start, covered by callees]
        self._outline: list[int] = []      # indices of open outline spans
        self.errors: list[str] = []        # failures of the counting hooks

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _enter(self, stat):
        stat[4] += 1
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, stat, frame):
        end = self.clock()
        self._stack.pop()
        dur = end - frame[0]
        stat[2] += dur - frame[1]
        stat[4] -= 1
        if not stat[4]:
            stat[1] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return end

    def _guard(self, name, hook):
        """A counting hook that fails is recorded, never raised into the job."""
        def guarded(args, result):
            try:
                hook(args, result)
            except Exception as exc:
                self.errors.append(f"{name}: {exc!r}")
        return guarded

    def wrap(self, name, fn, outline, after=None):
        """Trace `fn`; an outline function also records its spans and may
        run a counting hook on its result."""
        stat = self._stat(name)
        enter, leave = self._enter, self._leave
        if after is not None:
            after = self._guard(name, after)

        if outline:
            spans, open_spans = self.spans, self._outline

            def wrapper(*args, **kwargs):
                stat[0] += 1
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(len(spans))
                spans.append(None)
                frame = enter(stat)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = leave(stat, frame)
                    index = open_spans.pop()
                    spans[index] = (name, frame[0], end, parent)
                if after is not None:
                    after(args, result)
                return result
        else:  # the hot path: no span record, no hook
            def wrapper(*args, **kwargs):
                stat[0] += 1
                frame = enter(stat)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(stat, frame)
        return wrapper

    def wrap_generator(self, name, fn):
        """Count generators made and items yielded; time each resumption."""
        stat = self._stat(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(stat)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(stat, frame)
                    stat[3] += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def wrap_container_add(self, prefix, fn):
        """Trace `Container.add` and classify each call by the size change:
        a new entry is kept, a removed entry is a cancellation."""
        counters = self.counters
        traced = self.wrap(prefix, fn, outline=False)

        def add(container, *args, **kwargs):
            before = len(container)
            result = traced(container, *args, **kwargs)
            delta = len(container) - before
            if delta > 0:
                counters[prefix + ".kept"] += 1
            elif delta < 0:
                counters[prefix + ".cancelled"] += 1
            return result
        return add

    def report(self) -> dict:
        return {
            "stats": {name: {"calls": s[0], "s": s[1], "self_s": s[2], "yielded": s[3]}
                      for name, s in self.stats.items()},
            "counters": dict(self.counters),
            "maxima": self.maxima,
            "spans": self.spans,
            "errors": self.errors,
        }


def _after_hooks(tracer: Tracer, perturbation) -> dict:
    counters, maxima = tracer.counters, tracer.maxima

    def monomials(args, series):
        counters["perturbation.monomials"] += sum(
            len(series.coefficient(k, branch))
            for k in range(series.max_order + 1)
            for branch in (perturbation.SPINOR, perturbation.COSPINOR))

    def residual(args, value):
        maxima["kernels.residual_max"] = max(maxima.get("kernels.residual_max", 0.0), value)

    def failures(args, result):
        counters["properties.failures"] += result["failures"]

    hooks = {"perturbation.expand": monomials,
             "kernels.greens_identity_residual": residual}
    for _, _, name, _, _ in TARGETS:
        if name.startswith("properties."):
            hooks[name] = failures
    return hooks


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the targets the package no longer has."""
    mods = {m: importlib.import_module("sthirring." + m)
            for m in {t[0] for t in TARGETS}}
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name == "sthirring" or name.startswith("sthirring.")]
    hooks = _after_hooks(tracer, mods["perturbation"])
    missing = []
    for modname, attr, name, is_gen, outline in TARGETS:
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mods[modname], owner_name, None) if owner_name else mods[modname]
        orig = vars(owner).get(method) if owner is not None else None
        if orig is None:
            missing.append(name)
        elif owner_name:  # a container's add method, patched on its class
            setattr(owner, method, tracer.wrap_container_add(name, orig))
        else:
            wrapper = (tracer.wrap_generator(name, orig) if is_gen
                       else tracer.wrap(name, orig, outline, hooks.get(name)))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapper)
    return missing
