"""Span tracer that times loopfock layers from outside the package.

The tracer replaces public functions of the loopfock modules by wrappers
that record one span per call: name, start, end, the enclosing span and the
request the call belongs to.  Modules import functions by name
(``from .linalg import span_residual``) and ``suites.SUITES`` holds the six
check functions in a dict, so patching only the defining module would miss
most internal calls; every binding in every loopfock module namespace, and
in module-level dicts, is patched and restored on exit.
"""

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter

TARGETS = {
    "clifford": ("build_clifford_model", "pi_vector"),
    "bogoliubov": ("implement_pin", "implement_oracle", "implementation_residual",
                   "derived_implementer", "normalize_phase"),
    "linalg": ("orthonormal_rows", "span_residual", "averaged_intertwiners", "null_space",
               "antilinear_polar"),
    "algebra": ("generated_star_algebra", "commutant", "super_commutant", "tomita_data",
                "canonical_implementation", "inner_unitary", "conjugation_action",
                "automorphism_residual"),
    "loops": ("lift", "omega_matrix", "loop_from_bivectors"),
    "twogroup": ("check_crossed_module", "check_intertwiner", "check_minimal_data"),
    "rep": ("build_context", "fusion_factorization", "path_automorphism", "check_f_scalar"),
    "suites": ("clifford_checks", "bogoliubov_checks", "tomita_checks", "twogroup_checks",
               "string_checks", "rep_checks"),
    "report": ("emit_report",),
}

PACKAGE = "loopfock"


def target_names():
    return [f"{module}.{func}" for module, funcs in TARGETS.items() for func in funcs]


def package_modules():
    """Import every loopfock submodule and return them all, package included."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def resolve_targets():
    """Map each target name to the function object it names now.

    Names a refactor has removed are left out; the caller reports them.
    """
    found = {}
    for name in target_names():
        module, func = name.split(".")
        fn = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
        if callable(fn):
            found[name] = fn
    return found


class Tracer:
    """Context manager that records spans of the TARGETS while it is active.

    Spans stay in memory as tuples (name, start, end, parent index, request);
    ``request`` is set by the caller before each request so that the spans
    of one report or one lift share an id.
    """

    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.lift_hits = 0
        self.request = None
        self.missing = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = package_modules()
        originals = resolve_targets()
        self.missing = [name for name in target_names() if name not in originals]
        wrappers = {}
        for name, fn in originals.items():
            wrap = self._wrap_lift if name == "loops.lift" else self._wrap
            wrappers[id(fn)] = (fn, wrap(name, fn))

        def patch(namespace, key, value):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                self._patched.append((namespace, key, value))
                namespace[key] = entry[1]

        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                if type(value) is dict:
                    for inner_key, inner in list(value.items()):
                        patch(value, inner_key, inner)
                else:
                    patch(namespace, key, value)
        return self

    def __exit__(self, *exc):
        for namespace, key, original in reversed(self._patched):
            namespace[key] = original
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            calls[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
        return traced

    def _wrap_lift(self, name, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def traced_lift(model, *args, **kwargs):
            before = len(model.lift_cache)
            out = traced(model, *args, **kwargs)
            if len(model.lift_cache) == before:
                self.lift_hits += 1
            return out
        return traced_lift

    def layer_metrics(self):
        """Per-function calls and self time, per-module self time, lift cache counts.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        metrics = {}
        for module, funcs in TARGETS.items():
            for func in funcs:
                name = f"{module}.{func}"
                metrics[f"{name}.calls"] = (self.calls[name], "count")
                metrics[f"{name}.self_s"] = (self_s[name], "s")
            metrics[f"{module}.self_s"] = (sum(self_s[f"{module}.{f}"] for f in funcs), "s")
        lifts = self.calls["loops.lift"]
        metrics["loops.lift.hit_ratio"] = (self.lift_hits / lifts if lifts else 0.0, "ratio")
        metrics["loops.lift_cache.entries"] = (lifts - self.lift_hits, "count")
        metrics["trace.spans"] = (len(self.spans), "count")
        return metrics

    def spans_payload(self):
        """Spans as JSON-ready rows, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[name, start - origin, end - origin, parent, request]
                      for name, start, end, parent, request in self.spans],
        }
