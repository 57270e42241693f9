"""Spans and counters recorded from outside the program.

``Recorder.install(package)`` wraps the public functions named in ``LAYERS``
and finds every module of the package that holds a reference to them (for
example ``thom_index`` imports ``levi_civita`` from ``chern_weil``), so calls
made inside the library are seen too.  ``enable`` patches the wrappers in and
``disable`` puts the original functions back, so traced and untraced runs can
alternate in one process.  Each call becomes a span
``(name, start, end, parent, request)`` kept in memory; hot inner work --
integrand evaluations -- is counted instead, and the recursion inside one
top-level ``poly_gcd`` call belongs to that call's span.  ``request`` names
the document slot being run; counts are kept per slot too.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) of each layer boundary; the span name is "module.attribute"
LAYERS = [
    ("cli", "load_document"),
    ("cli", "JobContext"),
    ("cli", "run_document"),
    ("algebroid", "AlgebroidPresentation.validate"),
    ("scalars", "poly_gcd"),
    ("chern_weil", "levi_civita"),
    ("chern_weil", "curvature"),
    ("chern_weil", "pfaffian_form"),
    ("chern_weil", "char_class"),
    ("thom_index", "euler_class"),
    ("thom_index", "integrate"),
    ("thom_index", "thom_compatibility"),
    ("quadrature", "integrate_1d"),
    ("quadrature", "integrate_2d"),
    ("forms", "cohomology_const"),
    ("forms", "d_g"),
    ("linalg", "rank"),
    ("groupoid", "differential_matrix"),
    ("groupoid", "groupoid_cohomology"),
]

# points per Gauss-Kronrod panel, by quadrature entry point
_PANEL_POINTS = {"integrate_1d": 15, "integrate_2d": 15 * 15}


def _span_name(module, attribute):
    return f"{module}.{attribute.split('.')[-1]}"


class Recorder:
    # the span the benchmark opens around each cli.main call
    ROOT_SPAN = "cli.main"

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # request -> counter name -> count
        self.request = None
        self._stack = []
        self._patches = []  # (holder, key, original, wrapper)

    def _count(self, key, n=1):
        self.counts[self.request][key] += n

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), None, parent, self.request]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = perf_counter()

    def _inside(self, name):
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def _wrap(self, module, attribute, original):
        name = _span_name(module, attribute)
        short = attribute.split(".")[-1]

        if short == "poly_gcd":

            def wrapper(a, b):
                if self._inside(name):  # recursion inside one top-level gcd
                    return original(a, b)
                result = self.call(name, original, a, b)
                self._count("scalars.poly_gcd.calls")
                self._count("scalars.poly_gcd.useful", not result.is_constant())
                return result

        elif short in _PANEL_POINTS:
            points = _PANEL_POINTS[short]

            def wrapper(f, *args, **kwargs):
                evals = [0]

                def counted(*xs):
                    evals[0] += 1
                    return f(*xs)

                try:
                    result = self.call(name, original, counted, *args, **kwargs)
                    self._count("quadrature.final_panels", result.panels)
                    return result
                finally:
                    self._count("quadrature.evals", evals[0])
                    self._count("quadrature.panels", evals[0] // points)

        elif short == "rank":

            def wrapper(matrix):
                self._count("linalg.rank.calls")
                self._count("linalg.rank.entries", len(matrix) * len(matrix[0]) if matrix else 0)
                self._count("linalg.rank.nnz", sum(1 for row in matrix for v in row if v))
                return self.call(name, original, matrix)

        elif short == "integrate":

            def wrapper(*args, **kwargs):
                result = self.call(name, original, *args, **kwargs)
                self._count("thom_index.integrate.calls")
                self._count("thom_index.integrate.exact", bool(result.value_is_exact))
                return result

        else:

            def wrapper(*args, **kwargs):
                self._count(f"{name}.calls")
                return self.call(name, original, *args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, package="algindex"):
        """Build the wrappers and find every reference to patch; patch none yet."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, attribute in LAYERS:
            owner = sys.modules[f"{package}.{module_name}"]
            if "." in attribute:  # a method: patch the class
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                wrapper = self._wrap(module_name, attribute, original)
                self._patches.append((cls, method, original, wrapper))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(module_name, attribute, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def enable(self):
        for holder, key, _, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def disable(self):
        for holder, key, original, _ in reversed(self._patches):
            setattr(holder, key, original)

    def uninstall(self):
        self.disable()
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self, clock=None):
        """Self time per (request, span name): duration minus child spans.

        With ``clock``, a function of a wall interval, each root span's
        interval is converted by it and the self times inside that root are
        scaled alike, so they add up to the converted root.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        scale = 1.0
        for i, (name, start, end, parent, request) in enumerate(self.spans):
            if parent < 0 and clock is not None and end > start:
                scale = clock(start, end) / (end - start)
            out[request, name] += ((end - start) - child[i]) * scale
        return dict(out)

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}))
                handle.write("\n")


def per_layer_metrics(recorder, traced, plain, clock):
    """The per-layer metrics of a traced run, each per pass unless noted.

    ``traced`` and ``plain`` are the run's tallies with and without the
    recorder, and ``clock`` converts wall intervals (see ``run.Tally``).  A
    figure per pass is, for each document slot, its total over the slot's
    traced runs divided by their number, summed over the slots.
    """
    runs = {slot: len(intervals) for slot, intervals in traced.samples.items()}
    selfs = recorder.self_times(clock)
    counts = recorder.counts

    def per_pass(total_of):
        return sum(total_of(slot) / n for slot, n in runs.items())

    def count(key):
        return per_pass(lambda slot: counts[slot][key])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in [Recorder.ROOT_SPAN] + [_span_name(m, a) for m, a in LAYERS]:
        metrics[f"{name}.self_s"] = (per_pass(lambda slot: selfs.get((slot, name), 0.0)), "s")
    for name in ("algebroid.validate", "forms.d_g", "linalg.rank", "thom_index.integrate",
                 "scalars.poly_gcd"):
        metrics[f"{name}.calls"] = (count(f"{name}.calls"), "count")
    metrics["thom_index.euler_class.calls"] = (
        count("thom_index.euler_class.calls") / len(runs), "count/doc")
    metrics["scalars.poly_gcd.useful_ratio"] = (
        ratio(count("scalars.poly_gcd.useful"), count("scalars.poly_gcd.calls")), "ratio")
    metrics["thom_index.integrate.exact_ratio"] = (
        ratio(count("thom_index.integrate.exact"), count("thom_index.integrate.calls")),
        "ratio")
    metrics["quadrature.panels"] = (count("quadrature.panels"), "count")
    metrics["quadrature.evals"] = (count("quadrature.evals"), "count")
    metrics["quadrature.useful_ratio"] = (
        ratio(count("quadrature.final_panels"), count("quadrature.panels")), "ratio")
    metrics["linalg.rank.entries"] = (count("linalg.rank.entries"), "count")
    metrics["linalg.rank.nnz"] = (count("linalg.rank.nnz"), "count")
    metrics["trace.overhead_ratio"] = (
        ratio(traced.pass_time(clock), plain.pass_time(clock)) - 1.0, "ratio")
    metrics["trace.coverage_ratio"] = (
        ratio(sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s")),
              traced.pass_time(clock, statistics.fmean)), "ratio")
    return metrics
