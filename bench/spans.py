"""In-memory span tracer that wraps hhbounds entry points from outside.

`Tracer.install()` replaces, in the namespaces of the calling modules, each
name bound to a traced function with a wrapper, and `uninstall()` puts the
originals back.  The package's files are never edited.  The namespaces of
`expr` and `jets` are left alone, so the recursive tree walkers there are
not traced node by node.

Two kinds of wrapper:

* a span records name, function, parent span, operation id, start and end.
  A call from inside a span of the same layer name (a traced function
  calling itself, or another member of an aggregated group) is not a layer
  boundary and runs unwrapped.
* a leaf (`parse`, `eval_value`, `eval_jet`; millions of calls a pass) adds
  its call count and time to its parent span instead of making a span.

Self time of a span is its duration minus the time its child spans and
leaves cover.  Leaves have no traced children, so their self time is their
whole time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

LEAVES = {
    "expr.parse": ("expr", ("parse",)),
    "expr.eval_value": ("expr", ("eval_value",)),
    "jets.eval_jet": ("jets", ("eval_jet",)),
}

SPANS = {
    "bounds.convexity_profile": ("bounds", ("convexity_profile",)),
    "bounds.adaptive_enclosure": ("bounds", ("adaptive_enclosure",)),
    "bounds.identity_residual": (
        "bounds",
        ("bisected_trapezoid_identity_residual", "simpson_identity_residual"),
    ),
    "bounds.formulas": (
        "bounds",
        (
            "classic_hh",
            "weighted_value",
            "bisected_trapezoid",
            "simpson_value",
            "bisected_trapezoid_defect",
            "simpson_one_sided_bound",
            "simpson_defect_bound",
            "mean_enclosure_via_defect",
            "symmetric_point_triple",
            "simpson_estimate",
        ),
    ),
    "quadrature.integrate_mean": ("quadrature", ("integrate_mean",)),
    "quadrature.integrate_mean_fn": ("quadrature", ("integrate_mean_fn",)),
    "means.all_means": ("means", ("all_means",)),
    "means.brackets": (
        "means",
        (
            "log_mean_enclosure",
            "reciprocal_log_mean_defect",
            "identric_enclosure",
            "identric_of_squares_enclosure",
        ),
    ),
    "search.best_constant_search": ("search", ("best_constant_search",)),
    "search.f_ratio": ("search", ("f_ratio",)),
    "verify.run_suite": ("verify", ("run_suite",)),
}

ROOT = "cli.main"

# Functions whose eval_jet calls use only f'': the identity residuals and
# the defect sandwiches.  Their jets are still computed to order 4.
F2_ONLY = {
    "bisected_trapezoid_identity_residual",
    "simpson_identity_residual",
    "bisected_trapezoid_defect",
    "simpson_defect_bound",
    "mean_enclosure_via_defect",
}

# Modules whose namespaces get wrappers: every caller of a traced function.
CALLERS = ("cli", "bounds", "quadrature", "means", "search", "verify")

LAYERS = [ROOT, *LEAVES, *SPANS]


@dataclass
class Span:
    name: str
    fn: str
    parent: Span | None
    op: int
    start: float = 0.0
    end: float = 0.0
    covered: float = 0.0
    leaves: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds the spans of one traced pass in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for table, make in ((LEAVES, self._leaf), (SPANS, self._span)):
            for name, (module, fns) in table.items():
                defining = getattr(self.package, module)
                for fn_name in fns:
                    original = getattr(defining, fn_name)
                    wrappers[id(original)] = make(name, original)
        for module in CALLERS:
            namespace = getattr(self.package, module)
            for attr, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            setattr(namespace, attr, value)
        self._saved.clear()

    # -- recording --------------------------------------------------------

    def root(self, op: int, call, *args):
        """Run call(*args) as the root span of operation `op`."""
        span = Span(ROOT, ROOT, None, op)
        self.stack.append(span)
        span.start = time.perf_counter()
        try:
            return call(*args)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            self.spans.append(span)

    def _span(self, name: str, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack or stack[-1].name == name:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = Span(name, fn.__name__, parent, parent.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                parent.covered += span.end - span.start
                self.spans.append(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                parent = stack[-1]
                parent.covered += dt
                entry = parent.leaves.get(name)
                if entry is None:
                    parent.leaves[name] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the derived counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
        f2_only = quad_evals = adaptive_evals = samples = 0
        searched = feasible = 0
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.duration - span.covered
            for leaf, (calls, seconds) in span.leaves.items():
                out[f"{leaf}.calls"] += calls
                out[f"{leaf}.self_s"] += seconds
            jets = span.leaves.get("jets.eval_jet")
            if jets and _nearest_owner(span).fn in F2_ONLY:
                f2_only += jets[0]
            if span.name == "bounds.adaptive_enclosure":
                adaptive_evals += span.leaves.get("expr.eval_value", (0,))[0]
            elif span.name == "bounds.convexity_profile" and span.result is not None:
                samples += span.result.samples
            elif span.name.startswith("quadrature.") and span.result is not None:
                if not span.parent.name.startswith("quadrature."):
                    quad_evals += span.result.evaluations
            elif span.name == "search.best_constant_search" and span.result is not None:
                searched += span.result.evaluations
            elif span.name == "search.f_ratio" and span.parent.name == "search.best_constant_search":
                feasible += 1
        out["jets.eval_jet.calls_f2_only"] = f2_only
        out["quadrature.evaluations"] = quad_evals
        out["bounds.adaptive_enclosure.evals"] = adaptive_evals
        out["bounds.convexity_profile.samples"] = samples
        out["search.feasible_ratio"] = feasible / searched if searched else 0.0
        return out


def _nearest_owner(span: Span) -> Span:
    """The span itself, or the first ancestor outside the quadrature layer.

    A quadrature span only drives its caller's integrand, so the jets it
    evaluates are owned by whoever asked for the integral.
    """
    while span.name.startswith("quadrature.") and span.parent is not None:
        span = span.parent
    return span
