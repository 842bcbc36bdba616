"""Endpoint-midpoint bounds for mean values of convex integrands.

For convex f the mean value (1/(b-a)) * integral of f over [a,b] sits
between f(mid) and the endpoint average.  The weighted combinations
w_end*(f(a)+f(b)) + w_mid*f(mid) sharpen the upper side: the bisected
trapezoid value (weights 1/4, 1/2) always dominates the mean, and the
Simpson value (weights 1/6, 2/3) bounds it one-sidedly when f'' has a
definite shape.  Second-derivative endpoint/midpoint data sandwiches
the defect of either value, and two exact integral identities express
the defects against a kernel in a normalized variable; the residual
checks here confirm them numerically via the independent integrator.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from .core import BudgetError, DomainError, Enclosure, Interval, WeightPair
from .expr import Node, as_node, eval_value
from .jets import eval_jet
from .quadrature import integrate_mean, integrate_mean_fn

__all__ = [
    "DEFECTS",
    "ConvexityProfile",
    "OneSidedBound",
    "IdentityCheck",
    "SimpsonEstimate",
    "classic_hh",
    "weighted_value",
    "bisected_trapezoid",
    "simpson_value",
    "bisected_trapezoid_defect",
    "simpson_one_sided_bound",
    "simpson_defect_bound",
    "symmetric_point_triple",
    "bisected_trapezoid_identity_residual",
    "simpson_identity_residual",
    "simpson_estimate",
    "adaptive_enclosure",
    "convexity_profile",
    "mean_enclosure_via_defect",
    "Enclosure",
    "Interval",
    "WeightPair",
]


@dataclass(frozen=True)
class ConvexityProfile:
    """Sampled classification of f and of the shape of f''.

    f_convex: "yes" / "no" / "indeterminate", the sign of sampled f''.
    f2_shape: "convex" / "concave" / "indeterminate", for sampled f'''';
    always "indeterminate" in an order-2 profile, which samples no f''''.
    Classification is evidence from n Chebyshev samples, not proof;
    operations requiring a determinate shape fail loudly otherwise.
    """

    f_convex: str
    f2_shape: str
    min_f2: float
    samples: int

    def certified_convex(self) -> ConvexityProfile:
        """This profile if f is certified convex; ValueError otherwise.

        The one refusal of the hypothesis every bound here rests on.
        """
        if self.f_convex != "yes":
            raise ValueError(f"integrand is not certified convex ({self.f_convex})")
        return self


@dataclass(frozen=True)
class OneSidedBound:
    value: float
    is_upper: bool


@dataclass(frozen=True)
class IdentityCheck:
    """Two independently computed sides of an exact identity."""

    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class SimpsonEstimate:
    value: float
    err_bound: float


def _three_values(node: Node, iv: Interval) -> tuple[float, float, float]:
    return eval_value(node, iv.a), eval_value(node, iv.mid), eval_value(node, iv.b)


def classic_hh(f: Node | str, iv: Interval) -> Enclosure:
    """Midpoint-vs-endpoint-average bracket; valid for convex f.

    Convexity is not checked here; callers pair this with
    convexity_profile.  For concave f the pair inverts and Enclosure
    construction fails.
    """
    node = as_node(f)
    fa, fm, fb = _three_values(node, iv)
    return Enclosure(fm, 0.5 * (fa + fb))


def weighted_value(f: Node | str, iv: Interval, w: WeightPair) -> float:
    """w_end*(f(a)+f(b)) + w_mid*f(mid), exactly as written."""
    node = as_node(f)
    fa, fm, fb = _three_values(node, iv)
    return w.endpoint_weight * (fa + fb) + w.midpoint_weight * fm


def bisected_trapezoid(f: Node | str, iv: Interval) -> float:
    """Weights (1/4, 1/2): the trapezoid rule on the two halves.

    Dominates the mean for convex f and never exceeds the plain
    trapezoid value.
    """
    return weighted_value(f, iv, WeightPair(0.25, 0.5))


def simpson_value(f: Node | str, iv: Interval) -> float:
    """Weights (1/6, 2/3): single-panel Simpson, normalized to a mean."""
    node = as_node(f)
    fa, fm, fb = _three_values(node, iv)
    return (fa + 4.0 * fm + fb) / 6.0


# --- convexity profiling -----------------------------------------------------


def _chebyshev_nodes(iv: Interval, n: int) -> list[float]:
    half = 0.5 * iv.length
    return [iv.mid + half * math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(1, n + 1)]


def convexity_profile(
    f: Node | str, iv: Interval, n: int = 129, order: int = 4
) -> ConvexityProfile:
    """Classify sign of f'' and of f'''' from n Chebyshev samples.

    Tolerance is scale-relative: 1e-10 * (1 + max sampled magnitude).
    Mixed signs (or non-finite samples) yield "indeterminate".  order is
    the jet order, 2 or 4 as in `eval_jet`.  An order-2 profile samples
    only f'', which is all the convexity gate reads: its f_convex and
    min_f2 are those of the order-4 profile, and its f2_shape is
    "indeterminate", which every bound that needs a shape refuses.
    """
    if n < 33:
        raise ValueError(f"need at least 33 sample points, got {n}")
    node = as_node(f)
    ds = [eval_jet(node, x, order).derivatives for x in _chebyshev_nodes(iv, n)]
    d2s = [d[2] for d in ds]

    def classify(vals: list[float], pos: str, neg: str) -> str:
        if not all(math.isfinite(v) for v in vals):
            return "indeterminate"
        tol = 1e-10 * (1.0 + max(abs(v) for v in vals))
        if min(vals) >= -tol:
            return pos
        if max(vals) <= tol:
            return neg
        return "indeterminate"

    f_convex = classify(d2s, "yes", "no")
    f2_shape = classify([d[4] for d in ds], "convex", "concave") if order == 4 else "indeterminate"
    finite_d2 = [v for v in d2s if math.isfinite(v)]
    min_f2 = min(finite_d2) if finite_d2 else math.nan
    return ConvexityProfile(f_convex, f2_shape, min_f2, n)


def _f2_shape(node: Node, iv: Interval, prof: ConvexityProfile | None) -> str:
    """Determinate shape of f'' from prof, profiling f when prof is None."""
    if prof is None:
        prof = convexity_profile(node, iv)
    if prof.f2_shape not in ("convex", "concave"):
        raise ValueError("second derivative has no certified convexity direction")
    return prof.f2_shape


def _three_f2(node: Node, iv: Interval) -> tuple[float, float, float]:
    """f''(a), f''(mid), f''(b)."""
    d2a, d2m, d2b = (eval_jet(node, x, order=2).derivatives[2] for x in (iv.a, iv.mid, iv.b))
    return d2a, d2m, d2b


# --- defect sandwiches -------------------------------------------------------


def bisected_trapezoid_defect(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """Enclosure of D = bisected_trapezoid - mean from f'' point data.

    f'' convex:  len^2/48 * f''(mid) <= D <= len^2/96 * (f''(a)+f''(b));
    f'' concave: the two expressions swap roles.
    """
    node = as_node(f)
    shape = _f2_shape(node, iv, prof)
    d2a, d2m, d2b = _three_f2(node, iv)
    sq = iv.length ** 2
    mid_side = sq / 48.0 * d2m
    end_side = sq / 96.0 * (d2a + d2b)
    if shape == "convex":
        return Enclosure(mid_side, end_side)
    return Enclosure(end_side, mid_side)


def simpson_one_sided_bound(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> OneSidedBound:
    """Simpson value as a certified one-sided bound on the mean.

    Upper bound when f'' is convex, lower bound when f'' is concave.
    """
    node = as_node(f)
    shape = _f2_shape(node, iv, prof)
    return OneSidedBound(simpson_value(node, iv), shape == "convex")


def simpson_defect_bound(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """[0, hi] enclosure of the oriented Simpson defect.

    f'' convex:  encloses simpson_value - mean, hi = len^2/324 * (f''(a)+f''(b)-2f''(mid));
    f'' concave: encloses mean - simpson_value, hi = len^2/324 * (2f''(mid)-f''(a)-f''(b)).
    """
    node = as_node(f)
    shape = _f2_shape(node, iv, prof)
    d2a, d2m, d2b = _three_f2(node, iv)
    curv = d2a + d2b - 2.0 * d2m
    if shape == "concave":
        curv = -curv
    return Enclosure(0.0, iv.length ** 2 / 324.0 * curv)


def mean_enclosure_via_defect(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """Convert the bisected-trapezoid defect sandwich into a mean bracket."""
    node = as_node(f)
    d = bisected_trapezoid_defect(node, iv, prof)
    v = bisected_trapezoid(node, iv)
    return Enclosure(v - d.upper, v - d.lower)


# Theorem (the CLI's --theorem) -> (citations, defect(node, iv, prof, mean)),
# which returns the sandwich and the defect that must lie inside it.  Theorem
# 4's defect is oriented: mean - simpson_value when f'' is concave.  Rows look
# up the bound functions when they run, so wrappers on module names see them.
DEFECTS = {
    2: (
        ("bisected-trapezoid", "defect-sandwich"),
        lambda node, iv, prof, mean: (
            bisected_trapezoid_defect(node, iv, prof),
            bisected_trapezoid(node, iv) - mean,
        ),
    ),
    4: (
        ("simpson-defect",),
        lambda node, iv, prof, mean: (
            simpson_defect_bound(node, iv, prof),
            (simpson_value(node, iv) - mean) * (-1.0 if prof.f2_shape == "concave" else 1.0),
        ),
    ),
}


# --- symmetric-pair comparison ----------------------------------------------


def _symmetric_pair(iv: Interval, t: float) -> tuple[float, float]:
    x = iv.a * (0.5 * t) + iv.b * (1.0 - 0.5 * t)
    return x, iv.a + iv.b - x


def symmetric_point_triple(
    h: Node | str, iv: Interval, t: float
) -> tuple[float, float, float]:
    """(2h(mid), h(x)+h(y), h(a)+h(b)) for the symmetric pair at t.

    x = a*t/2 + b*(1-t/2) and y = a+b-x, so the pair straddles the
    midpoint; for convex h the triple is non-decreasing.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    node = as_node(h)
    x, y = _symmetric_pair(iv, t)
    fa, fm, fb = _three_values(node, iv)
    return 2.0 * fm, eval_value(node, x) + eval_value(node, y), fa + fb


# --- exact defect identities -------------------------------------------------


def _identity_residual(
    f: Node | str, iv: Interval, tol: float, value: Callable, weight: Callable, scale: float
) -> IdentityCheck:
    """value - mean against len^2/scale * integral of weight(t)*(f''(x_t)+f''(y_t))."""
    node = as_node(f)
    lhs = value(node, iv) - integrate_mean(node, iv, tol).value

    def kernel(t: float) -> float:
        x, y = _symmetric_pair(iv, t)
        d2x = eval_jet(node, x, order=2).derivatives[2]
        d2y = eval_jet(node, y, order=2).derivatives[2]
        return weight(t) * (d2x + d2y)

    rhs = iv.length ** 2 / scale * integrate_mean_fn(kernel, Interval(0.0, 1.0), tol).value
    return IdentityCheck(lhs, rhs, abs(lhs - rhs))


def bisected_trapezoid_identity_residual(
    f: Node | str, iv: Interval, tol: float = 1e-11
) -> IdentityCheck:
    """Check: bisected_trapezoid - mean == len^2/16 * kernel integral.

    The kernel is t(1-t)*(f''(x_t)+f''(y_t)) over t in [0,1], with the
    symmetric substitution of symmetric_point_triple.  Both sides use
    the independent integrator; residual should vanish to tolerance.
    """
    return _identity_residual(f, iv, tol, bisected_trapezoid, lambda t: t * (1.0 - t), 16.0)


def simpson_identity_residual(
    f: Node | str, iv: Interval, tol: float = 1e-11
) -> IdentityCheck:
    """Check: simpson_value - mean == len^2/48 * kernel integral.

    Same substitution with kernel t(2-3t)*(f''(x_t)+f''(y_t)); the
    kernel changes sign, which is what makes the Simpson defect
    second-order small.
    """
    return _identity_residual(f, iv, tol, simpson_value, lambda t: t * (2.0 - 3.0 * t), 48.0)


# --- Simpson estimate with fourth-derivative error bound ----------------------


_SIMPSON_N = 33


def simpson_estimate(f: Node | str, iv: Interval) -> SimpsonEstimate:
    """Simpson mean estimate with the classic fourth-derivative bound.

    err_bound = (1/90) h^5 max|f''''| / (b-a) with h = (b-a)/2, the
    max sampled at the 33 Chebyshev points of `_SIMPSON_N` plus both
    endpoints.  The bound is certified only insofar as the sampled max
    dominates |f''''|.
    """
    node = as_node(f)
    m4 = 0.0
    for x in _chebyshev_nodes(iv, _SIMPSON_N) + [iv.a, iv.b]:
        m4 = max(m4, abs(eval_jet(node, x).derivatives[4]))
    h = 0.5 * iv.length
    err_bound = h ** 5 * m4 / (90.0 * iv.length)
    return SimpsonEstimate(simpson_value(node, iv), err_bound)


# --- adaptive refinement ------------------------------------------------------


_MAX_PANELS = 100_000


def adaptive_enclosure(
    f: Node | str, iv: Interval, tol: float, prof: ConvexityProfile | None = None
) -> Enclosure:
    """Bisect until the certified bracket around the mean is <= tol wide.

    Per panel the lower bound is the midpoint value and the upper bound
    the bisected-trapezoid value; both certified by convexity.  The
    widest panel (by width contribution) is split first; the final
    aggregation sums panels leftmost-first so results are deterministic.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    node = as_node(f)
    if prof is None:
        prof = convexity_profile(node, iv, order=2)
    prof.certified_convex()

    total = iv.length

    def panel(a: float, b: float, fa: float, fm: float, fb: float):
        # width contribution: weight * (bisected trapezoid - midpoint)
        gap = (b - a) / total * (fa - 2.0 * fm + fb) / 4.0
        return (-gap, a, b, fa, fm, fb)

    fa, fm, fb = _three_values(node, iv)
    heap = [panel(iv.a, iv.b, fa, fm, fb)]
    width = -heap[0][0]
    target = tol
    while True:
        while width > target:
            if len(heap) >= _MAX_PANELS:
                raise BudgetError(f"subdivision budget of {_MAX_PANELS} panels exhausted")
            neg_gap, a, b, fa, fm, fb = heapq.heappop(heap)
            m = 0.5 * (a + b)
            flm = eval_value(node, 0.5 * (a + m))
            frm = eval_value(node, 0.5 * (m + b))
            left = panel(a, m, fa, flm, fm)
            right = panel(m, b, fm, frm, fb)
            heapq.heappush(heap, left)
            heapq.heappush(heap, right)
            width += neg_gap - left[0] - right[0]

        lower = 0.0
        upper = 0.0
        for _, a, b, fa, fm, fb in sorted(heap, key=lambda p: p[1]):
            w = (b - a) / total
            lower += w * fm
            upper += w * (fa + 2.0 * fm + fb) / 4.0
        if upper - lower <= tol:
            return Enclosure(lower, upper)
        # The running width has drifted from the summed bracket by rounding;
        # split until it sits that far below tol.
        target = tol - (upper - lower - width)
