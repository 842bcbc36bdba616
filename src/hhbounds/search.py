"""Numerical exploration of the best endpoint weight.

The quantity of interest is the ratio

    F_f = (mean - f(mid)) / (f(a) + f(b) - 2 f(mid))

for convex f: the smallest endpoint weight that still yields an upper
bound on the mean is the supremum of F_f over the admissible class.
For every convex f the ratio sits in [0, 1/4]; it tends to 1/6 as the
interval shrinks; a documented witness integrand pushes it to 0.18128,
and smoothed tents approach 1/4.  best_constant_search maximizes the
ratio over small parametric families with a seeded, fully
deterministic derivative-free strategy.  Each family row gives its
members' values at 0, 1/2 and 1, their mean on [0, 1] and their
convexity in closed form, so the search scores a member from three
floats and builds, walks and integrates no tree; f_ratio's quadrature
oracle serves arbitrary integrands.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .core import Interval
from .expr import Node, as_node, eval_value
from .quadrature import integrate_mean

__all__ = [
    "RatioReport",
    "SearchResult",
    "CounterexampleReport",
    "SearchError",
    "f_ratio",
    "ratio_limit_scan",
    "left_counterexample",
    "witness_ratio",
    "smoothed_tent_ratio",
    "best_constant_search",
    "FAMILIES",
]


class SearchError(RuntimeError):
    """No feasible candidate found within the given budget."""


@dataclass(frozen=True)
class RatioReport:
    """F ratio with its parts; value is withheld when degenerate.

    degenerate is set when |denominator| <= 1e-12*(1+|f(a)|+|f(b)|),
    i.e. when f is affine to within rounding and the ratio is 0/0.
    """

    value: float | None
    numerator: float
    denominator: float
    degenerate: bool

    @classmethod
    def of(cls, fa: float, fm: float, fb: float, mean: float) -> RatioReport:
        """The report for f(a), f(mid), f(b) and the mean of f on [a, b]."""
        denominator = fa + fb - 2.0 * fm
        numerator = mean - fm
        degenerate = abs(denominator) <= 1e-12 * (1.0 + abs(fa) + abs(fb))
        value = None if degenerate else numerator / denominator
        return cls(value, numerator, denominator, degenerate)


@dataclass(frozen=True)
class SearchResult:
    family: str
    best_ratio: float
    witness: tuple[float, ...]
    evaluations: int
    seed: int


@dataclass(frozen=True)
class CounterexampleReport:
    m_value: float
    mean: float
    violated: bool


def f_ratio(f: Node | str, iv: Interval) -> RatioReport:
    """(mean - f(mid)) / (f(a) + f(b) - 2 f(mid)) via the oracle mean."""
    node = as_node(f)
    fa = eval_value(node, iv.a)
    fm = eval_value(node, iv.mid)
    fb = eval_value(node, iv.b)
    return RatioReport.of(fa, fm, fb, integrate_mean(node, iv).value)


def ratio_limit_scan(f: Node | str, a: float, h_list: list[float]) -> list[RatioReport]:
    """F ratios on [a, a+h] for each h; tends to 1/6 as h shrinks."""
    node = as_node(f)
    return [f_ratio(node, Interval(a, a + h)) for h in h_list]


def left_counterexample(gamma: float) -> CounterexampleReport:
    """Why no weighted lower bound beats the midpoint: f(t)=t^(1/gamma).

    On [0,1] the weighted combination with endpoint weight gamma equals
    gamma + (1-2*gamma)*2^(-1/gamma), which exceeds the mean
    gamma/(1+gamma) for every gamma in (0, 1/2].
    """
    if not 0.0 < gamma <= 0.5:
        raise ValueError(f"gamma must lie in (0, 1/2], got {gamma}")
    m_value = gamma + (1.0 - 2.0 * gamma) * 2.0 ** (-1.0 / gamma)
    mean = gamma / (1.0 + gamma)
    return CounterexampleReport(m_value, mean, m_value > mean)


def witness_ratio() -> float:
    """F ratio of the documented witness 4t^3.5/35 - t^4/12 on [0,1], 0.18128.

    Up to the factor 35/4, which F ignores, it is the power-combo member
    (3.5, 35/48), whose convexity the family's exact predicate decides.
    """
    return _member_ratio(FAMILIES["power-combo"], (3.5, 35.0 / 48.0))


def smoothed_tent_ratio(eps: float) -> float:
    """F ratio of hyp(x - 1/2, eps) on [0,1]; tends to 1/4 as eps -> 0."""
    return _member_ratio(FAMILIES["smoothed-tent"], (eps,))


# --- family definitions -------------------------------------------------------


def _power_values(params: tuple[float, ...]) -> tuple[float, float, float]:
    (p,) = params
    return 0.0 ** p, 0.5 ** p, 1.0 ** p


def _power_combo_values(params: tuple[float, ...]) -> tuple[float, float, float]:
    p, c = params
    return 0.0 ** p - c * 0.0 ** 4.0, 0.5 ** p - c * 0.5 ** 4.0, 1.0 ** p - c * 1.0 ** 4.0


def _tent_values(params: tuple[float, ...]) -> tuple[float, float, float]:
    """hypot(x - 1/2, eps) at x = 0, 1/2, 1, refusing the softness `expr.Hyp` refuses."""
    (eps,) = params
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"hyp softness must be a positive finite constant, got {eps!r}")
    return math.hypot(-0.5, eps), math.hypot(0.0, eps), math.hypot(0.5, eps)


def _power_combo_convex(params: tuple[float, ...]) -> bool:
    """f'' = x^(p-2) (p(p-1) - 12c x^(4-p)) >= 0 on (0, 1]: for c > 0, p <= 4 and
    f''(1) >= 0.  Exact in integers, with p = n/d and c = m/e from the floats'
    ratios (d, e > 0), so no rounding passes a witness past the edge."""
    (n, d), (m, e) = (v.as_integer_ratio() for v in params)
    return m <= 0 or (n <= 4 * d and 12 * m * d * d <= n * (n - d) * e)


def _power_combo_mean(params: tuple[float, ...]) -> float:
    p, c = params
    return 1.0 / (p + 1.0) - c / 5.0


def _tent_mean(params: tuple[float, ...]) -> float:
    """2 * integral of hypot(u, eps) for u in [0, 1/2].

    Where eps * eps underflows to 0 the asinh term, below 1e-600, is left
    out: past eps = 2.8e-309, 0.5 / eps overflows and 0 * inf is nan."""
    (eps,) = params
    half_hyp = 0.5 * math.hypot(0.5, eps)
    eps2 = eps * eps
    return half_hyp + eps2 * math.asinh(0.5 / eps) if eps2 else half_hyp


# Each family is its row: the box, and in closed form its members' values
# (f(0), f(1/2), f(1)), their mean on [0, 1] and their convexity there (x^p,
# p > 1, and hyp, eps > 0, always are convex).  The values repeat the float
# operations of the members' trees, x^p, x^p - c*x^4 and hyp(x - 0.5, eps),
# in the same order, so each keeps the bits of a walk of its tree.
FAMILIES: dict[str, dict] = {
    "power": {
        "box": [(1.01, 20.0)],
        "values": _power_values,
        "mean": lambda params: 1.0 / (params[0] + 1.0),
        "convex": lambda params: True,
    },
    "power-combo": {
        "box": [(1.01, 6.0), (0.0, 2.0)],
        "values": _power_combo_values,
        "mean": _power_combo_mean,
        "convex": _power_combo_convex,
    },
    "smoothed-tent": {
        "box": [(1e-4, 1.0)],
        "values": _tent_values,
        "mean": _tent_mean,
        "convex": lambda params: True,
    },
}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _member_ratio(spec: dict, params: tuple[float, ...]) -> float:
    """F ratio of a FAMILIES row's member on [0,1] from the row's closed-form values
    and mean; SearchError if not convex or degenerate."""
    if not spec["convex"](params):
        raise SearchError("integrand is outside the family's convex region")
    fa, fm, fb = spec["values"](params)
    report = RatioReport.of(fa, fm, fb, spec["mean"](params))
    if report.degenerate:
        raise SearchError("integrand reported a degenerate ratio")
    return report.value


def _candidate_ratio(spec: dict, params: tuple[float, ...]) -> float:
    """Score one parameter vector of a FAMILIES row; -inf when infeasible."""
    try:
        return _member_ratio(spec, params)
    except (SearchError, ValueError, ArithmeticError):
        return -math.inf


def best_constant_search(family: str, budget: int, seed: int) -> SearchResult:
    """Maximize the F ratio over a parametric convex family on [0,1].

    Strategy: a seeded, lightly jittered grid over the parameter box,
    then coordinate-wise golden-section refinement with shrinking
    windows.  Candidates outside the family's exact convex region (or
    whose ratio is degenerate) score -inf, so every witness is convex.
    The reduction is a plain max with ties broken toward the
    lexicographically smallest parameter vector, kept as each candidate
    is scored, so results depend only on (family, budget, seed).
    `score` alone enforces the budget: once it has scored `budget`
    candidates it returns -inf without evaluating, so any refinement
    steps left after that change nothing.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(FAMILIES)}")
    if budget < 100:
        raise ValueError(f"budget must be at least 100, got {budget}")
    spec = FAMILIES[family]
    box: list[tuple[float, float]] = spec["box"]
    rng = random.Random(seed)
    evaluations = 0
    # The incumbent (ratio, params): the first evaluation ranked lowest by
    # (-ratio, params), the larger ratio first, ties to the smaller params.
    best = (-math.inf, ())

    def score(params: tuple[float, ...]) -> float:
        nonlocal evaluations, best
        if evaluations >= budget:
            return -math.inf
        r = _candidate_ratio(spec, params)
        if not evaluations or (-r, params) < (-best[0], best[1]):
            best = (r, params)
        evaluations += 1
        return r

    dims = len(box)
    spans = [hi - lo for lo, hi in box]

    # Phase 1: jittered grid over the box.
    per_dim = max(4, min(16, round((budget / 4) ** (1.0 / dims))))
    axes = []
    for (lo, hi), span in zip(box, spans):
        step = span / per_dim
        axes.append(
            [lo + (i + 0.5) * step + rng.uniform(-0.25, 0.25) * step for i in range(per_dim)]
        )
    for params in itertools.product(*axes):
        score(params)

    def golden_line(center: tuple[float, ...], dim: int, window: float) -> tuple[float, ...]:
        lo = max(box[dim][0], center[dim] - window)
        hi = min(box[dim][1], center[dim] + window)
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        with_dim = lambda v: center[:dim] + (v,) + center[dim + 1 :]
        f1 = score(with_dim(x1))
        f2 = score(with_dim(x2))
        for _ in range(14):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = score(with_dim(x2))
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = score(with_dim(x1))
        return with_dim(x1 if f1 >= f2 else x2)

    # Phase 2: coordinate refinement around the incumbent.
    windows = [span / per_dim for span in spans]
    for _ in range(10):
        ratio, center = best
        if ratio == -math.inf:
            break
        for dim in range(dims):
            center = golden_line(center, dim, windows[dim])
        windows = [w * 0.4 for w in windows]
        if max(windows) < 1e-7 * max(spans):
            break

    ratio, params = best
    if ratio == -math.inf:
        raise SearchError(f"no feasible candidate in family {family!r} within budget {budget}")
    return SearchResult(family, ratio, params, evaluations, seed)
