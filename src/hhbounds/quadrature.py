"""Adaptive quadrature for mean values, independent of any bound formulas.

The integrator is adaptive Gauss-Kronrod in the style of QUADPACK's QAG
(Piessens et al., 1983).  Each panel is integrated by the 15-point
Kronrod rule, and its 7-point Gauss subset gives the panel's error
estimate |K - G|.  A heap splits the panel with the largest estimate
first, until the summed estimate is at most tol * length, so tol
applies to the mean.  For smooth integrands |K - G| is far larger than
the Kronrod value's true error, so the estimate is conservative; it is
still an estimate, not a proof.  Where K and G agree to the last bit,
|K - G| is 0 for a value that is still rounded, so the reported
estimate is at least QUADPACK's rounding floor, 50 eps times the summed
|panel integral| over the length; the stopping rule does not read it.
The nodes are interior: the endpoints of the interval are never
evaluated.  Values and estimates are summed in left-endpoint order, so
results are bit-identical across runs.

`integrate_mean` evaluates each panel's 15 nodes in one column walk
(`expr.eval_column`).  Where the walk declines, a value is not finite
or the budget ends inside the panel, the panel evaluates its nodes one
at a time in the same order, so values, counts and the first error are
those of the per-point loop.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable

from .core import BudgetError, DomainError, Interval
from .expr import Node, as_node, eval_column, eval_value

_MAX_DEPTH = 56
_MAX_EVALS = 1_000_000

# QUADPACK's rounding floor on an error estimate, per unit of summed |integral|.
_ERR_FLOOR = 50.0 * 2.0 ** -52

TOL_MIN = 1e-13
TOL_MAX = 1e-3

# QUADPACK qk15 on [-1, 1]: the positive Kronrod abscissae in descending
# order, ending at the centre, with their Kronrod weights.  The Gauss
# nodes are the odd-indexed abscissae (the centre included); _WG holds
# their Gauss weights in the same order.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


@dataclass(frozen=True)
class QuadResult:
    """Mean value of f over the interval with an error estimate."""

    value: float
    err_estimate: float
    evaluations: int


def integrate_mean_fn(
    fn: Callable[[float], float],
    iv: Interval,
    tol: float = 1e-10,
    columns: Callable[[list[float]], list[float] | None] | None = None,
) -> QuadResult:
    """Mean of a plain callable over iv; tol applies to the mean value.

    columns, if given, returns fn's values at a panel's 15 nodes in one
    call, or None where it cannot.  Its answer is taken when every value is
    finite and the budget holds all 15; otherwise the panel calls fn node
    by node, with the budget and finiteness checked before and after each
    call, so the columns change no result and no error.

    Each panel's integral and error are formed at the power-of-two scale
    s = 2^-e, e = frexp(length)[1], with s capped at 2^1023, so length*s
    lies in [1/2, 1) except on a length below 2^-1024, where it is
    smaller.  The panels weigh their nodes by (b - a)*(s/2), the goal is
    tol*(length*s), and the sums are divided by length*s at the end.
    Scaling by a power of two is exact, so a mean whose integral passes
    the float range stays finite, a result whose terms stayed in the
    normal range keeps its bits, and a constant keeps its mean on any
    length down to 5e-324.  The goal stays absolute, so values near the
    subnormal range may underflow in the panel sums: the mean of x on
    [0, 1e-320] reads 0.0 for 5e-321.  The reported error is at least
    `_ERR_FLOOR` times the summed |panel integral| over length*s.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    evals = 0
    s = math.ldexp(1.0, min(-math.frexp(iv.length)[1], 1023))
    scaled = iv.length * s
    half_s = 0.5 * s

    def f(x: float) -> float:
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise BudgetError(f"evaluation budget of {_MAX_EVALS} exhausted")
        evals += 1
        v = fn(x)
        if not math.isfinite(v):
            raise DomainError(f"integrand returned non-finite value {v} at x={x}")
        return v

    def values(xs: list[float]) -> list[float]:
        nonlocal evals
        if columns is not None and evals + len(xs) <= _MAX_EVALS:
            vs = columns(xs)
            if vs is not None and (math.isfinite(sum(vs)) or all(map(math.isfinite, vs))):
                evals += len(xs)
                return vs
        return [f(x) for x in xs]

    def panel(a: float, b: float, depth: int) -> tuple[float, float, float, float, int]:
        """(-err, a, b, integral, depth): a heap entry for the G7K15 panel [a, b], at scale s."""
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        # the centre, then each pair of nodes from the outside in
        xs = [c]
        for dx in [h * x for x in _XK[:7]]:
            xs += (c - dx, c + dx)
        fs = values(xs)
        pairs = list(map(operator.add, fs[1::2], fs[2::2]))
        kronrod = _WK[7] * fs[0]
        for w, pair in zip(_WK, pairs):
            kronrod += w * pair
        gauss = _WG[3] * fs[0]
        for w, pair in zip(_WG, pairs[1::2]):
            gauss += w * pair
        hs = (b - a) * half_s
        return -abs(kronrod - gauss) * hs, a, b, kronrod * hs, depth

    heap = [panel(iv.a, iv.b, 0)]
    err = -heap[0][0]
    goal = tol * scaled
    while err > goal:
        neg_err, a, b, _, depth = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if depth >= _MAX_DEPTH:
            raise BudgetError(f"refinement depth {_MAX_DEPTH} exhausted near x={m}")
        left = panel(a, m, depth + 1)
        right = panel(m, b, depth + 1)
        err += neg_err - left[0] - right[0]
        heapq.heappush(heap, left)
        heapq.heappush(heap, right)
    heap.sort(key=lambda p: p[1])
    # a plain left-to-right sum: `sum()` of floats is compensated from
    # Python 3.12 on, and would make the result depend on the interpreter
    integral = err = magnitude = 0.0
    for p in heap:
        integral += p[3]
        err -= p[0]
        magnitude += abs(p[3])
    return QuadResult(integral / scaled, max(err, _ERR_FLOOR * magnitude) / scaled, evals)


def integrate_mean(f: Node | str, iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Mean of an expression over iv: integral of f divided by length."""
    node = as_node(f)
    return integrate_mean_fn(
        lambda x: eval_value(node, x), iv, tol, lambda xs: eval_column(node, xs)
    )
