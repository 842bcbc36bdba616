"""Adaptive quadrature for mean values, independent of any bound formulas.

The integrator is plain adaptive Simpson with Richardson extrapolation:
a panel is accepted when its two-half refinement agrees with the parent
estimate to 15x the panel tolerance, and the extrapolated value
S2 + (S2 - S1)/15 is kept.  Splitting is deterministic (left half fully
resolved before the right), so results are bit-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import BudgetError, DomainError, Interval
from .expr import Node, as_node, eval_value

_MAX_DEPTH = 56
_MAX_EVALS = 1_000_000

TOL_MIN = 1e-13
TOL_MAX = 1e-3


@dataclass(frozen=True)
class QuadResult:
    """Mean value of f over the interval with an error estimate."""

    value: float
    err_estimate: float
    evaluations: int


def integrate_mean_fn(fn: Callable[[float], float], iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Mean of a plain callable over iv; tol applies to the mean value."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        if evals >= _MAX_EVALS:
            raise BudgetError(f"evaluation budget of {_MAX_EVALS} exhausted")
        evals += 1
        v = fn(x)
        if not math.isfinite(v):
            raise DomainError(f"integrand returned non-finite value {v} at x={x}")
        return v

    def panel(
        a: float, b: float, fa: float, fm: float, fb: float, s: float, tol: float, depth: int
    ) -> tuple[float, float]:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = sl + sr - s
        if abs(delta) <= 15.0 * tol:
            return sl + sr + delta / 15.0, abs(delta) / 15.0
        if depth >= _MAX_DEPTH:
            raise BudgetError(f"refinement depth {_MAX_DEPTH} exhausted near x={m}")
        lv, le = panel(a, m, fa, flm, fm, sl, 0.5 * tol, depth + 1)
        rv, re = panel(m, b, fm, frm, fb, sr, 0.5 * tol, depth + 1)
        return lv + rv, le + re

    a, b = iv.a, iv.b
    fa = f(a)
    fm = f(0.5 * (a + b))
    fb = f(b)
    s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    integral, err = panel(a, b, fa, fm, fb, s, tol * iv.length, 0)
    return QuadResult(integral / iv.length, err / iv.length, evals)


def integrate_mean(f: Node | str, iv: Interval, tol: float = 1e-10) -> QuadResult:
    """Mean of an expression over iv: integral of f divided by length."""
    node = as_node(f)
    return integrate_mean_fn(lambda x: eval_value(node, x), iv, tol)
