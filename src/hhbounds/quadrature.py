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

TOL_MIN = 1e-13
TOL_MAX = 1e-3


@dataclass(frozen=True)
class QuadResult:
    """Mean value of f over the interval with an error estimate."""

    value: float
    err_estimate: float
    evaluations: int


class _Integrator:
    def __init__(self, fn: Callable[[float], float], max_evals: int):
        self.fn = fn
        self.max_evals = max_evals
        self.evals = 0

    def eval(self, x: float) -> float:
        if self.evals >= self.max_evals:
            raise BudgetError(f"evaluation budget of {self.max_evals} exhausted")
        self.evals += 1
        v = self.fn(x)
        if not math.isfinite(v):
            raise DomainError(f"integrand returned non-finite value {v} at x={x}")
        return v

    def run(self, a: float, b: float, tol_integral: float) -> tuple[float, float]:
        fa = self.eval(a)
        m = 0.5 * (a + b)
        fm = self.eval(m)
        fb = self.eval(b)
        s = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        return self._panel(a, b, fa, fm, fb, s, tol_integral, 0)

    def _panel(
        self,
        a: float,
        b: float,
        fa: float,
        fm: float,
        fb: float,
        s: float,
        tol: float,
        depth: int,
    ) -> tuple[float, float]:
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = self.eval(lm)
        frm = self.eval(rm)
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = sl + sr - s
        if abs(delta) <= 15.0 * tol:
            return sl + sr + delta / 15.0, abs(delta) / 15.0
        if depth >= _MAX_DEPTH:
            raise BudgetError(f"refinement depth {_MAX_DEPTH} exhausted near x={m}")
        lv, le = self._panel(a, m, fa, flm, fm, sl, 0.5 * tol, depth + 1)
        rv, re = self._panel(m, b, fm, frm, fb, sr, 0.5 * tol, depth + 1)
        return lv + rv, le + re


def integrate_mean_fn(
    fn: Callable[[float], float],
    iv: Interval,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
) -> QuadResult:
    """Mean of a plain callable over iv; tol applies to the mean value."""
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    worker = _Integrator(fn, max_evals)
    integral, err = worker.run(iv.a, iv.b, tol * iv.length)
    return QuadResult(integral / iv.length, err / iv.length, worker.evals)


def integrate_mean(
    f: Node | str,
    iv: Interval,
    tol: float = 1e-10,
    max_evals: int = 1_000_000,
) -> QuadResult:
    """Mean of an expression over iv: integral of f divided by length."""
    node = as_node(f)
    return integrate_mean_fn(lambda x: eval_value(node, x), iv, tol, max_evals)
