"""Order-4 Taylor jets: exact derivatives f, f', f'', f''', f''''.

A jet is carried internally as Taylor coefficients (c0..c4) about the
evaluation point and converted to raw derivatives at the boundary.
Composition uses truncated polynomial arithmetic in w = u - u(x0),
which is exact through degree 4 because w has no constant term.

`JETS` is the jet arithmetic that `expr.evaluate` runs a tree under; the
same walker computes plain values under `expr.FLOATS`.  The walker checks
every domain rule of the language on c0, so the functions here assume
their arguments lie inside the domain.  They check only rules about
derivatives: abs is not differentiable at 0, a non-integer power of a
base that vanishes at the point needs the base to be non-negative beside
it, and the reciprocal inside a negative integer power refuses a power
that underflows to zero.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import DomainError
from .expr import Node, as_node, evaluate

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

Coeffs = tuple[float, float, float, float, float]


@dataclass(frozen=True)
class Jet4:
    """Taylor data of f at a point: coefficients c_k = f^(k)(point)/k!."""

    point: float
    coefficients: Coeffs

    @property
    def value(self) -> float:
        return self.coefficients[0]

    @property
    def derivatives(self) -> Coeffs:
        """Raw derivatives (f, f', f'', f''', f'''') recovered as k!*c_k."""
        return tuple(self.coefficients[k] * _FACT[k] for k in range(5))  # type: ignore[return-value]

_ZERO: Coeffs = (0.0, 0.0, 0.0, 0.0, 0.0)


def _const(v: float) -> Coeffs:
    return (v, 0.0, 0.0, 0.0, 0.0)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x - y for x, y in zip(a, b))  # type: ignore[return-value]


def _neg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)  # type: ignore[return-value]


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [0.0] * 5
    for i in range(5):
        ai = a[i]
        if ai == 0.0:
            continue
        for j in range(5 - i):
            out[i + j] += ai * b[j]
    return tuple(out)  # type: ignore[return-value]


def _div(a: Coeffs, b: Coeffs) -> Coeffs:
    if b[0] == 0.0:
        raise DomainError("division by zero")
    out = [0.0] * 5
    for k in range(5):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc / b[0]
    return tuple(out)  # type: ignore[return-value]


def _compose(derivs: tuple[float, float, float, float, float], u: Coeffs) -> Coeffs:
    """Taylor coefficients of g(u(x)) from g's derivatives at u[0]."""
    w: Coeffs = (0.0, u[1], u[2], u[3], u[4])
    coeffs = [derivs[k] / _FACT[k] for k in range(5)]
    acc = _const(coeffs[4])
    for k in (3, 2, 1, 0):
        acc = _add(_mul(acc, w), _const(coeffs[k]))
    return acc


def _falling(r: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= r - j
    return out


def _pow_regular(u: Coeffs, r: float) -> Coeffs:
    """u^r for u[0] > 0 via derivative-table composition."""
    u0 = u[0]
    derivs = tuple(_falling(r, k) * u0 ** (r - k) for k in range(5))
    return _compose(derivs, u)  # type: ignore[arg-type]


def _pow_int(u: Coeffs, e: int) -> Coeffs:
    if e == 0:
        return _const(1.0)
    if e < 0:
        return _div(_const(1.0), _pow_int(u, -e))
    acc = _const(1.0)
    base = u
    n = e
    while n:
        if n & 1:
            acc = _mul(acc, base)
        base = _mul(base, base)
        n >>= 1
    return acc


def _pow_zero_base(u: Coeffs, r: float) -> Coeffs:
    """u^r when u vanishes at the point and r is a positive non-integer.

    Writes u = h^m * v with v(0) = first nonzero coefficient; demands
    that coefficient be positive (otherwise u < 0 just off the point).
    The result behaves like h^(m*r): derivatives below that order are
    zero, the rest are infinite with the sign of the falling factorial,
    unless m*r lands on an integer grid in which case v^r shifts up.
    """
    m = next((k for k in range(1, 5) if u[k] != 0.0), None)
    if m is None:
        return _ZERO
    if u[m] < 0.0:
        raise DomainError(f"base vanishing from below raised to non-integer power {r}")
    e = m * r
    v: Coeffs = tuple(u[m + k] if m + k < 5 else 0.0 for k in range(5))  # type: ignore[assignment]
    d = _pow_regular(v, r)
    out = [0.0] * 5
    if e == int(e):
        ei = int(e)
        for k in range(ei, 5):
            out[k] = d[k - ei]
    else:
        for k in range(5):
            if k > e:
                out[k] = math.copysign(math.inf, _falling(e, k) / _FACT[k])
    return tuple(out)  # type: ignore[return-value]


def _pow(u: Coeffs, r: float) -> Coeffs:
    if r == int(r):
        return _pow_int(u, int(r))
    if u[0] > 0.0:
        return _pow_regular(u, r)
    return _pow_zero_base(u, r)


def _exp(u: Coeffs) -> Coeffs:
    e = math.exp(u[0])
    return _compose((e, e, e, e, e), u)


def _log(u: Coeffs) -> Coeffs:
    u0 = u[0]
    i = 1.0 / u0
    return _compose((math.log(u0), i, -i * i, 2.0 * i ** 3, -6.0 * i ** 4), u)


def _abs(u: Coeffs) -> Coeffs:
    if u[0] > 0.0:
        return u
    if u[0] < 0.0:
        return _neg(u)
    raise DomainError("abs is not differentiable at 0")


def _sin(u: Coeffs) -> Coeffs:
    s, c = math.sin(u[0]), math.cos(u[0])
    return _compose((s, c, -s, -c, s), u)


def _cos(u: Coeffs) -> Coeffs:
    s, c = math.sin(u[0]), math.cos(u[0])
    return _compose((c, -s, -c, s, c), u)


# The jet arithmetic for expr.evaluate; expr.FLOATS documents the keys.
JETS = {
    "const": _const,
    "head": operator.itemgetter(0),
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "^": _pow,
    "hyp": lambda u, softness: _pow_regular(_add(_mul(u, u), _const(softness ** 2)), 0.5),
    "neg": _neg,
    "exp": _exp,
    "log": _log,
    "sqrt": lambda u: _pow(u, 0.5),
    "abs": _abs,
    "sin": _sin,
    "cos": _cos,
}


def eval_jet(f: Node | str, x: float) -> Jet4:
    """Taylor coefficients c0..c4 of f at x."""
    return Jet4(x, evaluate(as_node(f), (x, 1.0, 0.0, 0.0, 0.0), JETS))
