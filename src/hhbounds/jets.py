"""Order-4 Taylor jets: exact derivatives f, f', f'', f''', f''''.

A jet is carried internally as Taylor coefficients (c0..c4) about the
evaluation point and converted to raw derivatives at the boundary.
Composition uses truncated polynomial arithmetic in w = u - u(x0),
which is exact through degree 4 because w has no constant term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError
from .expr import BinOp, Const, Hyp, Node, Pow, Unary, Var, as_node

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
        if u[0] == 0.0:
            raise DomainError("zero raised to a negative power")
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
    """u^r when u vanishes at the point and r is not an integer.

    Writes u = h^m * v with v(0) = first nonzero coefficient; demands
    that coefficient be positive (otherwise u < 0 just off the point).
    The result behaves like h^(m*r): derivatives below that order are
    zero, the rest are infinite with the sign of the falling factorial,
    unless m*r lands on an integer grid in which case v^r shifts up.
    """
    m = next((k for k in range(1, 5) if u[k] != 0.0), None)
    if m is None:
        if r > 0.0:
            return _ZERO
        raise DomainError("zero raised to a negative power")
    if u[m] < 0.0:
        raise DomainError(f"negative base with non-integer exponent {r}")
    if r < 0.0:
        raise DomainError("vanishing base raised to a negative power")
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
    if u[0] == 0.0:
        return _pow_zero_base(u, r)
    raise DomainError(f"negative base {u[0]} with non-integer exponent {r}")


def _jet(node: Node, x: float) -> Coeffs:
    if isinstance(node, Const):
        return _const(node.value)
    if isinstance(node, Var):
        return (x, 1.0, 0.0, 0.0, 0.0)
    if isinstance(node, BinOp):
        lv = _jet(node.left, x)
        rv = _jet(node.right, x)
        if node.op == "+":
            return _add(lv, rv)
        if node.op == "-":
            return _sub(lv, rv)
        if node.op == "*":
            return _mul(lv, rv)
        return _div(lv, rv)
    if isinstance(node, Pow):
        return _pow(_jet(node.base, x), node.exponent)
    if isinstance(node, Hyp):
        u = _jet(node.arg, x)
        w = _add(_mul(u, u), _const(node.softness ** 2))
        return _pow_regular(w, 0.5)
    if isinstance(node, Unary):
        if node.fn == "neg":
            return _neg(_jet(node.arg, x))
        u = _jet(node.arg, x)
        u0 = u[0]
        if node.fn == "exp":
            e = math.exp(u0)
            return _compose((e, e, e, e, e), u)
        if node.fn == "log":
            if u0 <= 0.0:
                raise DomainError(f"log of non-positive value {u0}")
            i = 1.0 / u0
            return _compose((math.log(u0), i, -i * i, 2.0 * i ** 3, -6.0 * i ** 4), u)
        if node.fn == "sqrt":
            if u0 < 0.0:
                raise DomainError(f"sqrt of negative value {u0}")
            return _pow(u, 0.5)
        if node.fn == "abs":
            if u0 > 0.0:
                return u
            if u0 < 0.0:
                return _neg(u)
            raise DomainError("abs is not differentiable at 0")
        if node.fn == "sin":
            s, c = math.sin(u0), math.cos(u0)
            return _compose((s, c, -s, -c, s), u)
        if node.fn == "cos":
            s, c = math.sin(u0), math.cos(u0)
            return _compose((c, -s, -c, s, c), u)
    raise TypeError(f"unknown node {node!r}")


_NAN_COEFFS: Coeffs = (math.nan,) * 5  # type: ignore[assignment]


def eval_jet(f: Node | str, x: float, domain_guard: bool = True) -> Jet4:
    """Taylor coefficients c0..c4 of f at x.

    With domain_guard=False a domain violation yields a NaN jet instead
    of raising, so samplers can probe near singular points safely.
    """
    node = as_node(f)
    try:
        c = _jet(node, x)
    except DomainError:
        if domain_guard:
            raise
        return Jet4(x, _NAN_COEFFS)
    return Jet4(x, c)

