"""Taylor jets of order 2 or 4: exact derivatives f, f', f'' and f''', f''''.

A jet is carried internally as Taylor coefficients (c0..cd) about the
evaluation point and converted to raw derivatives at the boundary.  The
arithmetic is length-generic: a jet's order is the length of its seed
minus one, and every operation truncates at the shorter operand, so an
order-2 jet never forms f''' or f'''' terms.  Truncated Taylor arithmetic
never feeds coefficient k+1 into coefficient k, and the loops below sum
in the same order at every length, so an order-2 f'' equals the order-4
f'' bit for bit.  The exception is an argument of a composition with an
infinite coefficient: order 4 forms infinite terms that order 2 never
forms (g''' times an infinite u'', say), they meet w[0] = 0, and the
order-4 f'' comes out NaN where the order-2 f'' keeps its value.
Constants are lifted at order 4 and cut down by the first operation that
meets a shorter jet.  Composition uses truncated polynomial arithmetic
in w = u - u(x0), which is exact through degree d because w has no
constant term.

One case reads past the order it returns: a non-integer power of a base
that vanishes at the point with a vanishing first coefficient, whose
leading behaviour sits in coefficients 2..4.  An order-2 jet that reaches
it is evaluated again at order 4 and cut down to order 2.

`JETS` is the jet arithmetic that `expr.evaluate` runs a tree under; the
same walker computes plain values under `expr.FLOATS`.  The walker checks
every domain rule of the language on c0, so the functions here assume
their arguments lie inside the domain.  They check only rules about
derivatives: abs is not differentiable at 0, a non-integer power of a
base that vanishes at the point needs the base to be non-negative beside
it.  An integer power raises OverflowError where the float power does.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import DomainError
from .expr import Node, as_node, evaluate

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

Coeffs = tuple[float, ...]

# Seed of the variable x at each supported order: x0 + 1*h.
_SEEDS = {2: (1.0, 0.0), 4: (1.0, 0.0, 0.0, 0.0)}


@dataclass(frozen=True)
class Jet4:
    """Taylor data of f at a point: coefficients c_k = f^(k)(point)/k!.

    An order-d jet has d + 1 coefficients; `eval_jet` makes order 4
    unless asked for order 2.
    """

    point: float
    coefficients: Coeffs

    @property
    def value(self) -> float:
        return self.coefficients[0]

    @property
    def derivatives(self) -> Coeffs:
        """Raw derivatives (f, f', f'', ...) recovered as k!*c_k."""
        return tuple(c * f for c, f in zip(self.coefficients, _FACT))


class _NeedsOrder4(Exception):
    """A shorter jet reached a power that reads coefficients past its order."""


def _const(v: float, n: int = len(_FACT)) -> Coeffs:
    return (v,) + (0.0,) * (n - 1)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Coeffs) -> Coeffs:
    return tuple(-x for x in a)


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    n = min(len(a), len(b))
    out = [0.0] * n
    for i in range(n):
        ai = a[i]
        if ai == 0.0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return tuple(out)


def _div(a: Coeffs, b: Coeffs) -> Coeffs:
    if b[0] == 0.0:
        raise DomainError("division by zero")
    n = min(len(a), len(b))
    out = [0.0] * n
    for k in range(n):
        acc = a[k]
        for j in range(1, k + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc / b[0]
    return tuple(out)


def _compose(derivs: Coeffs, u: Coeffs) -> Coeffs:
    """Taylor coefficients of g(u(x)) from g's derivatives at u[0].

    derivs holds g, g', ... to at least the order of u.  Horner's rule in
    w = u - u[0], with `_mul` and `_add` fused: the terms of each product
    are summed in `_mul`'s order, and w[0] = 0 still multiplies, so an
    infinite coefficient still turns into NaN as it does there.
    """
    n = len(u)
    acc = [0.0] * n
    acc[0] = derivs[n - 1] / _FACT[n - 1]
    for k in range(n - 2, -1, -1):
        out = [0.0] * n
        for i in range(n):
            ai = acc[i]
            if ai == 0.0:
                continue
            out[i] += ai * 0.0
            for j in range(1, n - i):
                out[i + j] += ai * u[j]
        out[0] += derivs[k] / _FACT[k]
        acc = out
    return tuple(acc)


def _falling(r: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= r - j
    return out


def _pow_regular(u: Coeffs, r: float) -> Coeffs:
    """u^r for u[0] > 0 via derivative-table composition."""
    u0 = u[0]
    derivs = tuple(_falling(r, k) * u0 ** (r - k) for k in range(len(u)))
    return _compose(derivs, u)


def _pow_int(u: Coeffs, e: int) -> Coeffs:
    """u^e by repeated squaring, and a reciprocal when e < 0.

    Raises OverflowError where the float power would: when the value
    leaves the float range, or when a negative power takes the reciprocal
    of a power that underflowed to zero.
    """
    acc = _const(1.0, len(u))
    base = u
    n = abs(e)
    while n:
        if n & 1:
            acc = _mul(acc, base)
        base = _mul(base, base)
        n >>= 1
    if e < 0:
        if acc[0] == 0.0:
            raise OverflowError(f"power {-e} underflows to 0")
        acc = _div(_const(1.0, len(u)), acc)
    if not math.isfinite(acc[0]) and math.isfinite(u[0]):
        raise OverflowError(f"power {e} leaves the float range")
    return acc


def _pow_zero_base(u: Coeffs, r: float) -> Coeffs:
    """u^r when u vanishes at the point and r is a positive non-integer.

    Writes u = h^m * v with v(0) = first nonzero coefficient; demands
    that coefficient be positive (otherwise u < 0 just off the point).
    The result behaves like h^(m*r): derivatives below that order are
    zero, the rest are infinite with the sign of the falling factorial,
    unless m*r lands on an integer grid in which case v^r shifts up.
    With m > 1 the answer depends on coefficients past order 2, so an
    order-2 jet asks `eval_jet` for order 4.
    """
    n = len(u)
    if n < len(_FACT) and u[1] == 0.0:
        raise _NeedsOrder4
    m = next((k for k in range(1, n) if u[k] != 0.0), None)
    if m is None:
        return _const(0.0, n)
    if u[m] < 0.0:
        raise DomainError(f"base vanishing from below raised to non-integer power {r}")
    e = m * r
    v = tuple(u[m + k] if m + k < n else 0.0 for k in range(n))
    d = _pow_regular(v, r)
    out = [0.0] * n
    if e == int(e):
        ei = int(e)
        for k in range(ei, n):
            out[k] = d[k - ei]
    else:
        for k in range(n):
            if k > e:
                out[k] = math.copysign(math.inf, _falling(e, k) / _FACT[k])
    return tuple(out)


def _pow(u: Coeffs, r: float) -> Coeffs:
    if r == int(r):
        return _pow_int(u, int(r))
    if u[0] > 0.0:
        return _pow_regular(u, r)
    return _pow_zero_base(u, r)


def _exp(u: Coeffs) -> Coeffs:
    return _compose((math.exp(u[0]),) * len(u), u)


def _log(u: Coeffs) -> Coeffs:
    u0 = u[0]
    i = 1.0 / u0
    derivs = (math.log(u0), i, -i * i)
    if len(u) > 3:
        derivs += (2.0 * i ** 3, -6.0 * i ** 4)
    return _compose(derivs, u)


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
    "hyp": lambda u, softness: _pow_regular(_add(_mul(u, u), _const(softness ** 2, len(u))), 0.5),
    "neg": _neg,
    "exp": _exp,
    "log": _log,
    "sqrt": lambda u: _pow(u, 0.5),
    "abs": _abs,
    "sin": _sin,
    "cos": _cos,
}


def eval_jet(f: Node | str, x: float, order: int = 4) -> Jet4:
    """Taylor coefficients c0..c_order of f at x; order is 2 or 4."""
    seed = _SEEDS.get(order)
    if seed is None:
        raise ValueError(f"jet order must be 2 or 4, got {order!r}")
    node = as_node(f)
    try:
        coeffs = evaluate(node, (x, *seed), JETS)
    except _NeedsOrder4:
        coeffs = evaluate(node, (x, *_SEEDS[4]), JETS)
    # a tree without x stays at the order constants are lifted at
    return Jet4(x, coeffs[: order + 1])
