"""Taylor jets of order 2 or 4: exact derivatives f, f', f'' and f''', f''''.

A jet is carried internally as Taylor coefficients (c0..cd) about the
evaluation point and converted to raw derivatives at the boundary.  The
arithmetic is length-generic: a jet's order is the length of its seed
minus one, and every operation truncates at the shorter operand, so an
order-2 jet never forms f''' or f'''' terms.  Truncated Taylor arithmetic
never feeds coefficient k+1 into coefficient k, and the loops below sum
in the same order at every length, so an order-2 jet equals the first
three coefficients of the order-4 jet bit for bit.  Constants are lifted
at order 4 and cut down by the first operation that meets a shorter jet.
Composition uses truncated polynomial arithmetic in w = u - u(x0), which
is exact through degree d because w has no constant term.

Products, quotients and compositions are truncated Taylor arithmetic
(Griewank and Walther, Evaluating Derivatives, 2008).  Loops spend most
of their time on interpreter overhead, so four kernels spell out the two
lengths that occur, 3 and 5 coefficients, as straight-line code, each
beside its reference loop: `_mul` (`_mul_loop`), `_div` (`_div_loop`),
`_compose` (`_compose_loop`) and `_pow_table` (`_pow_table_loop`), the
derivative table of a non-integer power.  Each performs its loop's
operations in the loop's order, so every bit matches the loop, the sign
of zero included: a product coefficient starts from 0.0 and adds its
terms; a quotient coefficient starts from a[k], subtracts b[j]*out[k-j]
for j = 1..k and divides by b[0]; a table entry is the falling factorial
1.0*r*(r-1)*... times u0**(r-k).  The product and composition loops skip
a term whose left factor is zero; that changes a result only when the
right operand holds an inf or a NaN (0*inf is NaN), so those straight-line
sums run only when that operand's coefficients sum to a finite value, and
the loops take the rest.  The quotient and table loops skip nothing, so
their straight-line forms run unguarded.  A caller that needs one
derivative reads `Jet4.coefficients` and scales that entry by k!, the
product `Jet4.derivatives` forms for all of them.

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

`JET2_COLUMNS` and `JET4_COLUMNS` are the same arithmetic over a column
of points, one coefficient tuple per point (`jet_column`).  Their
kernels are the straight-line kernels above, written out down the
column in the same order, so each tuple equals `eval_jet` at its point
bit for bit.  A column answers only where every point takes the
straight-line branch and every coefficient is finite; otherwise
`jet_column` returns None and the caller runs `eval_jet` per point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .core import DomainError
from .expr import Fallback, Node, as_node, column_head, evaluate, evaluate_columns

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
        return tuple(map(operator.mul, self.coefficients, _FACT))


class _NeedsOrder4(Exception):
    """A shorter jet reached a power that reads coefficients past its order."""


def _const(v: float, n: int = len(_FACT)) -> Coeffs:
    return (v,) + (0.0,) * (n - 1)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.add, a, b))


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.sub, a, b))


def _neg(a: Coeffs) -> Coeffs:
    return tuple(map(operator.neg, a))


def _mul(a: Coeffs, b: Coeffs) -> Coeffs:
    n = min(len(a), len(b))
    if n == 5 and math.isfinite(sum(b)):
        a0, a1, a2, a3, a4 = a
        b0, b1, b2, b3, b4 = b
        return (
            0.0 + a0 * b0,
            0.0 + a0 * b1 + a1 * b0,
            0.0 + a0 * b2 + a1 * b1 + a2 * b0,
            0.0 + a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            0.0 + a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
        )
    if n == 3 and math.isfinite(sum(b)):
        a0, a1, a2 = a[0], a[1], a[2]
        b0, b1, b2 = b[0], b[1], b[2]
        return (0.0 + a0 * b0, 0.0 + a0 * b1 + a1 * b0, 0.0 + a0 * b2 + a1 * b1 + a2 * b0)
    return _mul_loop(a, b)


def _mul_loop(a: Coeffs, b: Coeffs) -> Coeffs:
    """`_mul` at any length, skipping the terms whose a[i] is zero."""
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
    # b[0] != 0: `evaluate` tests every divisor, `_pow_int` every reciprocal
    n = min(len(a), len(b))
    if n == 5:
        a0, a1, a2, a3, a4 = a
        b0, b1, b2, b3, b4 = b
        q0 = a0 / b0
        q1 = (a1 - b1 * q0) / b0
        q2 = (a2 - b1 * q1 - b2 * q0) / b0
        q3 = (a3 - b1 * q2 - b2 * q1 - b3 * q0) / b0
        return (q0, q1, q2, q3, (a4 - b1 * q3 - b2 * q2 - b3 * q1 - b4 * q0) / b0)
    if n == 3:
        b0, b1, b2 = b[0], b[1], b[2]
        q0 = a[0] / b0
        q1 = (a[1] - b1 * q0) / b0
        return (q0, q1, (a[2] - b1 * q1 - b2 * q0) / b0)
    return _div_loop(a, b)


def _div_loop(a: Coeffs, b: Coeffs) -> Coeffs:
    """`_div` at any length: out[k] = (a[k] - sum of b[j]*out[k-j], j = 1..k) / b[0]."""
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
    are summed in `_mul`'s order.  The product with w[0] = 0 is left out,
    so u[0] is never read and an infinite coefficient never meets it.
    """
    n = len(u)
    # a, b, c, d: the accumulator once derivs[4], [3], [2], [1] are in;
    # coefficients that no later step reads are not formed
    if n == 5 and math.isfinite(sum(u)):
        _, u1, u2, u3, u4 = u
        a0 = derivs[4] / 24.0
        b0 = 0.0 + derivs[3] / 6.0
        b1 = 0.0 + a0 * u1
        c0 = 0.0 + derivs[2] / 2.0
        c1 = 0.0 + b0 * u1
        c2 = 0.0 + b0 * u2 + b1 * u1
        d0 = 0.0 + derivs[1]
        d1 = 0.0 + c0 * u1
        d2 = 0.0 + c0 * u2 + c1 * u1
        d3 = 0.0 + c0 * u3 + c1 * u2 + c2 * u1
        return (
            0.0 + derivs[0],
            0.0 + d0 * u1,
            0.0 + d0 * u2 + d1 * u1,
            0.0 + d0 * u3 + d1 * u2 + d2 * u1,
            0.0 + d0 * u4 + d1 * u3 + d2 * u2 + d3 * u1,
        )
    if n == 3 and math.isfinite(sum(u)):
        _, u1, u2 = u
        d0 = 0.0 + derivs[1]
        d1 = 0.0 + derivs[2] / 2.0 * u1
        return (0.0 + derivs[0], 0.0 + d0 * u1, 0.0 + d0 * u2 + d1 * u1)
    return _compose_loop(derivs, u)


def _compose_loop(derivs: Coeffs, u: Coeffs) -> Coeffs:
    """`_compose` at any length, skipping the terms whose acc[i] is zero."""
    n = len(u)
    acc = [0.0] * n
    acc[0] = derivs[n - 1] / _FACT[n - 1]
    for k in range(n - 2, -1, -1):
        out = [0.0] * n
        for i in range(n):
            ai = acc[i]
            if ai == 0.0:
                continue
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


def _pow_table(u0: float, r: float, n: int) -> Coeffs:
    """The first n derivatives of t^r at u0: falling(r, k) * u0^(r - k)."""
    if n == 5:
        f1 = 1.0 * r
        f2 = f1 * (r - 1)
        f3 = f2 * (r - 2)
        f4 = f3 * (r - 3)
        return (
            1.0 * u0 ** r,
            f1 * u0 ** (r - 1),
            f2 * u0 ** (r - 2),
            f3 * u0 ** (r - 3),
            f4 * u0 ** (r - 4),
        )
    if n == 3:
        f1 = 1.0 * r
        return (1.0 * u0 ** r, f1 * u0 ** (r - 1), f1 * (r - 1) * u0 ** (r - 2))
    return _pow_table_loop(u0, r, n)


def _pow_table_loop(u0: float, r: float, n: int) -> Coeffs:
    """`_pow_table` at any length."""
    return tuple(_falling(r, k) * u0 ** (r - k) for k in range(n))


def _pow_regular(u: Coeffs, r: float) -> Coeffs:
    """u^r for u[0] > 0 via derivative-table composition."""
    return _compose(_pow_table(u[0], r, len(u)), u)


def _pow_int(u: Coeffs, e: int) -> Coeffs:
    """u^e by repeated squaring, and a reciprocal when e < 0.

    The first product is at the lowest set bit of |e| and the last square
    at the highest, so u^4 costs two products.  Raises OverflowError where the float power
    would: when the value leaves the float range, or when a negative power
    takes the reciprocal of a power that underflowed to zero.
    """
    n = abs(e)
    acc = _const(1.0, len(u)) if n == 0 else None
    base = u
    while n:
        if n & 1:
            acc = base if acc is None else _mul(acc, base)
        n >>= 1
        if n:
            base = _mul(base, base)
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
    out = [0.0] * n
    if e == int(e):
        v = tuple(u[m + k] if m + k < n else 0.0 for k in range(n))
        d = _pow_regular(v, r)
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


# Below this h, 12/h^3, a bound on the last entry of `_hyp`'s table and on its
# partial quotients, leaves the float range, so `_hyp` scales u first.  Above it
# the table is finite unscaled, and scaling would only push u's powers past the range.
_HYP_TINY = 4.1e-103


def _hyp(u: Coeffs, softness: float) -> Coeffs:
    """hyp(u, eps) composed from g(t) = sqrt(t^2 + eps^2) at t = u0.

    g's derivatives are written in ratios to h = hypot(u0, eps): with
    c = u0/h and s = eps/h, g' = c, g'' = s^2/h, g''' = -3 s^2 c/h^2 and
    g'''' = 3 s^2 (4c^2 - s^2)/h^3.  No square of u0 or eps is formed, and
    g'' is a product, so it cannot cancel below 0.  Below `_HYP_TINY`,
    where 1/h^3 would overflow, u and eps are divided by the power of two
    just above h, which brings h into [1/2, 1), and the result is
    multiplied back; a power of two rounds nothing inside the float range.
    Raises OverflowError only where the value h leaves the float range.
    """
    h = math.hypot(u[0], softness)
    if h == math.inf and math.isfinite(u[0]):
        raise OverflowError("hyp leaves the float range")
    unit = math.ldexp(1.0, math.frexp(h)[1]) if h < _HYP_TINY else 1.0
    u = tuple(v / unit for v in u)
    h /= unit
    c = u[0] / h
    s2 = (softness / unit / h) ** 2
    table = (h, c, s2 / h, -3.0 * s2 * c / h / h, 3.0 * s2 * (4.0 * c * c - s2) / h / h / h)
    return tuple(v * unit for v in _compose(table, u))


def _exp(u: Coeffs) -> Coeffs:
    return _compose((math.exp(u[0]),) * len(u), u)


def _log(u: Coeffs) -> Coeffs:
    # log(u) = log(u0) + log(1 + t) with t = u/u0 - 1: the table is that
    # of log(1 + t) at 0, so no power of 1/u0 can overflow.
    u0 = u[0]
    return _compose((math.log(u0), 1.0, -1.0, 2.0, -6.0), tuple(c / u0 for c in u))


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
    "hyp": _hyp,
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


# --- columns -----------------------------------------------------------------
#
# A jet column holds one coefficient tuple per point, all of one length, 3 or
# 5, and each operation runs its straight-line kernel down the column with the
# scalar kernel's operations in the scalar kernel's order.  It answers only where
# every point would take the scalar kernel's straight-line branch: the right
# operand of a product and the inner jet of a composition are finite everywhere,
# every base of a non-integer power is positive, abs sees one sign.  Otherwise,
# and where an integer power or hyp would overflow, it raises `Fallback`.  The
# guards read a plain `sum()`, which is no result arithmetic: a finite sum
# means every term is finite.


def _finite(column: list[Coeffs]) -> bool:
    return math.isfinite(sum(itertools.chain.from_iterable(column)))


def _add3(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    return [(a0 + b0, a1 + b1, a2 + b2) for (a0, a1, a2), (b0, b1, b2) in zip(a, b)]


def _add5(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    return [
        (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4)
        for (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) in zip(a, b)
    ]


def _sub3(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    return [(a0 - b0, a1 - b1, a2 - b2) for (a0, a1, a2), (b0, b1, b2) in zip(a, b)]


def _sub5(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    return [
        (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4)
        for (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) in zip(a, b)
    ]


def _neg3(a: list[Coeffs]) -> list[Coeffs]:
    return [(-a0, -a1, -a2) for a0, a1, a2 in a]


def _neg5(a: list[Coeffs]) -> list[Coeffs]:
    return [(-a0, -a1, -a2, -a3, -a4) for a0, a1, a2, a3, a4 in a]


def _over_head3(a: list[Coeffs]) -> list[Coeffs]:
    """Each jet divided by its own c0, as `_log` scales its argument."""
    return [(a0 / a0, a1 / a0, a2 / a0) for a0, a1, a2 in a]


def _over_head5(a: list[Coeffs]) -> list[Coeffs]:
    return [(a0 / a0, a1 / a0, a2 / a0, a3 / a0, a4 / a0) for a0, a1, a2, a3, a4 in a]


def _mul3(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    if not _finite(b):
        raise Fallback
    return [
        (0.0 + a0 * b0, 0.0 + a0 * b1 + a1 * b0, 0.0 + a0 * b2 + a1 * b1 + a2 * b0)
        for (a0, a1, a2), (b0, b1, b2) in zip(a, b)
    ]


def _mul5(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    if not _finite(b):
        raise Fallback
    return [
        (
            0.0 + a0 * b0,
            0.0 + a0 * b1 + a1 * b0,
            0.0 + a0 * b2 + a1 * b1 + a2 * b0,
            0.0 + a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
            0.0 + a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0,
        )
        for (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) in zip(a, b)
    ]


def _div3(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    out = []
    for (a0, a1, a2), (b0, b1, b2) in zip(a, b):
        q0 = a0 / b0
        q1 = (a1 - b1 * q0) / b0
        out.append((q0, q1, (a2 - b1 * q1 - b2 * q0) / b0))
    return out


def _div5(a: list[Coeffs], b: list[Coeffs]) -> list[Coeffs]:
    out = []
    for (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) in zip(a, b):
        q0 = a0 / b0
        q1 = (a1 - b1 * q0) / b0
        q2 = (a2 - b1 * q1 - b2 * q0) / b0
        q3 = (a3 - b1 * q2 - b2 * q1 - b3 * q0) / b0
        out.append((q0, q1, q2, q3, (a4 - b1 * q3 - b2 * q2 - b3 * q1 - b4 * q0) / b0))
    return out


def _compose3(tables: list[Coeffs], u: list[Coeffs]) -> list[Coeffs]:
    """`_compose` down a column, each point with its own derivative table."""
    if not _finite(u):
        raise Fallback
    out = []
    for (g0, g1, g2), (_, u1, u2) in zip(tables, u):
        d0 = 0.0 + g1
        d1 = 0.0 + g2 / 2.0 * u1
        out.append((0.0 + g0, 0.0 + d0 * u1, 0.0 + d0 * u2 + d1 * u1))
    return out


def _compose5(tables: list[Coeffs], u: list[Coeffs]) -> list[Coeffs]:
    if not _finite(u):
        raise Fallback
    out = []
    for (g0, g1, g2, g3, g4), (_, u1, u2, u3, u4) in zip(tables, u):
        a0 = g4 / 24.0
        b0 = 0.0 + g3 / 6.0
        b1 = 0.0 + a0 * u1
        c0 = 0.0 + g2 / 2.0
        c1 = 0.0 + b0 * u1
        c2 = 0.0 + b0 * u2 + b1 * u1
        d0 = 0.0 + g1
        d1 = 0.0 + c0 * u1
        d2 = 0.0 + c0 * u2 + c1 * u1
        d3 = 0.0 + c0 * u3 + c1 * u2 + c2 * u1
        out.append((
            0.0 + g0,
            0.0 + d0 * u1,
            0.0 + d0 * u2 + d1 * u1,
            0.0 + d0 * u3 + d1 * u2 + d2 * u1,
            0.0 + d0 * u4 + d1 * u3 + d2 * u2 + d3 * u1,
        ))
    return out


def _pow_tables3(heads: list[float], r: float) -> list[Coeffs]:
    f1 = 1.0 * r
    f2 = f1 * (r - 1)
    return [(1.0 * u0 ** r, f1 * u0 ** (r - 1), f2 * u0 ** (r - 2)) for u0 in heads]


def _pow_tables5(heads: list[float], r: float) -> list[Coeffs]:
    f1 = 1.0 * r
    f2 = f1 * (r - 1)
    f3 = f2 * (r - 2)
    f4 = f3 * (r - 3)
    return [
        (
            1.0 * u0 ** r,
            f1 * u0 ** (r - 1),
            f2 * u0 ** (r - 2),
            f3 * u0 ** (r - 3),
            f4 * u0 ** (r - 4),
        )
        for u0 in heads
    ]


def _column_arithmetic(n: int, straight: dict, compose, pow_tables, over_head) -> dict:
    """The column arithmetic of n-coefficient jets from its straight-line kernels:
    straight holds +, -, *, / and neg; the rest are built on compose."""
    mul, div = straight["*"], straight["/"]
    one = _const(1.0, n)

    def pow_int(u: list[Coeffs], e: int) -> list[Coeffs]:
        # `_pow_int`; where it would raise OverflowError, the column falls back
        k = abs(e)
        acc = [one] * len(u) if k == 0 else None
        base = u
        while k:
            if k & 1:
                acc = base if acc is None else mul(acc, base)
            k >>= 1
            if k:
                base = mul(base, base)
        if e < 0:  # a power that underflowed to 0 divides by zero
            acc = div([one] * len(u), acc)
        if not math.isfinite(sum([c[0] for c in acc])):
            raise Fallback
        return acc

    def power(u: list[Coeffs], r: float) -> list[Coeffs]:
        if r == int(r):
            return pow_int(u, int(r))
        heads = [c[0] for c in u]
        if column_head(heads) > 0.0:
            return compose(pow_tables(heads, r), u)
        raise Fallback

    def hyp(u: list[Coeffs], softness: float) -> list[Coeffs]:
        # `_hyp` point by point; compose reads the first n entries of each table
        tables, scaled, units = [], [], []
        for c in u:
            h = math.hypot(c[0], softness)
            if h == math.inf:
                raise Fallback
            unit = math.ldexp(1.0, math.frexp(h)[1]) if h < _HYP_TINY else 1.0
            if unit != 1.0:  # dividing or multiplying by 1.0 changes no bit
                c = tuple(v / unit for v in c)
                h /= unit
            cos = c[0] / h
            s2 = (softness / unit / h) ** 2
            table = (h, cos, s2 / h)
            if n == 5:
                table += (-3.0 * s2 * cos / h / h, 3.0 * s2 * (4.0 * cos * cos - s2) / h / h / h)
            tables.append(table)
            scaled.append(c)
            units.append(unit)
        out = compose(tables, scaled)
        return [c if unit == 1.0 else tuple(v * unit for v in c) for c, unit in zip(out, units)]

    def exp(u: list[Coeffs]) -> list[Coeffs]:
        return compose([(e,) * n for e in map(math.exp, [c[0] for c in u])], u)

    log_tail = (1.0, -1.0, 2.0, -6.0)[: n - 1]

    def log(u: list[Coeffs]) -> list[Coeffs]:
        return compose([(math.log(c[0]),) + log_tail for c in u], over_head(u))

    def trig(table):
        def fn(u: list[Coeffs]) -> list[Coeffs]:
            heads = [c[0] for c in u]
            tables = map(table, map(math.sin, heads), map(math.cos, heads))
            return compose([t[:n] for t in tables], u)

        return fn

    def absolute(u: list[Coeffs]) -> list[Coeffs]:
        heads = [c[0] for c in u]
        if column_head(heads) > 0.0:
            return u
        if max(heads) < 0.0:
            return straight["neg"](u)
        raise Fallback

    return {
        **straight,
        "const": lambda v: _const(v, n),
        "head": lambda u: column_head([c[0] for c in u]),
        "^": power,
        "hyp": hyp,
        "exp": exp,
        "log": log,
        "sqrt": lambda u: power(u, 0.5),
        "abs": absolute,
        "sin": trig(lambda s, c: (s, c, -s, -c, s)),
        "cos": trig(lambda s, c: (c, -s, -c, s, c)),
    }


# The order-2 and order-4 jet column arithmetics.  Constants are lifted at the
# column's own length: an order-2 jet is the first three coefficients of the
# order-4 jet, so lifting a constant short gives the bits of cutting it later.
JET2_COLUMNS = _column_arithmetic(
    3, {"+": _add3, "-": _sub3, "*": _mul3, "/": _div3, "neg": _neg3},
    _compose3, _pow_tables3, _over_head3,
)
JET4_COLUMNS = _column_arithmetic(
    5, {"+": _add5, "-": _sub5, "*": _mul5, "/": _div5, "neg": _neg5},
    _compose5, _pow_tables5, _over_head5,
)
_COLUMNS = {2: JET2_COLUMNS, 4: JET4_COLUMNS}


def jet_column(f: Node | str, xs: list[float], order: int = 4) -> list[Coeffs] | None:
    """`eval_jet(f, x, order).coefficients` at every x of xs in one walk, or None.

    It answers only where every point takes the same kernel branch and
    every coefficient is finite, and then each tuple is the scalar jet's
    bit for bit.  On None the caller runs `eval_jet` point by point, which
    stays the reference and the only source of errors.
    """
    seed = _SEEDS.get(order)
    if seed is None:
        raise ValueError(f"jet order must be 2 or 4, got {order!r}")
    cs = evaluate_columns(as_node(f), [(x,) + seed for x in xs], _COLUMNS[order])
    return cs if cs is not None and _finite(cs) else None
