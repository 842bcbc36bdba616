"""Taylor jets of order 2 or 4: exact derivatives f, f', f'' and f''', f''''.

A jet is carried internally as Taylor coefficients (c0..cd) about the
evaluation point and converted to raw derivatives at the boundary.  A
jet's order is the length of its seed minus one, and each order has its
arithmetic (`_POINTS`), which lifts constants at that length and cuts the
derivative tables of log, sin and cos to it, so every jet of a walk has
the walk's length and an order-2 jet never forms f''' or f'''' terms.
Truncated Taylor arithmetic never feeds coefficient k+1 into coefficient
k, and the loops below sum in the same order at every length, so an
order-2 jet equals the first three coefficients of the order-4 jet bit
for bit.  Composition uses truncated polynomial arithmetic in
w = u - u(x0), which is exact through degree d because w has no constant
term.

Products, quotients, compositions and the derivative table of a
non-integer power are truncated Taylor arithmetic (Griewank and Walther,
Evaluating Derivatives, 2008), each written once as a reference loop,
`_mul_loop`, `_div_loop`, `_compose_loop` and `_pow_table_loop`, beside
`_over_head_loop`, which divides a jet by its head for `_log`.  At the
lengths in `_SEEDS`, `_mul`, `_div`, `_compose`, `_pow_table` and
`_over_head` run straight-line code generated at import in the loops'
index order, so every bit matches the loop, the sign of zero included;
each takes its length from one operand and unpacks every operand whole.
`print(jets.KERNEL_SOURCE)` shows it.

`jet_coefficients` returns the bare coefficient tuple; the library's
point loops call it and scale the entry they need by k!.  `eval_jet`
wraps the same tuple in a `Jet4`, one value object per result handed to
a caller, whose `derivatives` forms every k!*c_k.

One case reads past the order it returns: a non-integer power of a base
that vanishes at the point with a vanishing first coefficient, whose
leading behaviour sits in coefficients 2..4.  An order-2 jet that reaches
it is evaluated again at order 4 and cut down to order 2.

`JETS` is the order-4 jet arithmetic that `expr.evaluate` runs a tree
under, and `jet_coefficients` runs the order-2 one beside it; the same
walker computes plain values under `expr.FLOATS`.  The walker checks
every domain rule of the language on c0, so the functions here assume
their arguments lie inside the domain.  They check only rules about
derivatives: abs is not differentiable at 0, a non-integer power of a
base that vanishes at the point needs the base to be non-negative beside
it.  An integer power raises OverflowError where the float power does.

`JET2_COLUMNS` and `JET4_COLUMNS` are the same arithmetic over a column
of points, one coefficient tuple per point (`jet_column`): the point
arithmetic of their order mapped down the column by `expr.columns_of`,
with +, *, /, neg, exp, log and the two powers the workloads walk on the
column forms of the same kernels (`_mul3`, `_compose5`, ...), so each
tuple equals `eval_jet` at its point bit for bit.  A product or
composition whose guarded operand is not finite maps its scalar kernel
down the column.  The other operations are the point ones at each point.
"""

from __future__ import annotations

import itertools
import linecache
import math
import operator
from dataclasses import dataclass

from .core import DomainError, ldexp_or_inf
from .expr import Fallback, Node, as_node, column_head, columns_of, evaluate, evaluate_columns

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)

Coeffs = tuple[float, ...]

# Seed of the variable x at each supported order: x0 + 1*h.
_SEEDS = {2: (1.0, 0.0), 4: (1.0, 0.0, 0.0, 0.0)}
# The top order, at which a shorter jet that reads past its order is evaluated again.
_TOP = max(_SEEDS)


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


class _NeedsOrder4(Fallback):
    """A shorter jet reached a power that reads coefficients past its order:
    `jet_coefficients` evaluates it again at order 4, and a column walk declines."""


def _const(v: float, n: int) -> Coeffs:
    return (v,) + (0.0,) * (n - 1)


def _add(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.add, a, b))


def _sub(a: Coeffs, b: Coeffs) -> Coeffs:
    return tuple(map(operator.sub, a, b))


def _neg(a: Coeffs) -> Coeffs:
    return tuple(map(operator.neg, a))


def _over_head_loop(a: Coeffs) -> Coeffs:
    """`_over_head` at any length: a divided by its head, as `_log` scales its argument."""
    a0 = a[0]
    return tuple(c / a0 for c in a)


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


def _compose_loop(derivs: Coeffs, u: Coeffs) -> Coeffs:
    """Taylor coefficients of g(u(x)) from g's derivatives at u[0], at any length.

    derivs holds g, g', ... to at least the order of u.  Horner's rule in
    w = u - u[0], with `_mul` and `_add` fused: the terms of each product
    are summed in `_mul`'s order, skipping those whose acc[i] is zero.
    The product with w[0] = 0 is left out, so u[0] is never read and an
    infinite coefficient never meets it.
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


def _pow_table_loop(u0: float, r: float, n: int) -> Coeffs:
    """The first n derivatives of t^r at u0: falling(r, k) * u0^(r - k)."""
    return tuple(_falling(r, k) * u0 ** (r - k) for k in range(n))


# --- straight-line kernels -----------------------------------------------------
#
# A description gives a kernel at length n as its loop's operations in the loop's
# index order: (statements once per call, statements per point, the result's
# coefficients), in which a0, b1, ... name operand coefficients.  Coefficients no
# later step reads are not formed, and a division by 0! or 1! (exact) is left out.


def _product(n: int) -> tuple[list[str], list[str], list[str]]:
    """`_mul_loop`: c_k = 0.0 + a0*b_k + a1*b_(k-1) + ... + a_k*b0."""
    rows = ["0.0 + " + " + ".join(f"a{i} * b{k - i}" for i in range(k + 1)) for k in range(n)]
    return [], [], rows


def _quotient(n: int) -> tuple[list[str], list[str], list[str]]:
    """`_div_loop`: q_k = (a_k - b1*q_(k-1) - ... - b_k*q0) / b0, the last one inlined.

    b0 != 0: `evaluate` tests every divisor, `_pow` every reciprocal.
    """
    rows = ["a0 / b0"]
    for k in range(1, n):
        rows.append(f"(a{k}" + "".join(f" - b{j} * q{k - j}" for j in range(1, k + 1)) + ") / b0")
    lines = [f"q{k} = {row}" for k, row in enumerate(rows[:-1])]
    return [], lines, [f"q{k}" for k in range(n - 1)] + rows[-1:]


def _composition(n: int) -> tuple[list[str], list[str], list[str]]:
    """`_compose_loop`: Horner's rule in w = u - u0, from g_(n-1) down to g0.

    h<k>_<m> is coefficient m of the accumulator once g_k is in; the step
    that adds g_k forms coefficients 0..n-1-k, the ones later steps read.
    """
    heads = [f"g{k}" if k < 2 else f"g{k} / {math.factorial(k)}.0" for k in range(n)]

    def row(k: int, m: int) -> str:
        return "0.0 + " + (" + ".join(f"h{k + 1}_{i} * u{m - i}" for i in range(m)) or heads[k])

    lines = [f"h{n - 1}_0 = {heads[-1]}"]
    lines += [f"h{k}_{m} = {row(k, m)}" for k in range(n - 2, 0, -1) for m in range(n - k)]
    return [], lines, [row(0, m) for m in range(n)]


def _power_table(n: int) -> tuple[list[str], list[str], list[str]]:
    """`_pow_table_loop`: entry k is the falling factorial f_k = 1.0*r*(r-1)*... times u0**(r-k)."""
    falling = ["f1 = 1.0 * r"] + [f"f{k} = f{k - 1} * (r - {k - 1})" for k in range(2, n)]
    return falling, [], ["1.0 * u0 ** r"] + [f"f{k} * u0 ** (r - {k})" for k in range(1, n)]


def _termwise(row: str):
    return lambda n: ([], [], [row.format(k=k) for k in range(n)])


# name: (description, the letters of the tuple operands, the column form's parameters,
# the operand that must be finite for the straight-line form, as the loop skips a zero
# left factor and 0*inf is NaN, and for the loops the scalar form's parameters and
# length).  A column whose guarded operand is not finite maps the scalar form down it.
_KERNELS = {
    "add": (_termwise("a{k} + b{k}"), "ab", "a, b", None, None),
    "neg": (_termwise("-a{k}"), "a", "a", None, None),
    "over_head": (_termwise("a{k} / a0"), "a", "a", None, ("a", "len(a)")),
    "mul": (_product, "ab", "a, b", "b", ("a, b", "len(a)")),
    "div": (_quotient, "ab", "a, b", None, ("a, b", "len(a)")),
    "compose": (_composition, "gu", "tables, u", "u", ("derivs, u", "len(u)")),
    "pow_table": (_power_table, "", "heads, r", None, ("u0, r, n", None)),
}


def _names(letter: str, n: int) -> str:
    return ", ".join(f"{letter}{k}" for k in range(n))


def _tuple(rows: list[str]) -> str:
    return "(\n" + "".join(f"            {row},\n" for row in rows) + "        )"


def _kernel_source(lengths: tuple[int, ...]) -> str:
    """Python source of the column kernels `_<name><n>` at each of lengths and the
    scalar ones `_<name>`, which try the lengths longest first, then `_<name>_loop`.
    A scalar kernel takes its length from one operand and unpacks every operand whole,
    as every jet of a walk has the walk's length."""
    out = []
    for name, (describe, letters, columns, guard, scalar) in _KERNELS.items():
        forms = [(n, *describe(n)) for n in sorted(lengths, reverse=True)]
        if scalar:
            params, length = scalar
            out.append(f"def _{name}({params}):")
            if length:
                out.append(f"    n = {length}")
            for n, once, each, rows in forms:
                finite = f" and math.isfinite(sum({guard}))" if guard else ""
                out.append(f"    if n == {n}{finite}:")
                out += [f"        {_names(c, n)} = {p}" for p, c in zip(params.split(", "), letters)]
                out += [f"        {line}" for line in once + each] + [f"        return {_tuple(rows)}"]
            out.append(f"    return _{name}_loop({params})\n")
        for n, once, each, rows in forms:
            target = ", ".join(f"({_names(letter, n)})" for letter in letters) or "u0"
            source = columns.split(", ")[0] if len(letters) < 2 else f"zip({columns})"
            out.append(f"def _{name}{n}({columns}):")
            if guard:
                out += [f"    if not _finite({guard}):", f"        return list(map(_{name}, {columns}))"]
            out += [f"    {line}" for line in once]
            if each:
                out += ["    out = []", f"    for {target} in {source}:"] + [f"        {line}" for line in each]
                out += [f"        out.append({_tuple(rows)})", "    return out\n"]
            else:
                out += [f"    return [\n        {_tuple(rows)}\n        for {target} in {source}\n    ]\n"]
    return "\n".join(out)


def _finite(column: list[Coeffs]) -> bool:
    # a plain `sum()`, which is no result arithmetic: a finite sum means every term is finite
    return math.isfinite(sum(itertools.chain.from_iterable(column)))


# The kernels at the lengths of `_SEEDS`, compiled once; tracebacks read them from linecache.
KERNEL_SOURCE = _kernel_source(tuple(order + 1 for order in _SEEDS))
_KERNEL_FILE = "<hhbounds.jets kernels>"
linecache.cache[_KERNEL_FILE] = (len(KERNEL_SOURCE), None, KERNEL_SOURCE.splitlines(True), _KERNEL_FILE)
exec(compile(KERNEL_SOURCE, _KERNEL_FILE, "exec"))


def _pow_regular(u: Coeffs, r: float) -> Coeffs:
    """u^r for u[0] > 0 via derivative-table composition."""
    return _compose(_pow_table(u[0], r, len(u)), u)


def _squarings(u, k: int, mul):
    """u^k for k >= 1 under the product mul, by repeated squaring: the first
    product is at the lowest set bit of k and the last square at the highest,
    so u^4 costs two products."""
    acc = None
    while k:
        if k & 1:
            acc = u if acc is None else mul(acc, u)
        k >>= 1
        if k:
            u = mul(u, u)
    return acc


def _pow_zero_base(u: Coeffs, r: float) -> Coeffs:
    """u^r when u vanishes at the point and r is a positive non-integer.

    Writes u = h^m * v with v(0) = first nonzero coefficient; demands
    that coefficient be positive (otherwise u < 0 just off the point).
    The result behaves like h^(m*r): derivatives below that order are
    zero, the rest are infinite with the sign of the falling factorial,
    unless m*r lands on an integer grid in which case v^r shifts up.
    With m > 1 the answer depends on coefficients past order 2, so an
    order-2 jet asks `jet_coefficients` for order 4.
    """
    n = len(u)
    if n <= _TOP and u[1] == 0.0:
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
    """u^r; an integer r by `_squarings`, and a reciprocal when r < 0.

    An integer power raises OverflowError where the float power would: when
    the value leaves the float range, or when a negative power takes the
    reciprocal of a power that underflowed to zero.
    """
    if r != int(r):
        return _pow_regular(u, r) if u[0] > 0.0 else _pow_zero_base(u, r)
    e = int(r)
    acc = _squarings(u, abs(e), _mul) if e else _const(1.0, len(u))
    if e < 0:
        if acc[0] == 0.0:
            raise OverflowError(f"power {-e} underflows to 0")
        acc = _div(_const(1.0, len(u)), acc)
    if not math.isfinite(acc[0]) and math.isfinite(u[0]):
        raise OverflowError(f"power {e} leaves the float range")
    return acc


# Below this h, 12/h^3, a bound on the last entry of `_hyp_table` and on its
# partial quotients, leaves the float range, so the table is of u scaled.  Above it
# the table is finite unscaled, and scaling would only push u's powers past the range.
_HYP_TINY = 4.1e-103
# `_hyp_shift` keeps |U_k| below 2^(k*_HYP_REACH), so each coefficient of g(U), at
# most 14 * 2^(4*_HYP_REACH) with g's derivatives over k! at most 4, stays finite.
_HYP_REACH = 250


def _hyp_table(u0: float, softness: float, n: int) -> tuple[float, Coeffs]:
    """(unit, table): hyp(u, eps) = unit * g(u/unit), and the first n entries
    of g's table at u0/unit, for g(t) = sqrt(t^2 + e^2) and e = eps/unit.

    g's derivatives are written in ratios to h = hypot(u0, eps)/unit: with
    c = u0/unit/h and s = e/h, g' = c, g'' = s^2/h, g''' = -3 s^2 c/h^2 and
    g'''' = 3 s^2 (4c^2 - s^2)/h^3.  No square of u0 or eps is formed, and
    g'' is a product, so it cannot cancel below 0.  unit is 1.0, which
    `_hyp` leaves out, or, below `_HYP_TINY`, the power of two just above
    hypot(u0, eps), which brings h into [1/2, 1); dividing by it rounds
    nothing short of an overflow.  It is the one table of hyp: the column
    arithmetic runs `_hyp` at each point.
    Raises OverflowError only where the value leaves the float range."""
    h = math.hypot(u0, softness)
    if h == math.inf and math.isfinite(u0):
        raise OverflowError("hyp leaves the float range")
    unit = 1.0
    if h < _HYP_TINY:
        unit = math.ldexp(1.0, math.frexp(h)[1])
        u0, softness, h = u0 / unit, softness / unit, h / unit
    c = u0 / h
    s2 = (softness / h) ** 2
    if n > 3:
        return unit, (h, c, s2 / h, -3.0 * s2 * c / h / h, 3.0 * s2 * (4.0 * c * c - s2) / h / h / h)
    return unit, (h, c, s2 / h)


def _hyp_shift(u: Coeffs, unit: float) -> list[int]:
    """exps with coefficient k of g(u/unit) equal to 2^exps[k] times that of
    g(U), U(t) = u(x0 + t/2^d)/unit: exps[k] = p + k*d for unit = 2^p, and d
    the least d >= 0 that keeps every |U_k| below 2^(k*_HYP_REACH)."""
    p = math.frexp(unit)[1] - 1
    # |u_k| < 2^e_k, so |U_k| < 2^(e_k - p - k*d)
    d = max([0] + [-((p - math.frexp(v)[1]) // k) - _HYP_REACH for k, v in enumerate(u) if k and v])
    return [p + k * d for k in range(len(u))]


def _hyp(u: Coeffs, softness: float) -> Coeffs:
    unit, table = _hyp_table(u[0], softness, len(u))
    if unit == 1.0:  # v/1.0 and v*1.0 are exact, so leaving them out changes no bit
        return _compose(table, u)
    out = tuple(v * unit for v in _compose(table, tuple(v / unit for v in u)))
    if math.isfinite(sum(out)):
        return out
    # Horner's rule met a power of u/unit past the float range.  Shifting x as well
    # keeps every power finite, where it may round a small u_k away; so it answers
    # only the coefficients that were not finite.
    exps = _hyp_shift(u, unit)
    shifted = _compose(table, tuple(ldexp_or_inf(v, -e) for v, e in zip(u, exps)))
    return tuple(
        a if math.isfinite(a) else ldexp_or_inf(b, e) for a, b, e in zip(out, shifted, exps)
    )


def _exp(u: Coeffs) -> Coeffs:
    return _compose((math.exp(u[0]),) * len(u), u)


# log(u) = log(u0) + log(1 + t) with t = u/u0 - 1: past its value the table is
# that of log(1 + t) at 0, so no power of 1/u0 can overflow.
_LOG_TAIL = (1.0, -1.0, 2.0, -6.0)


def _log(u: Coeffs) -> Coeffs:
    return _compose((math.log(u[0]),) + _LOG_TAIL[: len(u) - 1], _over_head(u))


def _abs(u: Coeffs) -> Coeffs:
    if u[0] > 0.0:
        return u
    if u[0] < 0.0:
        return _neg(u)
    raise DomainError("abs is not differentiable at 0")


# The derivative tables of sin and cos at u0, from s = sin(u0) and c = cos(u0).
_TRIG_TABLES = {"sin": lambda s, c: (s, c, -s, -c, s), "cos": lambda s, c: (c, -s, -c, s, c)}


def _trig(table):
    return lambda u: _compose(table(math.sin(u[0]), math.cos(u[0]))[: len(u)], u)


def _point_arithmetic(n: int) -> dict:
    """The arithmetic of n-coefficient jets for expr.evaluate; expr.FLOATS
    documents the keys.  It lifts constants at length n, so every jet of a
    walk seeded at length n has that length."""
    return {
        "const": lambda v: _const(v, n),
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
        **{name: _trig(table) for name, table in _TRIG_TABLES.items()},
    }


# The jet arithmetic of each order; `JETS` is the order-4 one.
_POINTS = {order: _point_arithmetic(order + 1) for order in _SEEDS}
JETS = _POINTS[4]


def _no_seed(order: int):
    raise ValueError(f"jet order must be 2 or 4, got {order!r}")


def jet_coefficients(f: Node | str, x: float, order: int = 4) -> Coeffs:
    """Taylor coefficients c0..c_order of f at x; order is 2 or 4.

    The point function of the library's loops; `eval_jet` wraps its tuple."""
    seed = _SEEDS.get(order) or _no_seed(order)
    node = as_node(f)
    try:
        return evaluate(node, (x, *seed), _POINTS[order])
    except _NeedsOrder4:
        return evaluate(node, (x, *_SEEDS[_TOP]), _POINTS[_TOP])[: order + 1]


def eval_jet(f: Node | str, x: float, order: int = 4) -> Jet4:
    """The `Jet4` of f at x: `jet_coefficients(f, x, order)`; order is 2 or 4."""
    return Jet4(x, jet_coefficients(f, x, order))


# --- columns -----------------------------------------------------------------


def _column_arithmetic(n: int) -> dict:
    """The arithmetic of columns of n-coefficient jets: the point arithmetic of
    that length mapped down the column (`expr.columns_of`), with the operations
    the workloads walk in columns on the kernels `_add<n>`, ...: +, *, /, neg,
    exp, log, a non-integer power of positive heads and a positive integer
    power whose heads stay finite.  Every other power is `_pow` at each point.

    A kernel maps its scalar form down the column where its guarded operand is
    not finite, so every operation gives at each point what the point
    operation gives there, and raises only what some point raises."""
    kernel = {name: globals()[f"_{name}{n}"] for name in _KERNELS}
    mul, compose = kernel["mul"], kernel["compose"]
    lifted = columns_of(_POINTS[n - 1], lambda u: column_head([c[0] for c in u]))

    def power(u: list[Coeffs], r: float) -> list[Coeffs]:
        # `evaluate` has taken the column's head, so every head is finite
        if r != int(r):
            heads = [c[0] for c in u]
            if min(heads) > 0.0:
                return compose(kernel["pow_table"](heads, r), u)
        elif r > 0.0:
            acc = _squarings(u, int(r), mul)
            if math.isfinite(sum([c[0] for c in acc])):
                return acc
        return lifted["^"](u, r)

    def exp(u: list[Coeffs]) -> list[Coeffs]:
        return compose([(e,) * n for e in map(math.exp, [c[0] for c in u])], u)

    log_tail = _LOG_TAIL[: n - 1]

    def log(u: list[Coeffs]) -> list[Coeffs]:
        return compose([(math.log(c[0]),) + log_tail for c in u], kernel["over_head"](u))

    return {
        **lifted,
        "+": kernel["add"],
        "*": mul,
        "/": kernel["div"],
        "^": power,
        "neg": kernel["neg"],
        "exp": exp,
        "log": log,
    }


# The order-2 and order-4 jet column arithmetics.
_COLUMNS = {order: _column_arithmetic(order + 1) for order in _SEEDS}
JET2_COLUMNS, JET4_COLUMNS = _COLUMNS[2], _COLUMNS[4]


def jet_column(f: Node | str, xs: list[float], order: int = 4) -> list[Coeffs] | None:
    """`jet_coefficients(f, x, order)` at every x of xs in one walk, or None.

    Each entry equals it bit for bit, a coefficient that is not finite included.
    The walk declines (`expr.evaluate_columns`) where some point raises, where a
    domain rule meets a column head that is not finite, or where an order-2
    power must be read at order 4; the caller then runs `jet_coefficients` point
    by point, which stays the reference and the only source of errors."""
    seed = _SEEDS.get(order) or _no_seed(order)
    return evaluate_columns(as_node(f), [(x,) + seed for x in xs], _COLUMNS[order])
