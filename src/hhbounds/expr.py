"""Tiny expression language for univariate integrands.

Grammar (operators in increasing binding strength):

    sum     := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := NUMBER | 'x' | NAME '(' args ')' | '(' sum ')'

Functions: exp, log, sqrt, abs, sin, cos take one argument; hyp takes
two, hyp(u, eps) = sqrt(u^2 + eps^2), a smooth stand-in for |u|.  The
exponent of '^' must fold to a finite constant at parse time: this keeps
the fourth-order derivative tables closed-form.  All offsets reported in
errors are 0-based positions into the source string.

One walker, `evaluate`, reads every tree, under an interchangeable
arithmetic: `FLOATS` here for plain values (`eval_value` and the folding
of constant exponents), `jets.JETS` for Taylor jets, `SOURCE` for
printing (`to_source`) and `NAMES` for the functions a tree calls and
whether it reads x (`used_names`, `contains_var`).  The walker checks
every domain rule once, on the value part of the operand, and re-raises an
arithmetic's OverflowError with a message naming the operation, and its
"math domain error" for sin or cos of an infinite value as a DomainError.

Column arithmetics run one walk over a batch of points: `FLOAT_COLUMNS`
here (`eval_column`) and the jet columns of `jets`.  A number is a list
with one entry per point, and a column's head is its smallest entry, so
the domain rules stay in `evaluate`.  `columns_of` lifts a point
arithmetic to its column form by mapping each operation down the column;
`FLOAT_COLUMNS` is that lift of `FLOATS`, and the jet columns override
only the operations their walks meet most with column kernels.
`evaluate_columns` answers wherever every point answers, with each
point's result; an error that a point raises, or `Fallback`, makes it
return None, and the caller evaluates point by point, which stays the
reference.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

from .core import DomainError, ParseError

Node = Union["Const", "Var", "Unary", "BinOp", "Pow", "Hyp"]

_UNARY_FNS = ("neg", "exp", "log", "sqrt", "abs", "sin", "cos")
_BIN_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The integration variable; always spelled `x` in source."""


@dataclass(frozen=True)
class Unary:
    fn: str
    arg: Node

    def __post_init__(self):
        if self.fn not in _UNARY_FNS:
            raise ValueError(f"unknown unary function {self.fn!r}")


@dataclass(frozen=True)
class BinOp:
    op: str
    left: Node
    right: Node

    def __post_init__(self):
        if self.op not in _BIN_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True)
class Pow:
    """base ** exponent with a constant real exponent."""

    base: Node
    exponent: float


@dataclass(frozen=True)
class Hyp:
    """sqrt(arg^2 + softness^2); softness is a positive constant."""

    arg: Node
    softness: float

    def __post_init__(self):
        if not (math.isfinite(self.softness) and self.softness > 0.0):
            raise ValueError(
                f"hyp softness must be a positive finite constant, got {self.softness!r}"
            )


# --- tokenizer -------------------------------------------------------------

# One alternative per token kind, tried in order; `bad` is any other single
# character.  A number is digits with at most one dot and an optional
# exponent; the lone dot it also matches is refused by `_tokenize`.
_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d*)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[^\W\d]\w*)"
    r"|(?P<punct>[-+*/^(),])"
    r"|(?P<space>[ \t\r\n]+)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind in num/name/punct/end."""
    out = []
    for m in _TOKEN.finditer(src):
        kind, text, off = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", off)
        if kind == "num":
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", off) from None
        if kind != "space":
            out.append((kind, text, off))
    out.append(("end", "", len(src)))
    return out


# --- parser ----------------------------------------------------------------

# Deepest nesting accepted, both for the tree (one `evaluate` frame per
# level) and for factors inside factors (up to five parser frames per
# level), so every tree that parses also evaluates within Python's default
# recursion limit of 1000 frames.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns its tree and the tree's depth."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0
        self.open = 0  # factors being parsed, one per level of source nesting

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_punct(self, text: str):
        kind, got, off = self.peek()
        if kind != "punct" or got != text:
            shown = got if got else "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", off)
        self.advance()

    def deeper(self, depth: int, off: int) -> int:
        """depth + 1, refused at the token at off past _MAX_DEPTH."""
        if depth >= _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", off)
        return depth + 1

    def parse(self) -> Node:
        node, _ = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return node

    def sum(self, ops: str = "+-") -> tuple[Node, int]:
        """A sum of terms, or with ops "*/" a term of factors; left-associative."""
        node, depth = self.sum("*/") if ops == "+-" else self.factor()
        while True:
            kind, text, off = self.peek()
            if kind != "punct" or text not in ops:
                return node, depth
            self.advance()
            right, right_depth = self.sum("*/") if ops == "+-" else self.factor()
            node, depth = BinOp(text, node, right), self.deeper(max(depth, right_depth), off)

    def factor(self) -> tuple[Node, int]:
        kind, text, off = self.peek()
        self.open = self.deeper(self.open, off)
        if kind == "punct" and text == "-":
            self.advance()
            node, depth = self.factor()
            if isinstance(node, Const):
                node = Const(-node.value)
            else:
                node, depth = Unary("neg", node), self.deeper(depth, off)
        else:
            node, depth = self.power()
        self.open -= 1
        return node, depth

    def power(self) -> tuple[Node, int]:
        base, depth = self.atom()
        kind, text, off = self.peek()
        if kind == "punct" and text == "^":
            self.advance()
            ekind, etext, eoff = self.peek()
            folded = _constant(self.factor()[0], eoff)
            if folded is None:
                raise ParseError("exponent must be a constant", eoff)
            if not math.isfinite(folded):
                raise ParseError("exponent must be a finite constant", eoff)
            return Pow(base, folded), self.deeper(depth, off)
        return base, depth

    def atom(self) -> tuple[Node, int]:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text)), 1
        if kind == "name":
            if text == "x":
                return Var(), 1
            if text in _UNARY_FNS and text != "neg":
                self.expect_punct("(")
                arg, depth = self.sum()
                self.expect_punct(")")
                return Unary(text, arg), self.deeper(depth, off)
            if text == "hyp":
                self.expect_punct("(")
                arg, depth = self.sum()
                self.expect_punct(",")
                skind, stext, soff = self.peek()
                soft = _constant(self.sum()[0], soff)
                if soft is None or not 0.0 < soft < math.inf:
                    raise ParseError("hyp softness must be a positive finite constant", soff)
                self.expect_punct(")")
                return Hyp(arg, soft), self.deeper(depth, off)
            raise ParseError(f"unknown name {text!r}", off)
        if kind == "punct" and text == "(":
            node = self.sum()
            self.expect_punct(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"unexpected token {shown!r}", off)


def parse(src: str) -> Node:
    """Parse source text into an expression tree.

    Raises ParseError (with a 0-based offset) on any syntax problem.
    """
    return _Parser(src).parse()


def as_node(f: Node | str) -> Node:
    """The tree of f: source text is parsed, a tree passes through."""
    return parse(f) if isinstance(f, str) else f


# --- printing --------------------------------------------------------------

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_UNARY = 30
_PREC_POW = 40
_PREC_ATOM = 100


def _num_repr(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(num: tuple[str, int], min_prec: int) -> str:
    text, prec = num
    if prec < min_prec:
        return f"({text})"
    return text


def _source_binop(op: str):
    prec = _PREC_ADD if op in "+-" else _PREC_MUL
    # left-assoc: left child may tie on precedence, right must bind tighter
    return lambda left, right: (f"{_wrap(left, prec)} {op} {_wrap(right, prec + 1)}", prec)


def _source_call(fn: str):
    return lambda arg: (f"{fn}({arg[0]})", _PREC_ATOM)


def _source_pow(base: tuple[str, int], r: float) -> tuple[str, int]:
    exponent = _num_repr(r)
    if r < 0:
        exponent = f"({exponent})"
    return f"{_wrap(base, _PREC_POW + 1)}^{exponent}", _PREC_POW


# Printing is an arithmetic (see `FLOATS`): each number is its (source
# text, precedence) pair.  Its head is NaN, so every domain check in
# `evaluate` compares false and none can raise.
SOURCE = {
    "const": lambda v: (_num_repr(v), _PREC_UNARY if v < 0 else _PREC_ATOM),
    "head": lambda num: math.nan,
    **{op: _source_binop(op) for op in _BIN_OPS},
    "^": _source_pow,
    "hyp": lambda arg, softness: (f"hyp({arg[0]}, {_num_repr(softness)})", _PREC_ATOM),
    "neg": lambda arg: (f"-{_wrap(arg, _PREC_UNARY)}", _PREC_UNARY),
    **{fn: _source_call(fn) for fn in _UNARY_FNS if fn != "neg"},
}


def to_source(node: Node) -> str:
    """Render a tree back to parseable source, parenthesizing minimally."""
    text, _ = evaluate(node, ("x", _PREC_ATOM), SOURCE)
    return text


# --- evaluation ------------------------------------------------------------

# An arithmetic maps each operator and function name to its implementation,
# plus "const" (lifts a float) and "head" (the value part of a number).
FLOATS = {
    "const": float,
    "head": float,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
    "hyp": math.hypot,
    "neg": operator.neg,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "sin": math.sin,
    "cos": math.cos,
}


def evaluate(node: Node, x, arithmetic: dict):
    """Evaluate the tree at x, which is already in the arithmetic's form.

    Every domain rule of the language is checked here, once, on the head
    of the operand, so an arithmetic's functions see only arguments inside
    the domain.  An OverflowError raised by the arithmetic is re-raised
    with a message naming the operation and its argument, and sin or cos
    of an infinite value as a DomainError naming the function.
    """
    kind = type(node)
    if kind is Var:
        return x
    if kind is Const:
        return arithmetic["const"](node.value)
    if kind is BinOp:
        left = evaluate(node.left, x, arithmetic)
        right = evaluate(node.right, x, arithmetic)
        if node.op == "/" and arithmetic["head"](right) == 0.0:
            raise DomainError("division by zero")
        return arithmetic[node.op](left, right)
    if kind is Unary:
        fn = node.fn
        arg = evaluate(node.arg, x, arithmetic)
        head = arithmetic["head"]
        if fn == "log" and head(arg) <= 0.0:
            raise DomainError(f"log of non-positive value {head(arg)}")
        if fn == "sqrt" and head(arg) < 0.0:
            raise DomainError(f"sqrt of negative value {head(arg)}")
        try:
            return arithmetic[fn](arg)
        except OverflowError:
            raise OverflowError(f"{fn} overflows at {_num_repr(head(arg))}") from None
        except ValueError:
            # sin and cos refuse an infinite argument with a bare "math domain error"
            if abs(head(arg)) != math.inf:
                raise
            raise DomainError(f"{fn} of non-finite value {head(arg)}") from None
    if kind is Pow:
        base = evaluate(node.base, x, arithmetic)
        v, r = arithmetic["head"](base), node.exponent
        if v == 0.0 and r < 0.0:
            raise DomainError("zero raised to a negative power")
        if v < 0.0 and r % 1.0 != 0.0:
            raise DomainError(f"negative base {v} with non-integer exponent {r}")
        try:
            return arithmetic["^"](base, r)
        except OverflowError:
            raise OverflowError(f"^{_num_repr(r)} overflows at {_num_repr(v)}") from None
    if kind is Hyp:
        arg = evaluate(node.arg, x, arithmetic)
        try:
            return arithmetic["hyp"](arg, node.softness)
        except OverflowError:
            v = _num_repr(arithmetic["head"](arg))
            raise OverflowError(f"hyp overflows at {v}, softness {node.softness!r}") from None
    raise TypeError(f"unknown node {node!r}")


def eval_value(node: Node, x: float) -> float:
    """Evaluate the expression at a point (derivative-free path)."""
    return evaluate(node, x, FLOATS)


# --- columns ---------------------------------------------------------------


class Fallback(Exception):
    """A column walk cannot answer at once, as a domain rule met a column head
    that is not finite or a point needs another walk (an order-2 jet that must
    be read at order 4); evaluate point by point."""


def column_head(column: list[float]) -> float:
    """The head of a column: its smallest entry, once every entry is finite.

    Each domain rule of `evaluate` then fires on it if it fires at some
    point, or the column's own operation raises there: a divisor column
    that holds 0.0 beside a negative entry divides by zero, and so does a
    negative integer power of it.  A column with an entry that is not
    finite raises `Fallback`, so no rule is judged on a NaN.  A finite sum
    shows every entry finite at once; one that overflows does not.
    """
    if not (math.isfinite(sum(column)) or all(map(math.isfinite, column))):
        raise Fallback
    return min(column)


def columns_of(arithmetic: dict, head) -> dict:
    """The column form of a point arithmetic, with head as the column's head.

    In a column arithmetic a number is a list with one entry per point, and
    each operation here is the point operation mapped down the list, the
    constant operand of `^` and `hyp` repeated, so every entry is the point
    operation at its point, bit for bit.  Its "const" lifts a constant to
    one point's entry; `evaluate_columns` repeats it down the column.
    """

    def down(key: str, op):
        if key in _BIN_OPS:
            return lambda a, b: list(map(op, a, b))
        if key in ("^", "hyp"):
            return lambda a, constant: list(map(op, a, itertools.repeat(constant)))
        return lambda a: list(map(op, a))

    table = {key: down(key, op) for key, op in arithmetic.items()}
    return {**table, "const": arithmetic["const"], "head": head}


FLOAT_COLUMNS = columns_of(FLOATS, column_head)


def evaluate_columns(node: Node, column: list, columns: dict) -> list | None:
    """`evaluate` once over a column of points under a column arithmetic.

    Each entry is the point result, bit for bit.  None where the walk ends in
    an error that a point raises, a domain rule included, or in `Fallback`;
    the caller then evaluates point by point, which stays the reference and
    the only source of errors.
    """
    n, lift = len(column), columns["const"]
    try:
        return evaluate(node, column, {**columns, "const": lambda v: [lift(v)] * n})
    except (Fallback, ArithmeticError, ValueError):
        return None


def eval_column(node: Node, xs: list[float]) -> list[float] | None:
    """`eval_value` at every x of xs in one walk, or None (`evaluate_columns`).

    The float arithmetic has no branches, so each entry is `eval_value` at
    its point bit for bit, an entry that is not finite included.
    """
    return evaluate_columns(node, xs, FLOAT_COLUMNS)


def _constant(node: Node, off: int) -> float | None:
    """Value of a variable-free subtree at source offset off; None if it has x.

    An undefined value is a ParseError at off naming the failed operation.
    """
    if contains_var(node):
        return None
    try:
        return evaluate(node, 0.0, FLOATS)
    except DomainError as exc:
        raise ParseError(f"constant is undefined: {exc}", off) from None


def _names_call(fn: str):
    return lambda names, *constants: names | {fn}


# The names a tree uses are an arithmetic: each number is the frozenset of
# function names in its subtree, plus "x" where it reads the variable.  Its
# head is NaN, as in `SOURCE`.
NAMES = {
    "const": lambda v: frozenset(),
    "head": lambda names: math.nan,
    **dict.fromkeys(_BIN_OPS, operator.or_),
    "^": lambda names, exponent: names,
    **{fn: _names_call(fn) for fn in ("hyp", *_UNARY_FNS)},
}


def used_names(node: Node) -> frozenset[str]:
    """The functions the tree calls, and "x" if it reads the variable."""
    return evaluate(node, frozenset({"x"}), NAMES)


def contains_var(node: Node) -> bool:
    return "x" in used_names(node)
