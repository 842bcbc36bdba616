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
printing (`to_source`) and `DEPENDS` for the x-dependence check
(`contains_var`).  The walker checks every domain rule once, on the value
part of the operand, and re-raises an arithmetic's OverflowError with a
message naming the operation.
"""

from __future__ import annotations

import math
import operator
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
            raise ValueError("hyp softness must be a positive finite constant")


# --- tokenizer -------------------------------------------------------------

_PUNCT = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kind in num/name/punct."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in _PUNCT:
            out.append(("punct", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            out.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("name", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    out.append(("end", "", n))
    return out


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.pos = 0

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

    def parse(self) -> Node:
        node = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return node

    def sum(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "punct" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "punct" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "punct" and text == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Unary("neg", inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "punct" and text == "^":
            self.advance()
            ekind, etext, eoff = self.peek()
            exponent = self.factor()
            folded = _constant(exponent)
            if folded is None:
                raise ParseError("exponent must be a constant", eoff)
            if not math.isfinite(folded):
                raise ParseError("exponent must be a finite constant", eoff)
            return Pow(base, folded)
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            if text in _UNARY_FNS and text != "neg":
                self.expect_punct("(")
                arg = self.sum()
                self.expect_punct(")")
                return Unary(text, arg)
            if text == "hyp":
                self.expect_punct("(")
                arg = self.sum()
                self.expect_punct(",")
                skind, stext, soff = self.peek()
                soft = _constant(self.sum())
                if soft is None:
                    raise ParseError("hyp softness must be a constant", soff)
                self.expect_punct(")")
                return Hyp(arg, soft)
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
    with a message naming the operation and its argument.
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


def _constant(node: Node) -> float | None:
    """Value of a variable-free subtree; None if it has x or is undefined."""
    if contains_var(node):
        return None
    try:
        return evaluate(node, 0.0, FLOATS)
    except DomainError:
        return None


# The x-dependence check is an arithmetic: each number says whether its
# subtree reads x.  Its head is NaN, as in `SOURCE`.
DEPENDS = {
    "const": lambda v: False,
    "head": lambda depends: math.nan,
    **dict.fromkeys(_BIN_OPS, operator.or_),
    **dict.fromkeys(("^", "hyp", *_UNARY_FNS), lambda depends, *constants: depends),
}


def contains_var(node: Node) -> bool:
    return evaluate(node, True, DEPENDS)
