"""Tiny expression language for univariate integrands.

Grammar (operators in increasing binding strength):

    sum     := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?          # right-associative
    atom    := NUMBER | 'x' | NAME '(' args ')' | '(' sum ')'

Functions: exp, log, sqrt, abs, sin, cos take one argument; hyp takes
two, hyp(u, eps) = sqrt(u^2 + eps^2), a smooth stand-in for |u|.  The
exponent of '^' must fold to a constant at parse time: this keeps the
fourth-order derivative tables closed-form.  All offsets reported in
errors are 0-based positions into the source string.
"""

from __future__ import annotations

import math
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
            return Pow(base, folded)
        return base

    def atom(self) -> Node:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            if text == "x":
                return Var()
            if text in ("exp", "log", "sqrt", "abs", "sin", "cos"):
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
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _node_prec(node: Node) -> int:
    if isinstance(node, Const):
        return _PREC_UNARY if node.value < 0 else _PREC_ATOM
    if isinstance(node, (Var, Hyp)):
        return _PREC_ATOM
    if isinstance(node, Unary):
        return _PREC_UNARY if node.fn == "neg" else _PREC_ATOM
    if isinstance(node, BinOp):
        return _PREC_ADD if node.op in "+-" else _PREC_MUL
    if isinstance(node, Pow):
        return _PREC_POW
    raise TypeError(f"unknown node {node!r}")


def to_source(node: Node) -> str:
    """Render a tree back to parseable source, parenthesizing minimally."""
    text, _ = _render(node)
    return text


def _render(node: Node) -> tuple[str, int]:
    prec = _node_prec(node)
    if isinstance(node, Const):
        return _num_repr(node.value), prec
    if isinstance(node, Var):
        return "x", prec
    if isinstance(node, Unary):
        if node.fn == "neg":
            inner = _wrap(node.arg, _PREC_UNARY)
            return f"-{inner}", prec
        inner, _ = _render(node.arg)
        return f"{node.fn}({inner})", prec
    if isinstance(node, BinOp):
        # left-assoc: left child may tie on precedence, right must bind tighter
        left = _wrap(node.left, prec)
        right = _wrap(node.right, prec + 1)
        return f"{left} {node.op} {right}", prec
    if isinstance(node, Pow):
        base = _wrap(node.base, _PREC_POW + 1)
        if node.exponent < 0:
            return f"{base}^({_num_repr(node.exponent)})", prec
        return f"{base}^{_num_repr(node.exponent)}", prec
    if isinstance(node, Hyp):
        inner, _ = _render(node.arg)
        return f"hyp({inner}, {_num_repr(node.softness)})", prec
    raise TypeError(f"unknown node {node!r}")


def _wrap(node: Node, min_prec: int) -> str:
    text, prec = _render(node)
    if prec < min_prec:
        return f"({text})"
    return text


# --- evaluation ------------------------------------------------------------


def _apply_unary(fn: str, v: float) -> float:
    if fn == "neg":
        return -v
    if fn == "exp":
        return math.exp(v)
    if fn == "log":
        if v <= 0.0:
            raise DomainError(f"log of non-positive value {v}")
        return math.log(v)
    if fn == "sqrt":
        if v < 0.0:
            raise DomainError(f"sqrt of negative value {v}")
        return math.sqrt(v)
    if fn == "abs":
        return abs(v)
    if fn == "sin":
        return math.sin(v)
    if fn == "cos":
        return math.cos(v)
    raise ValueError(f"unknown unary function {fn!r}")


def _apply_bin(op: str, lv: float, rv: float) -> float:
    if op == "+":
        return lv + rv
    if op == "-":
        return lv - rv
    if op == "*":
        return lv * rv
    if op == "/":
        if rv == 0.0:
            raise DomainError("division by zero")
        return lv / rv
    raise ValueError(f"unknown operator {op!r}")


def _pow_value(base: float, exponent: float) -> float:
    if exponent == int(exponent):
        e = int(exponent)
        if base == 0.0 and e < 0:
            raise DomainError("zero raised to a negative power")
        return base ** e
    if base < 0.0:
        raise DomainError(f"negative base {base} with non-integer exponent {exponent}")
    if base == 0.0 and exponent < 0.0:
        raise DomainError("zero raised to a negative power")
    return base ** exponent


def eval_value(node: Node, x: float) -> float:
    """Evaluate the expression at a point (derivative-free path)."""
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Unary):
        return _apply_unary(node.fn, eval_value(node.arg, x))
    if isinstance(node, BinOp):
        return _apply_bin(node.op, eval_value(node.left, x), eval_value(node.right, x))
    if isinstance(node, Pow):
        return _pow_value(eval_value(node.base, x), node.exponent)
    if isinstance(node, Hyp):
        return math.hypot(eval_value(node.arg, x), node.softness)
    raise TypeError(f"unknown node {node!r}")


def _constant(node: Node) -> float | None:
    """Value of a variable-free subtree; None if it has x or is undefined."""
    if contains_var(node):
        return None
    try:
        return eval_value(node, 0.0)
    except DomainError:
        return None


def contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Const):
        return False
    if isinstance(node, Unary):
        return contains_var(node.arg)
    if isinstance(node, BinOp):
        return contains_var(node.left) or contains_var(node.right)
    if isinstance(node, Pow):
        return contains_var(node.base)
    if isinstance(node, Hyp):
        return contains_var(node.arg)
    raise TypeError(f"unknown node {node!r}")
