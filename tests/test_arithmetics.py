"""The float and the Taylor-jet arithmetic agree on values and on domain errors.

Both run the same walker, `expr.evaluate`, so on random trees and points
`eval_value` and the value part of `eval_jet` must either raise the same
DomainError or agree to 1e-12 relative.  A DomainError message names the
offending value, which the two arithmetics may round differently (sqrt is
math.sqrt for floats and a power 1/2 of a jet), so the numbers in two
messages are compared to the same tolerance.  Two rules exist only for jets,
because they are about derivatives: abs at 0 and a non-integer power of
a base that vanishes from below.  Points where either arithmetic
overflows are skipped.
"""

import math
import random
import re

import pytest

from hhbounds import DomainError, eval_jet, eval_value, expr, parse
from hhbounds.expr import to_source
from hhbounds.jets import JET2_COLUMNS, JET4_COLUMNS, JETS
from hhbounds.verify import _random_expr

JET_ONLY = ("abs is not differentiable at 0", "base vanishing from below")
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _same_message(got, want):
    if NUMBER.sub("#", got) != NUMBER.sub("#", want):
        return False
    pairs = zip(NUMBER.findall(got), NUMBER.findall(want))
    return all(float(g) == pytest.approx(float(w), rel=1e-12, abs=1e-12) for g, w in pairs)


def _outcome(fn):
    try:
        return "value", fn()
    except DomainError as exc:
        return "domain", str(exc)
    except OverflowError:
        return "overflow", None


@pytest.mark.parametrize("seed", range(4))
def test_value_and_jet_arithmetics_agree(seed):
    rng = random.Random(seed)
    compared = refused = 0
    for _ in range(500):
        node = _random_expr(rng, 4)
        for x in (round(rng.uniform(-3.0, 3.0), 2), 0.0, 1.0):
            value = _outcome(lambda: eval_value(node, x))
            jet = _outcome(lambda: eval_jet(node, x).value)
            if "overflow" in (value[0], jet[0]):
                continue
            where = f"{to_source(node)} at x={x}"
            if jet[0] == "domain" and jet[1].startswith(JET_ONLY):
                continue
            assert value[0] == jet[0], (where, value, jet)
            if value[0] == "domain":
                assert _same_message(jet[1], value[1]), (where, value[1], jet[1])
                refused += 1
            elif math.isfinite(value[1]):
                assert jet[1] == pytest.approx(value[1], rel=1e-12, abs=1e-12), where
                compared += 1
    assert compared > 300 and refused > 50


def test_overflow_names_the_operation():
    cases = [
        ("x^400", 100.0, r"^\^400 overflows at 100$"),
        ("x^(-2)", 1e-200, r"^\^-2 overflows at 1e-200$"),  # x^2 underflows first
        ("exp(x)", 1000.0, "^exp overflows at 1000$"),
    ]
    for src, x, message in cases:
        node = parse(src)
        for evaluate in (
            lambda: eval_value(node, x),
            lambda: eval_jet(node, x),
            lambda: eval_jet(node, x, order=2),
        ):
            with pytest.raises(OverflowError, match=message):
                evaluate()


@pytest.mark.parametrize("order", [2, 4])
def test_hyp_overflow_on_the_jet_path_names_the_softness(order):
    # a softness past the square root of the float range is no overflow while
    # hypot(x, softness) is finite; the jet overflows where that value does
    assert eval_jet(parse("hyp(x, 1e200)"), 1.0, order=order).value == 1e200
    assert eval_value(parse("hyp(x, 1e308)"), 1.5e308) == math.inf
    with pytest.raises(OverflowError, match=r"^hyp overflows at 1.5e\+308, softness 1e\+308$"):
        eval_jet(parse("hyp(x, 1e308)"), 1.5e308, order=order)


def test_every_arithmetic_defines_the_same_names():
    # an operator added to the language must be added to every arithmetic
    names = set(expr.FLOATS)
    for arithmetic in (JETS, expr.SOURCE, expr.NAMES, expr.FLOAT_COLUMNS, JET2_COLUMNS, JET4_COLUMNS):
        assert set(arithmetic) == names
    assert {"const", "head", "^", "hyp", *expr._BIN_OPS, *expr._UNARY_FNS} == names
