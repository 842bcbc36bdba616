"""Column arithmetics against the per-point path they stand in for.

A column walk runs a tree once over a batch of points.  It either answers
with exactly what the per-point path gives at every point, compared by
`repr` so that signed zeros count, or it declines with None, and then the
per-point loop alone decides the results or the first error.  So the
outcome through the columns, where an answer is taken and the loop runs
otherwise, must equal the loop's outcome: the same `repr`, or the same
first exception.  Callers (the quadrature oracle, the identity kernels and
`simpson_estimate`) are checked the same way with the columns switched off.
"""

from __future__ import annotations

import math
import random

import pytest

from hhbounds import (
    BudgetError,
    DomainError,
    Interval,
    bounds,
    eval_jet,
    eval_value,
    expr,
    integrate_mean,
    integrate_mean_fn,
    parse,
    quadrature,
)
from hhbounds.bounds import simpson_estimate
from hhbounds.expr import eval_column
from hhbounds.jets import jet_column
from hhbounds.verify import _random_expr

# Each key of a column arithmetic, with trees that reach it.
KEY_TREES = {
    "const": ["2.5", "exp(2) * 3"],
    "head": ["1/(x - 1)", "log(x - 1)", "sqrt(x - 1)", "(x - 1)^-2"],
    "+": ["x + 2", "2 + x*x"],
    "-": ["x - 2", "2 - x*x"],
    "*": ["x * (x - 1)", "x * 0", "0 * x"],
    "/": ["1 / x", "(x + 1) / (x*x + 2)"],
    "^": ["x^3", "x^-2", "x^2.5", "(4.5 - x)^2.5", "x^0.5", "x^0", "(x*x)^1.5"],
    "hyp": ["hyp(x, 0.5)", "hyp(x - 2, 1e-3)", "hyp(x, 1e200)"],
    "neg": ["-x", "-(x*x)"],
    "exp": ["exp(x)", "exp(x*x)"],
    "log": ["log(x)", "log(x*x + 1)"],
    "sqrt": ["sqrt(x)", "sqrt(x*x + 1)"],
    "abs": ["abs(x)", "abs(x - 1)"],
    "sin": ["sin(x)", "sin(x*x)", "sin(-x)"],
    "cos": ["cos(x)", "cos(x*x)"],
}

POSITIVE = [0.1 + 0.2 * k for k in range(15)]
# through 0.0 itself, and across 0 without touching it
STRADDLE = [round(-0.7 + 0.1 * k, 1) for k in range(15)]
ACROSS = [0.1 * k - 0.75 for k in range(15)]
NEGATIVE = [-0.1 - 0.2 * k for k in range(15)]
# up to 4.5, where (4.5 - x)^2.5 has a base vanishing from below
UP_TO = [round(3.1 + 0.1 * k, 1) for k in range(15)]
# around 0 at the scale where hyp(x, 5e-104) scales its table
TINY = [k * 1e-105 for k in range(-7, 8)]
POINT_SETS = {
    "positive": POSITIVE, "straddle": STRADDLE, "across": ACROSS,
    "negative": NEGATIVE, "up-to": UP_TO, "tiny": TINY,
}


def _per_point(fn, xs):
    try:
        return repr([fn(x) for x in xs])
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _paths(node):
    """(name, column(xs), per-point fn) for the value table and both jet tables."""
    return [
        ("values", lambda xs: eval_column(node, xs), lambda x: eval_value(node, x)),
        ("jets-2", lambda xs: jet_column(node, xs, order=2),
         lambda x: eval_jet(node, x, order=2).coefficients),
        ("jets-4", lambda xs: jet_column(node, xs, order=4),
         lambda x: eval_jet(node, x, order=4).coefficients),
    ]


def _compare(node, xs) -> dict[str, bool]:
    """Assert each table's outcome equals the per-point path; which ones answered."""
    answered = {}
    for name, column, point in _paths(node):
        want = _per_point(point, xs)
        got = column(xs)
        answered[name] = got is not None
        outcome = want if got is None else repr(got)
        assert outcome == want, (name, expr.to_source(node), xs)
    return answered


def test_the_trees_reach_every_key_of_the_column_tables():
    # test_arithmetics checks that every table defines the names of expr.FLOATS
    assert set(KEY_TREES) == set(expr.FLOATS)
    for key in ("hyp", *expr._UNARY_FNS):
        assert all(key in expr.used_names(parse(src)) for src in KEY_TREES[key]), key


@pytest.mark.parametrize("key", sorted(KEY_TREES))
@pytest.mark.parametrize("points", sorted(POINT_SETS))
def test_each_key_matches_the_per_point_path(key, points):
    for src in KEY_TREES[key]:
        _compare(parse(src), POINT_SETS[points])


@pytest.mark.parametrize("key", sorted(KEY_TREES))
def test_each_key_answers_where_every_point_takes_one_branch(key):
    # positive points, away from every pole and kink: each tree answers in each table,
    # so each key's kernels are compared bit for bit, not only declined
    for src in KEY_TREES[key]:
        assert all(_compare(parse(src), [x + 1.5 for x in POSITIVE]).values()), src


def test_hyp_columns_rescale_a_tiny_table():
    # below 4.1e-103 `_hyp` divides by a power of two; f'''' there is past the float
    # range, so the order-4 column declines and the per-point jet reads -inf
    answered = _compare(parse("hyp(x, 5e-104)"), TINY)
    assert answered == {"values": True, "jets-2": True, "jets-4": False}


def test_signed_zeros_survive_the_columns():
    # x*0 at a negative x: the float product is -0.0, the jet coefficient 0.0 + -0.0
    node = parse("x * 0")
    assert repr(eval_column(node, NEGATIVE)[0]) == "-0.0"
    assert repr(jet_column(node, NEGATIVE, order=2)[0]) == "(0.0, 0.0, 0.0)"


def test_an_overflow_that_a_later_power_discards_still_declines():
    # x^2 overflows past 1.3e154; ^0 would discard the inf, but the per-point
    # path raises OverflowError first, so the column must decline
    xs = [1e160 * (k + 1) for k in range(15)]
    node = parse("(x^2)^0")
    assert _compare(node, xs) == {"values": False, "jets-2": False, "jets-4": False}


@pytest.mark.parametrize("seed", range(4))
def test_random_trees_match_the_per_point_path(seed):
    rng = random.Random(seed)
    answered = declined = 0
    for _ in range(120):
        node = _random_expr(rng, 4)
        c = rng.uniform(-3.0, 3.0)
        for xs in (
            [round(c + 0.1 * k, 2) for k in range(-7, 8)],
            [rng.uniform(0.1, 3.0) for _ in range(15)],
            [rng.uniform(-3.0, 3.0) for _ in range(15)],
        ):
            for ok in _compare(node, xs).values():
                answered += ok
                declined += not ok
    assert answered > 500 and declined > 100


# --- callers ------------------------------------------------------------------


def _without_columns(monkeypatch):
    monkeypatch.setattr(quadrature, "eval_column", lambda node, xs: None)
    monkeypatch.setattr(bounds, "jet_column", lambda f, xs, order=4: None)


def _outcome(fn):
    try:
        return repr(fn())
    except (ArithmeticError, ValueError, BudgetError) as exc:
        return type(exc).__name__, str(exc)


def _caller_outcomes(node, iv):
    bounds._identity_data.cache_clear()
    return [
        _outcome(lambda: integrate_mean(node, iv, 1e-9)),
        _outcome(lambda: bounds.bisected_trapezoid_identity_residual(node, iv, 1e-9)),
        _outcome(lambda: bounds.simpson_identity_residual(node, iv, 1e-9)),
        _outcome(lambda: simpson_estimate(node, iv)),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_callers_give_the_loop_results_and_first_errors(seed, monkeypatch):
    rng = random.Random(100 + seed)
    cases = [(parse(src), Interval(a, b)) for src, a, b in (
        ("x*1e308*10 + log(x)", -1.0, 3.0),
        ("x*1e308*10", 1.0, 3.0),
        ("sqrt(x)*x", 0.0, 1.0),
        ("abs(x - 0.3)", 0.0, 1.0),
        ("1/(x - 0.3)", 0.0, 1.0),
        ("hyp(x - 0.5, 0.1)", 0.0, 1.0),
    )]
    for _ in range(25):
        a = rng.uniform(-2.0, 2.0)
        cases.append((_random_expr(rng, 3), Interval(a, a + rng.uniform(0.1, 2.0))))
    with_columns = [_caller_outcomes(node, iv) for node, iv in cases]
    _without_columns(monkeypatch)
    for (node, iv), want in zip(cases, with_columns):
        assert _caller_outcomes(node, iv) == want, (expr.to_source(node), iv)


def test_the_oracle_keeps_the_first_error_of_the_loop():
    # a column walk over the whole panel would meet log of -0.98... first; the
    # loop meets the centre x = 1.0 first, where the value is inf
    with pytest.raises(DomainError, match=r"^integrand returned non-finite value inf at x=1\.0$"):
        integrate_mean("x*1e308*10 + log(x)", Interval(-1.0, 3.0))


def test_budget_error_mid_panel_on_the_column_path(monkeypatch):
    # 37 is inside the third panel: two panels go through columns (30 evaluations),
    # the third runs the loop, which raises at its eighth node
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 37)
    calls = []
    value = quadrature.eval_value
    monkeypatch.setattr(quadrature, "eval_value", lambda node, x: calls.append(x) or value(node, x))
    with pytest.raises(BudgetError, match="^evaluation budget of 37 exhausted$"):
        integrate_mean("exp(x)", Interval(0.0, 10.0), 1e-13)
    assert len(calls) == 7
    with pytest.raises(BudgetError, match="^evaluation budget of 37 exhausted$"):
        integrate_mean_fn(math.exp, Interval(0.0, 10.0), 1e-13)


def test_exp_takes_the_column_path(monkeypatch):
    counts = {"values": 0, "jets": 0}
    value, jet = quadrature.eval_value, bounds.eval_jet

    def counted_value(*args):
        counts["values"] += 1
        return value(*args)

    def counted_jet(*args, **kwargs):
        counts["jets"] += 1
        return jet(*args, **kwargs)

    monkeypatch.setattr(quadrature, "eval_value", counted_value)
    monkeypatch.setattr(bounds, "eval_jet", counted_jet)
    bounds._identity_data.cache_clear()
    iv = Interval(0.0, 5.0)
    assert integrate_mean("exp(x)", iv, 1e-12).evaluations == 45
    bounds.bisected_trapezoid_identity_residual("exp(x)", iv)
    bounds.simpson_identity_residual("exp(x)", iv)
    simpson_estimate("exp(x)", iv)
    assert counts == {"values": 0, "jets": 0}


@pytest.mark.parametrize("src", ["sqrt(x)*x", "x*sqrt(x)", "x^1.5"])
def test_simpson_estimate_has_no_bound_where_a_sample_is_not_finite(src):
    # f'''' of x^1.5 is infinite at 0; sqrt(x)*x reads it as NaN, which max() used to drop
    est = simpson_estimate(src, Interval(0.0, 1.0))
    assert est.err_bound == math.inf
    assert est.value == simpson_estimate("x^1.5", Interval(0.0, 1.0)).value
