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
    jets,
    parse,
    quadrature,
)
from hhbounds.bounds import simpson_estimate
from hhbounds.expr import eval_column
from hhbounds.jets import jet_coefficients, jet_column
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
    # range, and the order-4 column answers with the per-point jet's -inf
    answered = _compare(parse("hyp(x, 5e-104)"), TINY)
    assert answered == {"values": True, "jets-2": True, "jets-4": True}
    assert all(c[4] == -math.inf for c in jet_column("hyp(x, 5e-104)", TINY))


def test_hyp_columns_answer_where_the_point_shifts_x():
    # just below 4.1e-103 the fourth coefficient of the scaled table is past the float
    # range, and the per-point jet takes it, finite, from a composition in a shifted x;
    # the column's hyp is the point operation, so it answers with the same bits
    xs = [k * 1e-104 for k in range(-7, 8)]
    answered = _compare(parse("hyp(x, 3e-103)"), xs)
    assert answered == {"values": True, "jets-2": True, "jets-4": True}
    assert all(math.isfinite(sum(jet_coefficients("hyp(x, 3e-103)", x))) for x in xs)


def test_abs_columns_answer_on_both_signs():
    # each point takes its own sign's branch of the point abs, so a column of both
    # signs answers; only a point at 0 raises, and the column then declines
    assert _compare(parse("abs(x)"), ACROSS) == {"values": True, "jets-2": True, "jets-4": True}
    assert _compare(parse("abs(x)"), STRADDLE) == {"values": True, "jets-2": False, "jets-4": False}


def _assert_mapped(column_op, point_op, columns, *tail):
    """column_op on columns gives point_op at each point: its list, or its first error."""
    want = _outcome(lambda: [point_op(*args, *tail) for args in zip(*columns)])
    assert _outcome(lambda: column_op(*columns, *tail)) == want, (columns, tail)


# Float operands, non-finite ones included, so that first errors are compared too
FLOAT_OPERANDS = [
    POSITIVE, STRADDLE, NEGATIVE, TINY,
    [1.0, 2.0, math.inf, -3.0], [0.5, math.nan, 2.0], [700.0, 710.0, -1e308],
]
# The constant operand of `^` and `hyp`, each as the tail of an argument list
CONSTANT_TAILS = {
    "^": [(r,) for r in (2.0, 0.5, -1.0, 2.5, -3.0)],
    "hyp": [(eps,) for eps in (0.5, 1e-3, 3e-103, 5e-104, 1e200)],
}
# The jet column entries that are the point operation mapped down a column, not a kernel
LIFTED_JET_KEYS = ("-", "hyp", "sqrt", "abs", "sin", "cos")


def test_lifted_entries_are_the_point_operation_down_a_column():
    for key, op in expr.FLOAT_COLUMNS.items():
        if key in ("const", "head"):
            continue
        for a in FLOAT_OPERANDS:
            if key in expr._BIN_OPS:
                for b in (a[::-1], [2.0] * len(a), [0.0] * len(a)):
                    _assert_mapped(op, expr.FLOATS[key], [a, b])
            else:
                for tail in CONSTANT_TAILS.get(key, [()]):
                    _assert_mapped(op, expr.FLOATS[key], [a], *tail)
    shifted = [k * 1e-104 for k in range(-7, 8)]
    for order, table in ((2, jets.JET2_COLUMNS), (4, jets.JET4_COLUMNS)):
        for key in LIFTED_JET_KEYS:
            for xs in (*POINT_SETS.values(), shifted, [1e200, 1e300]):
                for src in ("x", "x - 0.5", "x*x*x", "exp(x) - 1"):
                    if src.startswith("exp") and max(xs) > 700.0:
                        continue  # the operand itself overflows
                    column = [jet_coefficients(src, x, order) for x in xs]
                    operands = [column, column[::-1]] if key in expr._BIN_OPS else [column]
                    for tail in CONSTANT_TAILS.get(key, [()]):
                        _assert_mapped(table[key], jets._POINTS[order][key], operands, *tail)


@pytest.mark.parametrize(
    "src, values",
    [
        ("log(x*1e308*10)", [math.inf, math.inf]),
        ("sqrt(x*1e308*10 - x*1e308*10)", [math.nan, math.nan]),
        ("1/(x*1e308*10)", [0.0, 0.0]),
    ],
)
def test_a_domain_rule_is_not_judged_on_a_column_that_is_not_finite(src, values):
    # the head of the operand column is inf or NaN at every point, so `column_head`
    # declines each walk before a domain rule reads it, and the points decide alone
    assert _compare(parse(src), [1.0, 2.0]) == {"values": False, "jets-2": False, "jets-4": False}
    assert repr([eval_value(parse(src), x) for x in (1.0, 2.0)]) == repr(values)


def test_the_column_head_declines_a_column_that_is_not_finite():
    for column in ([1.0, math.inf], [math.nan, 2.0], [-math.inf, -1.0]):
        with pytest.raises(expr.Fallback):
            expr.column_head(column)
    assert expr.column_head([2.0, -1.0, 0.5]) == -1.0


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("src, xs", [("x*1e308", [1.0, 1.5]), ("x^1.5", [0.0, 0.5])])
def test_a_column_answers_where_its_points_answer(src, xs, order):
    # the constant column's heads sum past the float range, and x^1.5 has a vanishing
    # base at 0.0: each kernel maps its scalar form there, and the walk answers
    want = [jet_coefficients(src, x, order) for x in xs]
    assert repr(jet_column(src, xs, order)) == repr(want)


def test_an_order_2_power_read_at_order_4_declines():
    # the point path evaluates (x^3)^0.5 at 0.0 again at order 4; a column walk declines
    assert jet_column("(x^3)^0.5", [0.0, 0.5], 2) is None
    assert jet_coefficients("(x^3)^0.5", 0.0, 2) == (0.0, 0.0, math.inf)


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
    # a Fallback: at order 2 the point sqrt of x*x*x at 0.0 must be read at order 4
    try:
        return repr(fn())
    except (ArithmeticError, ValueError, BudgetError, expr.Fallback) as exc:
        return type(exc).__name__, str(exc)


def _caller_outcomes(node, iv):
    return [
        _outcome(lambda: integrate_mean(node, iv, 1e-9)),
        _outcome(lambda: bounds.bisected_trapezoid_identity_residual(node, iv, 1e-9)),
        _outcome(lambda: bounds.simpson_identity_residual(node, iv, 1e-9)),
        _outcome(lambda: bounds.identity_residuals(node, iv, integrate_mean(node, iv).value, 1e-9)),
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
    value, jet = quadrature.eval_value, bounds.jet_coefficients

    def counted_value(*args):
        counts["values"] += 1
        return value(*args)

    def counted_jet(*args, **kwargs):
        counts["jets"] += 1
        return jet(*args, **kwargs)

    monkeypatch.setattr(quadrature, "eval_value", counted_value)
    monkeypatch.setattr(bounds, "jet_coefficients", counted_jet)
    iv = Interval(0.0, 5.0)
    assert integrate_mean("exp(x)", iv, 1e-12).evaluations == 45
    bounds.bisected_trapezoid_identity_residual("exp(x)", iv)
    bounds.simpson_identity_residual("exp(x)", iv)
    simpson_estimate("exp(x)", iv)
    assert counts == {"values": 0, "jets": 0}


def test_a_finite_column_whose_sum_overflows_is_read_as_finite(monkeypatch):
    # the column of x*1e308 at 1.0 and 1.5 sums past the float range, and 15 values
    # near 1.5e307 do too, though every entry is finite
    node = parse("log(x*1e308)")
    assert repr(eval_column(node, [1.0, 1.5])) == repr([eval_value(node, x) for x in (1.0, 1.5)])
    calls = []
    value = quadrature.eval_value
    monkeypatch.setattr(quadrature, "eval_value", lambda node, x: calls.append(x) or value(node, x))
    assert integrate_mean("x*1e307", Interval(1.0, 1.7)).evaluations == 45
    assert calls == []


@pytest.mark.parametrize("src", ["sqrt(x)*x", "x*sqrt(x)", "x^1.5"])
def test_simpson_estimate_has_no_bound_where_a_sample_is_not_finite(src):
    # f'''' of x^1.5 is infinite at 0; sqrt(x)*x reads it as NaN, which max() used to drop
    est = simpson_estimate(src, Interval(0.0, 1.0))
    assert est.err_bound == math.inf
    assert est.value == simpson_estimate("x^1.5", Interval(0.0, 1.0)).value
