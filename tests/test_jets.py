import math
import random

import pytest

from hhbounds import DomainError, eval_jet, eval_value, parse
from hhbounds.expr import BinOp, Const, Pow, Var, to_source
from hhbounds.verify import _random_expr


def test_jet_carries_point_and_scaled_coefficients():
    jet = eval_jet("x^2", 3.0)
    assert jet.point == 3.0
    assert jet.coefficients == (9.0, 6.0, 1.0, 0.0, 0.0)
    assert jet.value == 9.0
    assert jet.derivatives == (9.0, 6.0, 2.0, 0.0, 0.0)


def test_exp_at_zero():
    assert eval_jet("exp(x)", 0.0).derivatives == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_reciprocal_at_two():
    got = eval_jet("1/x", 2.0).derivatives
    want = (0.5, -0.25, 0.25, -0.375, 0.75)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-14)


def _fd(fn, x, order):
    """Five-point central differences, one Richardson round.

    Base step 1e-3 except for order 4, where the h^-4 denominator
    amplifies double-precision roundoff past 1e-3 relative; a wider
    step keeps the stencil numerically sound there.
    """
    h = 1.2e-2 if order == 4 else 1e-3

    def stencil(h):
        f = [fn(x + k * h) for k in (-2, -1, 0, 1, 2)]
        if order == 0:
            return f[2]
        if order == 1:
            return (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        if order == 2:
            return (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        if order == 3:
            return (-f[0] + 2 * f[1] - 2 * f[3] + f[4]) / (2 * h ** 3)
        return (f[0] - 4 * f[1] + 6 * f[2] - 4 * f[3] + f[4]) / h ** 4
    coarse, fine = stencil(h), stencil(h / 2)
    p = 4 if order <= 2 else 2
    return fine + (fine - coarse) / (2 ** p - 1)


@pytest.mark.parametrize(
    "src,x",
    [
        ("exp(x)", 0.3),
        ("log(x)", 1.7),
        ("sqrt(x)", 2.2),
        ("sin(x)", 0.9),
        ("cos(x)", 1.1),
        ("abs(x)", 0.8),
        ("abs(x)", -0.8),
        ("1/x", 1.6),
        ("x^3.5", 1.4),
        ("x^-2", 1.9),
        ("hyp(x - 0.5, 0.05)", 0.62),
        ("x*log(x)", 2.4),
        ("exp(x)/(1 + x^2)", 0.5),
    ],
)
def test_primitive_jets_match_finite_differences(src, x):
    node = parse(src)
    fn = lambda t: eval_value(node, t)
    got = eval_jet(node, x).derivatives
    for order in range(5):
        want = _fd(fn, x, order)
        rel = 1e-6 if order <= 2 else 1e-3
        assert got[order] == pytest.approx(want, rel=rel, abs=rel), (src, order)


def test_random_polynomials_exact():
    rng = random.Random(11)
    for _ in range(60):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(5)]
        node = Const(coeffs[0])
        for k in range(1, 5):
            node = BinOp("+", node, BinOp("*", Const(coeffs[k]), Pow(Var(), float(k))))
        x = rng.uniform(-2.0, 2.0)
        got = eval_jet(node, x).derivatives
        cur = list(coeffs)
        for order in range(5):
            want = sum(c * x ** k for k, c in enumerate(cur))
            assert got[order] == pytest.approx(want, rel=1e-12, abs=1e-12)
            cur = [k * c for k, c in enumerate(cur)][1:]


def test_abs_jet_away_from_zero():
    assert eval_jet("abs(x)", 3.0).derivatives == (3.0, 1.0, 0.0, 0.0, 0.0)
    assert eval_jet("abs(x)", -3.0).derivatives == (3.0, -1.0, 0.0, 0.0, 0.0)


def test_abs_jet_at_zero_is_error():
    with pytest.raises(DomainError):
        eval_jet("abs(x)", 0.0)


def test_zero_base_integer_power():
    assert eval_jet("x^3", 0.0).derivatives == (0.0, 0.0, 0.0, 6.0, 0.0)
    assert eval_jet("x^4", 0.0).derivatives == (0.0, 0.0, 0.0, 0.0, 24.0)


def test_zero_base_fractional_power():
    # t^2.5 at 0: value through second derivative vanish; the third
    # derivative 1.875 t^-0.5 diverges to +inf and the fourth,
    # -0.9375 t^-1.5, diverges to -inf
    got = eval_jet("x^2.5", 0.0).derivatives
    assert got[0] == got[1] == got[2] == 0.0
    assert got[3] == math.inf
    assert got[4] == -math.inf


def test_fractional_power_blowup_signs():
    # t^1.5 at 0: d2 = 0.75 t^-0.5 -> +inf, d3 = -0.375 t^-1.5 -> -inf,
    # d4 = 0.5625 t^-2.5 -> +inf
    got = eval_jet("x^1.5", 0.0).derivatives
    assert got[0] == got[1] == 0.0
    assert got[2] == math.inf
    assert got[3] == -math.inf
    assert got[4] == math.inf


def test_zero_base_negative_power_is_error():
    with pytest.raises(DomainError):
        eval_jet("x^-1", 0.0)
    with pytest.raises(DomainError):
        eval_jet("1/x", 0.0)


def test_helper_accessors():
    assert eval_jet("x^2", 3.0).derivatives == (9.0, 6.0, 2.0, 0.0, 0.0)
    assert eval_jet("exp(x)", 0.0).derivatives[2] == pytest.approx(1.0, rel=1e-15)
    assert eval_jet("x^4", 1.0).derivatives[4] == pytest.approx(24.0, rel=1e-15)


def test_composite_chain():
    # f = exp(sqrt(x)) at 4: check against hand derivatives
    x = 4.0
    s = math.sqrt(x)
    f = math.exp(s)
    d1 = f / (2 * s)
    d2 = f * (1 / (4 * x) - 1 / (4 * x * s))
    got = eval_jet("exp(sqrt(x))", x).derivatives
    assert got[0] == pytest.approx(f, rel=1e-14)
    assert got[1] == pytest.approx(d1, rel=1e-14)
    assert got[2] == pytest.approx(d2, rel=1e-13)


def test_string_and_node_inputs_agree():
    node = parse("x*log(x)")
    assert eval_jet(node, 2.0) == eval_jet("x*log(x)", 2.0)


# --- order-2 jets -------------------------------------------------------------


def _f2_outcome(node, x, order):
    try:
        return eval_jet(node, x, order=order), None
    except (DomainError, OverflowError) as exc:
        return None, exc


@pytest.mark.parametrize("seed", range(4))
def test_order_two_f2_matches_order_four(seed):
    """Order 2 gives the order-4 f'' bit for bit, or the same error.

    Two kinds of point are exempt, both from terms that only order 4
    forms: an OverflowError in them (`i ** 3` in the log table, or
    `u0 ** (r - 4)` in a power), and an infinite term in a composition
    (g''' times an infinite coefficient of its argument) that meets
    w[0] = 0 and turns the order-4 f'' into NaN.
    Over the four seeds, one point is exempt: sin(x^1.81) at 0, where
    order 4 gives NaN and order 2 the true +inf.
    """
    rng = random.Random(seed)
    compared = exempt = 0
    for _ in range(500):
        node = _random_expr(rng, 4)
        for x in (round(rng.uniform(-3.0, 3.0), 2), 0.0, 1.0):
            jet4, err4 = _f2_outcome(node, x, 4)
            jet2, err2 = _f2_outcome(node, x, 2)
            where = f"{to_source(node)} at x={x}"
            if jet4 is not None and jet2 is not None:
                assert len(jet2.coefficients) == 3, where
                got, want = jet2.derivatives[2], jet4.derivatives[2]
                if got == want or (math.isnan(got) and math.isnan(want)):
                    compared += 1
                else:
                    assert math.isnan(want), (where, got, want)
                    assert not all(map(math.isfinite, jet4.coefficients[3:])), where
                    exempt += 1
            elif jet4 is None and jet2 is None and repr(err4) == repr(err2):
                compared += 1
            else:
                assert isinstance(err4, OverflowError) and jet2 is not None, (where, err4, err2)
                exempt += 1
    assert compared > 1400 and exempt <= 2


@pytest.mark.parametrize(
    "src,x",
    [
        ("(x^3)^0.5", 0.0),  # f'' = inf from coefficient 3
        ("(x^2 + x^3)^0.5", 0.0),  # f'' = 1 from coefficient 3
        ("(-x^3)^0.5", 0.0),  # refused: the base vanishes from below
        ("x^2.5", 0.0),
        ("sqrt(x^4 + x^5)", 0.0),
    ],
)
def test_order_two_on_a_vanishing_base_matches_order_four(src, x):
    jet4, err4 = _f2_outcome(parse(src), x, 4)
    jet2, err2 = _f2_outcome(parse(src), x, 2)
    if jet4 is None:
        assert repr(err2) == repr(err4)
    else:
        assert jet2.coefficients == jet4.coefficients[:3]


def test_vanishing_base_results_at_order_two():
    assert eval_jet("(x^3)^0.5", 0.0, order=2).derivatives == (0.0, 0.0, math.inf)
    assert eval_jet("(x^2 + x^3)^0.5", 0.0, order=2).derivatives == (0.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="base vanishing from below"):
        eval_jet("(-x^3)^0.5", 0.0, order=2)


def test_order_two_jet_has_three_coefficients():
    jet = eval_jet("exp(x)", 0.0, order=2)
    assert jet.coefficients == (1.0, 1.0, 0.5)
    assert jet.derivatives == (1.0, 1.0, 1.0)
    assert eval_jet("2*3", 1.0, order=2).coefficients == (6.0, 0.0, 0.0)


@pytest.mark.parametrize("order", [0, 1, 3, 5])
def test_unsupported_order_is_rejected(order):
    with pytest.raises(ValueError, match="jet order must be 2 or 4"):
        eval_jet("x", 1.0, order=order)
