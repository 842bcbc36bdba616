import math
import random

import pytest

from hhbounds import DomainError, eval_jet, eval_value, parse
from hhbounds.expr import BinOp, Const, Pow, Var


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
