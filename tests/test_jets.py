import math
import random

import pytest

from hhbounds import DomainError, Interval, convexity_profile, eval_jet, eval_value, jets, parse
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


def _same_floats(a, b):
    return len(a) == len(b) and all(
        p == q or (math.isnan(p) and math.isnan(q)) for p, q in zip(a, b)
    )


@pytest.mark.parametrize("seed", range(4))
def test_order_two_f2_matches_order_four(seed):
    """Order 2 gives the first three order-4 coefficients bit for bit,
    or both orders raise the same error."""
    rng = random.Random(seed)
    jets = 0
    for _ in range(500):
        node = _random_expr(rng, 4)
        for x in (round(rng.uniform(-3.0, 3.0), 2), 0.0, 1.0):
            jet4, err4 = _f2_outcome(node, x, 4)
            jet2, err2 = _f2_outcome(node, x, 2)
            where = f"{to_source(node)} at x={x}"
            if jet4 is None or jet2 is None:
                assert repr(err2) == repr(err4), where
            else:
                assert _same_floats(jet2.coefficients, jet4.coefficients[:3]), where
                jets += 1
    assert jets > 900


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


def test_infinite_coefficient_does_not_turn_f2_into_nan():
    # sin's third derivative times the infinite u'' of x^1.81 must not meet w[0] = 0
    assert eval_jet("sin(x^1.81)", 0.0).derivatives[2] == math.inf


def test_log_of_a_tiny_scale_has_finite_jets():
    for order in (2, 4):
        jet = eval_jet("log(1e-170*x)", 1.0, order=order)
        assert all(map(math.isfinite, jet.coefficients))
        assert jet.derivatives[1:] == pytest.approx((1.0, -1.0, 2.0, -6.0)[:order], rel=1e-15)


def test_vanishing_tiny_base_to_a_fractional_power_has_a_jet():
    # m*r is not an integer, so the power of the leading coefficient 1e-200,
    # which overflows, is not needed
    jet = eval_jet("(1e-200*x)^1.5", 0.0)
    assert jet.derivatives[:2] == (0.0, 0.0)
    assert jet.derivatives[2] == math.inf


def test_order_two_jet_has_three_coefficients():
    jet = eval_jet("exp(x)", 0.0, order=2)
    assert jet.coefficients == (1.0, 1.0, 0.5)
    assert jet.derivatives == (1.0, 1.0, 1.0)
    assert eval_jet("2*3", 1.0, order=2).coefficients == (6.0, 0.0, 0.0)


@pytest.mark.parametrize("order", [0, 1, 3, 5])
def test_unsupported_order_is_rejected(order):
    with pytest.raises(ValueError, match="jet order must be 2 or 4"):
        eval_jet("x", 1.0, order=order)


@pytest.mark.parametrize("e, products", [(1, 0), (2, 1), (4, 2), (5, 3), (8, 3), (-4, 2)])
def test_integer_power_forms_no_wasted_products(monkeypatch, e, products):
    # squaring starts at the lowest set bit of |e| and stops at the highest
    calls = []
    mul = jets._mul
    monkeypatch.setattr(jets, "_mul", lambda a, b: calls.append(1) or mul(a, b))
    got = eval_jet(Pow(Var(), float(e)), 1.5).derivatives
    assert len(calls) == products
    want = [math.prod(e - j for j in range(k)) * 1.5 ** (e - k) for k in range(5)]
    assert got == pytest.approx(want, rel=1e-14, abs=0)


_HYP_POINTS = [0.5 + 0.5 * k / 8 for k in range(9)]


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("softness", [1e-200, 1e-9, 1.0, 1e200])
@pytest.mark.parametrize("order", [2, 4])
def test_hyp_jet_is_finite_and_convex_across_the_float_range(scale, softness, order):
    # squaring u or the softness would leave the float range or cancel in f''
    node = parse(f"hyp(x*{scale!r}, {softness!r})")
    for x in _HYP_POINTS:
        jet = eval_jet(node, x, order=order)
        assert jet.value == eval_value(node, x)
        assert all(map(math.isfinite, jet.coefficients)), (x, jet)
        assert jet.derivatives[2] >= 0.0, (x, jet)


def test_hyp_jet_matches_its_closed_form_derivatives():
    # f = sqrt(t^2 + e^2): f' = t/f, f'' = e^2/f^3, f''' = -3 e^2 t/f^5 and
    # f'''' = 3 e^2 (4t^2 - e^2)/f^7
    t, e = 0.7, 0.3
    f = math.hypot(t, e)
    want = (f, t / f, e**2 / f**3, -3 * e**2 * t / f**5, 3 * e**2 * (4 * t**2 - e**2) / f**7)
    assert eval_jet("hyp(x, 0.3)", t).derivatives == pytest.approx(want, rel=1e-14)


def test_hyp_jet_below_the_scaling_threshold_is_the_scaled_jet():
    # hyp(1e-200 x, 1e-200) = 1e-200 hyp(x, 1), derivative by derivative
    tiny = eval_jet("hyp(x*1e-200, 1e-200)", 0.7).derivatives
    unit = eval_jet("hyp(x, 1)", 0.7).derivatives
    assert tiny == pytest.approx([1e-200 * d for d in unit], rel=1e-14, abs=0.0)


def test_hyp_jet_above_the_scaling_threshold_keeps_a_finite_fourth_coefficient():
    # f''''(0)/24 = -3/eps^3/24 is about -1e300 here, finite, so the table must not
    # be scaled: scaling would push u's fourth power past the float range (-inf)
    mpmath = pytest.importorskip("mpmath")
    c4 = eval_jet("hyp(x, 5e-101)", 0.0).coefficients[4]
    with mpmath.workdps(30):
        want = -1 / (8 * mpmath.mpf(5e-101) ** 3)
    assert c4 == pytest.approx(float(want), rel=1e-15)


def test_hyp_of_a_tiny_softness_has_a_positive_sampled_f2():
    # f'' = e^2/hyp^3 >= 1e-18 on [0.5, 1]; it must not cancel below 0
    prof = convexity_profile("hyp(x, 1e-9)", Interval(0.5, 1.0))
    assert prof.min_f2 > 0.0
    assert prof.f_convex == "yes"


# Coefficients where the straight-line kernels could part from the loops:
# signed zeros, infinities, NaN, the ends of the float range and ordinary values.
_KERNEL_POOL = (
    0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324,
    1.0, -1.0, 0.5, -2.5, 3.0, 0.1, 1e-300, 1e154,
)


def _draw(rng: random.Random, n: int) -> tuple[float, ...]:
    return tuple(rng.choice(_KERNEL_POOL) for _ in range(n))


@pytest.mark.parametrize("la, lb", [(3, 3), (5, 5), (5, 3), (3, 5)])
def test_straight_line_product_matches_the_loop_bit_for_bit(la, lb):
    rng = random.Random(1000 * la + lb)
    finite = 0
    for _ in range(10_000):
        a, b = _draw(rng, la), _draw(rng, lb)
        finite += math.isfinite(sum(b))
        assert repr(jets._mul(a, b)) == repr(jets._mul_loop(a, b)), (a, b)
    assert finite > 2_000  # the straight-line sums ran, not only the loop


@pytest.mark.parametrize("ld, lu", [(3, 3), (5, 5), (5, 3)])
def test_straight_line_composition_matches_the_loop_bit_for_bit(ld, lu):
    # the table must reach the order of u, so (3, 5) is not a valid pair
    rng = random.Random(1000 * ld + lu)
    finite = 0
    for _ in range(10_000):
        derivs, u = _draw(rng, ld), _draw(rng, lu)
        finite += math.isfinite(sum(u))
        assert repr(jets._compose(derivs, u)) == repr(jets._compose_loop(derivs, u)), (derivs, u)
    assert finite > 2_000


def _outcome(fn, *args) -> str:
    """repr of fn(*args), or the type and text of what it raised."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("la, lb", [(5, 5), (3, 3), (5, 3)])
def test_straight_line_quotient_matches_the_loop_bit_for_bit(la, lb):
    # a zero divisor raises ZeroDivisionError at the first coefficient in both forms
    rng = random.Random(2000 * la + lb)
    divided = 0
    for _ in range(10_000):
        a, b = _draw(rng, la), _draw(rng, lb)
        divided += b[0] != 0.0
        assert _outcome(jets._div, a, b) == _outcome(jets._div_loop, a, b), (a, b)
    assert divided > 2_000  # the straight-line form ran to its end, not only raised


@pytest.mark.parametrize("n", [3, 5])
def test_straight_line_power_table_matches_the_loop_bit_for_bit(n):
    # exponents from the pool and ordinary non-integers; bases from the pool, so
    # 0 to a negative power and results past the float range raise in both forms
    rng = random.Random(3000 + n)
    returned = 0
    for _ in range(10_000):
        u0 = rng.choice(_KERNEL_POOL)
        r = rng.choice(_KERNEL_POOL + (rng.uniform(-4.0, 4.0), round(rng.uniform(-4.0, 4.0), 1)))
        got = _outcome(jets._pow_table, u0, r, n)
        assert got == _outcome(jets._pow_table_loop, u0, r, n), (u0, r)
        returned += got.startswith("(")
    assert returned > 2_000

