import math
import random
from fractions import Fraction

import pytest

from hhbounds import quadrature
from hhbounds import (
    BudgetError,
    DomainError,
    Interval,
    integrate_mean,
    integrate_mean_fn,
    parse,
)


def test_cubic_exact():
    got = integrate_mean("x^3", Interval(0.0, 1.0), 1e-10)
    assert got.value == pytest.approx(0.25, rel=1e-15)


def test_random_cubics_exact():
    rng = random.Random(5)
    for _ in range(30):
        c = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 2.0)
        src = f"{c[0]!r} + {c[1]!r}*x + {c[2]!r}*x^2 + {c[3]!r}*x^3"
        anti = lambda t: c[0] * t + c[1] * t * t / 2 + c[2] * t ** 3 / 3 + c[3] * t ** 4 / 4
        want = (anti(b) - anti(a)) / (b - a)
        got = integrate_mean(src, Interval(a, b), 1e-10).value
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_exp_closed_form():
    got = integrate_mean("exp(x)", Interval(0.0, 1.0), 1e-12)
    assert got.value == pytest.approx(math.e - 1.0, abs=1e-12)
    assert got.err_estimate >= 0.0
    assert got.evaluations >= 5


def test_reciprocal_closed_form():
    got = integrate_mean("1/x", Interval(1.0, 2.0), 1e-10)
    assert got.value == pytest.approx(math.log(2.0), abs=1e-10)


def test_xlogx_closed_form():
    # antiderivative of t log t is t^2/2 log t - t^2/4
    f3 = 4.5 * math.log(3.0) - 2.25
    f1 = -0.25
    got = integrate_mean("x*log(x)", Interval(1.0, 3.0), 1e-11)
    assert got.value == pytest.approx((f3 - f1) / 2.0, abs=1e-10)


def test_additivity():
    rng = random.Random(9)
    f = parse("exp(x) * (1 + x)")
    for _ in range(20):
        a = rng.uniform(0.0, 2.0)
        b = a + rng.uniform(0.3, 2.0)
        m = a + (b - a) * rng.uniform(0.25, 0.75)
        whole = integrate_mean(f, Interval(a, b), 1e-11).value
        left = integrate_mean(f, Interval(a, m), 1e-11).value
        right = integrate_mean(f, Interval(m, b), 1e-11).value
        combined = ((m - a) * left + (b - m) * right) / (b - a)
        assert whole == pytest.approx(combined, rel=1e-11, abs=1e-11)


def test_deterministic():
    r1 = integrate_mean("sin(x) + exp(x)", Interval(0.0, 2.0), 1e-10)
    r2 = integrate_mean("sin(x) + exp(x)", Interval(0.0, 2.0), 1e-10)
    assert r1 == r2


def test_tolerance_range_enforced():
    with pytest.raises(ValueError):
        integrate_mean("x", Interval(0.0, 1.0), 1e-14)
    with pytest.raises(ValueError):
        integrate_mean("x", Interval(0.0, 1.0), 1e-2)


def test_budget_error(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 30)
    with pytest.raises(BudgetError):
        integrate_mean_fn(math.exp, Interval(0.0, 10.0), 1e-13)


def test_depth_cap_names_the_depth():
    # 1/sqrt(x) is integrable on [0, 1], but the panels at 0 never settle
    with pytest.raises(BudgetError, match="^refinement depth 56 exhausted near x="):
        integrate_mean("1/sqrt(x)", Interval(0.0, 1.0), 1e-10)


def test_domain_error_inside_interval():
    with pytest.raises(DomainError):
        integrate_mean("1/x", Interval(-1.0, 1.0), 1e-10)


def test_nonfinite_value_rejected():
    with pytest.raises(DomainError):
        integrate_mean_fn(lambda t: math.nan, Interval(0.0, 1.0), 1e-10)


def test_err_estimate_bounds_true_error():
    got = integrate_mean("exp(x)", Interval(0.0, 3.0), 1e-9)
    true = (math.exp(3.0) - 1.0) / 3.0
    assert abs(got.value - true) <= max(1e-9, got.err_estimate)


def test_callable_front_end():
    got = integrate_mean_fn(lambda t: t * t, Interval(0.0, 3.0), 1e-10)
    assert got.value == pytest.approx(3.0, rel=1e-13)


def test_narrow_interval():
    iv = Interval(1.0, 1.0 + 1e-7)
    got = integrate_mean("exp(x)", iv, 1e-12)
    want = math.e * math.expm1(iv.length) / iv.length
    assert got.value == pytest.approx(want, rel=1e-9)


# Bit-for-bit record of the G7K15 oracle: (value, err_estimate)
# as float.hex, and the evaluation count.  A change of integrator moves
# these on purpose and re-records them.  The exp row's K15 and G7 agree to
# the last bit, so its err_estimate is the rounding floor, 50 eps |mean|.
_PINNED = [
    ("exp(x)", 0.0, 1.0, 1e-10, "0x1.b7e151628aed2p+0", "0x1.57a80794fc894p-46", 15),
    ("-log(x)", 0.318818443, 4.50592161, 1e-9, "-0x1.6a03a5123c570p-1", "0x1.b06a260000000p-36", 105),
    ("x^2.5", 0.1, 2.0, 1e-11, "0x1.b385e7f956c1fp+0", "0x1.b238a00000001p-38", 75),
]


@pytest.mark.parametrize("f, a, b, tol, value, err, evaluations", _PINNED)
def test_oracle_is_pinned_bit_for_bit(f, a, b, tol, value, err, evaluations):
    got = integrate_mean(f, Interval(a, b), tol)
    assert (got.value.hex(), got.err_estimate.hex(), got.evaluations) == (value, err, evaluations)


@pytest.mark.parametrize("f, a, b, tol, value, err, evaluations", _PINNED)
def test_err_estimate_covers_the_error_of_every_pinned_row(f, a, b, tol, value, err, evaluations):
    mpmath = pytest.importorskip("mpmath")
    got = integrate_mean(f, Interval(a, b), tol)
    with mpmath.workdps(50):
        g = {"exp(x)": mpmath.exp, "-log(x)": lambda t: -mpmath.log(t), "x^2.5": lambda t: t ** 2.5}[f]
        lo, hi = mpmath.mpf(a), mpmath.mpf(b)
        exact = mpmath.quad(g, [lo, hi]) / (hi - lo)
        assert abs(mpmath.mpf(got.value) - exact) <= got.err_estimate
    assert got.err_estimate > 0.0


def test_an_exact_rule_reports_the_rounding_floor_not_zero():
    # K15 and G7 agree to the last bit on exp over [0, 1], and the value is
    # 1 ulp below e - 1 rounded to nearest: |K - G| alone would report 0
    got = integrate_mean("exp(x)", Interval(0.0, 1.0), 1e-10)
    assert math.nextafter(got.value, math.inf) == float.fromhex("0x1.b7e151628aed3p+0")
    assert got.err_estimate == quadrature._ERR_FLOOR * got.value


def test_a_mean_whose_integral_passes_the_float_range_stays_finite():
    # len * mean is 3.98e615: each panel is integrated at the scale 2^-e of the length
    got = integrate_mean("x", Interval(1e307, 8.98e307))
    assert got.value == pytest.approx(4.99e307, rel=1e-15)
    assert 0.0 < got.err_estimate < 1e-13 * got.value
    assert got.evaluations == 15


@pytest.mark.parametrize("c", ["1", "-3.5", "0.1"])
@pytest.mark.parametrize("a, b", [(0.0, 5e-324), (0.0, 1e-320), (-5e-324, 5e-324)])
def test_a_constant_keeps_its_mean_on_a_length_below_2_to_the_minus_1024(c, a, b):
    # 2^-e of the length overflowed ("math range error"), and a half-width
    # formed before scaling rounds to 0 on [0, 5e-324]
    got = integrate_mean(c, Interval(a, b))
    assert got.value == float(c)
    assert got == integrate_mean(c, Interval(0.0, 1.0))


def test_a_mean_on_a_length_below_2_to_the_minus_1024_answers():
    # this raised OverflowError; the true mean, 8e-648, rounds to 0
    got = integrate_mean("x^2", Interval(0.0, 5e-324))
    assert (got.value, got.evaluations) == (0.0, 15)


def test_callable_oracle_is_pinned_bit_for_bit():
    got = integrate_mean_fn(math.sqrt, Interval(0.0, 1.0), 1e-10)
    assert got.value.hex() == "0x1.555555555a52bp-1"
    assert got.err_estimate.hex() == "0x1.5a5b7e8a7f800p-35"
    assert got.evaluations == 465


def test_neglog_error_estimate_covers_true_error():
    # The interval of benchmark defect 4 (suite seed 772164985); the identity
    # kernel on it is checked against mpmath in test_bounds.py.
    a, b = 0.318818443, 4.50592161
    exact = -((b * math.log(b) - b) - (a * math.log(a) - a)) / (b - a)
    got = integrate_mean("-log(x)", Interval(a, b), 1e-9)
    assert abs(got.value - exact) <= got.err_estimate


# --- the G7K15 rule constants -----------------------------------------------------


def _moment(nodes, weights, d):
    """Exact sum of w * x^d over the rule mirrored about 0, from the float literals."""
    total = Fraction(0)
    for x, w in zip(nodes, weights):
        x, w = Fraction(x), Fraction(w)
        total += w * x ** d * (1 if x == 0 else 2)
    return total


@pytest.mark.parametrize(
    "nodes, weights, degree",
    [
        (quadrature._XK, quadrature._WK, 23),
        (quadrature._XK[1::2], quadrature._WG, 13),
    ],
    ids=["kronrod15", "gauss7"],
)
def test_rule_integrates_polynomials_up_to_its_degree(nodes, weights, degree):
    # Odd moments vanish by symmetry; the even ones must be 2/(d+1) to a few
    # ulps through the rule's degree and miss by far at the next even degree.
    for d in range(0, degree + 3, 2):
        want = Fraction(2, d + 1)
        ulps = abs(_moment(nodes, weights, d) - want) / Fraction(math.ulp(float(want)))
        if d <= degree:
            assert ulps <= 4, (d, float(ulps))
        else:
            assert ulps > 1e6, (d, float(ulps))


def test_gauss_nodes_are_the_roots_of_legendre_7():
    mpmath = pytest.importorskip("mpmath")
    gauss = quadrature._XK[1::2]
    with mpmath.workdps(40):
        roots = [mpmath.findroot(lambda x: mpmath.legendre(7, x), g) for g in gauss]
        assert len({mpmath.nstr(r, 20) for r in roots}) == len(gauss)
        for g, r in zip(gauss, roots):
            assert abs(g - r) <= 1e-16, (g, r)
