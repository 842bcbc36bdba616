import math
import random

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


# Bit-for-bit record of the adaptive-Simpson oracle: (value, err_estimate)
# as float.hex, and the evaluation count.  A change of integrator moves
# these on purpose and re-records them.
@pytest.mark.parametrize(
    "f, a, b, tol, value, err, evaluations",
    [
        ("exp(x)", 0.0, 1.0, 1e-10, "0x1.b7e151628aed5p+0", "0x1.38cb4f3333334p-35", 129),
        ("-log(x)", 0.318818443, 4.50592161, 1e-9, "-0x1.6a03a5123bc0cp-1", "0x1.4fb68fcb0e314p-32", 289),
        ("x^2.5", 0.1, 2.0, 1e-11, "0x1.b385e7f956c1ep+0", "0x1.16f73d423ee09p-38", 457),
    ],
)
def test_oracle_is_pinned_bit_for_bit(f, a, b, tol, value, err, evaluations):
    got = integrate_mean(f, Interval(a, b), tol)
    assert (got.value.hex(), got.err_estimate.hex(), got.evaluations) == (value, err, evaluations)


def test_callable_oracle_is_pinned_bit_for_bit():
    got = integrate_mean_fn(math.sqrt, Interval(0.0, 1.0), 1e-10)
    assert got.value.hex() == "0x1.5555555555459p-1"
    assert got.err_estimate.hex() == "0x1.3afb59e03b6d5p-35"
    assert got.evaluations == 985
