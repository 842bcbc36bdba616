import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hhbounds import bounds
from hhbounds import (
    BudgetError,
    DomainError,
    Enclosure,
    Interval,
    WeightPair,
    adaptive_enclosure,
    bisected_trapezoid,
    bisected_trapezoid_defect,
    bisected_trapezoid_identity_residual,
    classic_hh,
    convexity_profile,
    eval_value,
    integrate_mean,
    integrate_mean_fn,
    mean_enclosure_via_defect,
    parse,
    simpson_defect_bound,
    simpson_estimate,
    simpson_identity_residual,
    simpson_one_sided_bound,
    simpson_value,
    symmetric_point_triple,
    weighted_value,
)

from hhbounds.expr import BinOp, Const, Pow, Var

UNIT = Interval(0.0, 1.0)
EXP = parse("exp(x)")


# --- core carriers -----------------------------------------------------------


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)
    iv = Interval(1.0, 3.0)
    assert iv.mid == 2.0 and iv.length == 2.0


def test_enclosure_validation_and_contains():
    with pytest.raises(ValueError):
        Enclosure(1.0, 0.5)
    e = Enclosure(0.0, 1.0)
    assert e.contains(0.5) and not e.contains(1.1)
    assert e.contains(1.0 + 1e-10, slack=1e-9)
    assert e.width == 1.0


def test_weight_pair_normalization():
    with pytest.raises(ValueError):
        WeightPair(0.3, 0.5)
    w = WeightPair.from_endpoint(0.25)
    assert w.midpoint_weight == 0.5
    assert w.upper_bound_valid
    assert WeightPair.from_endpoint(0.5).upper_bound_valid
    assert not WeightPair.from_endpoint(0.2).upper_bound_valid
    assert not WeightPair.from_endpoint(0.6).upper_bound_valid


# --- point bounds ------------------------------------------------------------


def test_classic_hh_exp():
    # sqrt(e) and (1+e)/2
    got = classic_hh(EXP, UNIT)
    assert got.lower == pytest.approx(1.6487212707001282, rel=1e-12)
    assert got.upper == pytest.approx(1.8591409142295225, rel=1e-12)
    assert got.contains(math.e - 1.0)


def test_classic_hh_reciprocal():
    got = classic_hh(parse("1/x"), Interval(1.0, 2.0))
    assert got.lower == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert got.upper == pytest.approx(0.75, rel=1e-15)
    assert got.contains(math.log(2.0))


def test_classic_hh_affine_collapses():
    got = classic_hh(parse("x"), UNIT)
    assert got.lower == got.upper == 0.5


def test_weighted_value_quarter_half():
    got = weighted_value(parse("x^2"), UNIT, WeightPair.from_endpoint(0.25))
    assert got == pytest.approx(0.375, rel=1e-15)


def test_weighted_value_simpson_weights():
    got = weighted_value(EXP, UNIT, WeightPair(1.0 / 6.0, 2.0 / 3.0))
    assert got == pytest.approx(1.718861151876593, rel=1e-12)


def test_weighted_value_affine_any_weights():
    rng = random.Random(3)
    for _ in range(20):
        w = WeightPair.from_endpoint(rng.uniform(-0.5, 0.5))
        a, b = sorted((rng.uniform(-3, 3), rng.uniform(-3, 3) + 4))
        got = weighted_value(parse("2*x + 1"), Interval(a, b), w)
        assert got == pytest.approx(a + b + 1.0, rel=1e-12)


def test_bisected_trapezoid_exp():
    # (1 + e + 2 sqrt(e)) / 4
    got = bisected_trapezoid(EXP, UNIT)
    assert got == pytest.approx(1.7539310924648253, rel=1e-12)
    assert got >= math.e - 1.0


def test_bisected_trapezoid_reciprocal():
    got = bisected_trapezoid(parse("1/x"), Interval(1.0, 2.0))
    assert got == pytest.approx(17.0 / 24.0, rel=1e-14)
    assert got >= math.log(2.0)


def test_bisected_trapezoid_tent_equality():
    # |t - 1/2| on [0,1]: bound equals the mean exactly
    got = bisected_trapezoid(parse("abs(x - 0.5)"), UNIT)
    assert got == pytest.approx(0.25, abs=1e-15)


def test_bound_ordering_bt_below_trapezoid():
    trap = classic_hh(EXP, UNIT).upper
    assert bisected_trapezoid(EXP, UNIT) <= trap


# --- convexity profiles --------------------------------------------------------


def test_profile_exp():
    prof = convexity_profile(EXP, UNIT)
    assert prof.f_convex == "yes"
    assert prof.f2_shape == "convex"
    assert prof.min_f2 > 0.99
    assert prof.samples == 129


def test_profile_fractional_power():
    prof = convexity_profile(parse("x^2.5"), Interval(0.01, 1.0))
    assert prof.f_convex == "yes"
    assert prof.f2_shape == "concave"


def test_profile_concave_function():
    prof = convexity_profile(parse("sin(x)"), Interval(0.0, 3.14))
    assert prof.f_convex == "no"


def test_profile_mixed_sign_indeterminate():
    prof = convexity_profile(parse("x^3"), Interval(-1.0, 1.0))
    assert prof.f_convex == "indeterminate"


def test_profile_with_an_infinite_f2_sample_is_indeterminate():
    # (x - c)^1.5 with c the leftmost Chebyshev node: f'' = 0.75 (x - c)^-0.5
    # is infinite at that node and finite at every other
    iv = Interval(0.5, 1.0)
    c = min(bounds._chebyshev_nodes(iv, 129))
    prof = convexity_profile(Pow(BinOp("-", Var(), Const(c)), 1.5), iv)
    assert prof.f_convex == "indeterminate"
    assert prof.f2_shape == "indeterminate"
    assert 0.0 < prof.min_f2 < math.inf


@pytest.mark.parametrize(
    "src, a, b",
    [("exp(x)", 0.0, 1.0), ("x^2.5", 0.01, 1.0), ("sin(x)", 0.0, 3.14), ("x^3", -1.0, 1.0)],
)
def test_order_two_profile_has_the_order_four_gate(src, a, b):
    iv = Interval(a, b)
    low = convexity_profile(parse(src), iv, 129, 2)
    full = convexity_profile(parse(src), iv, 129, 4)
    assert (low.f_convex, repr(low.min_f2), low.samples) == (full.f_convex, repr(full.min_f2), 129)
    assert low.f2_shape == "indeterminate"


def test_profile_rejects_an_unsupported_order():
    with pytest.raises(ValueError, match="jet order must be 2 or 4, got 3"):
        convexity_profile(EXP, UNIT, order=3)


def test_profile_minimum_sample_count():
    with pytest.raises(ValueError):
        convexity_profile(EXP, UNIT, 32)


def test_profile_domain_error_at_sample():
    # odd sample counts place a node at the midpoint kink
    with pytest.raises(DomainError):
        convexity_profile(parse("abs(x - 0.5)"), UNIT, 129)


# --- defect sandwiches ---------------------------------------------------------


def test_defect_sandwich_exp():
    # (sqrt(e)/48, (1+e)/96) around the bisected-trapezoid defect
    encl = bisected_trapezoid_defect(EXP, UNIT)
    assert encl.lower == pytest.approx(0.03434835980625267, rel=1e-12)
    assert encl.upper == pytest.approx(0.03873210237978172, rel=1e-12)
    defect = bisected_trapezoid(EXP, UNIT) - (math.e - 1.0)
    assert defect == pytest.approx(0.035649264005780147, rel=1e-12)
    assert encl.contains(defect)


def test_defect_sandwich_reciprocal():
    encl = bisected_trapezoid_defect(parse("1/x"), Interval(1.0, 2.0))
    assert encl.lower == pytest.approx(0.012345679012345678, rel=1e-13)
    assert encl.upper == pytest.approx(0.0234375, rel=1e-13)
    defect = 17.0 / 24.0 - math.log(2.0)
    assert defect == pytest.approx(0.015186152773388024, rel=1e-12)
    assert encl.contains(defect)


def test_defect_sandwich_concave_second_derivative_swaps():
    f = parse("x^2.5")
    encl = bisected_trapezoid_defect(f, UNIT)
    # f'' = 3.75 sqrt(t) is concave: endpoint average gives the lower side
    assert encl.lower == pytest.approx(3.75 / 96.0, rel=1e-13)
    assert encl.upper == pytest.approx(3.75 * math.sqrt(0.5) / 48.0, rel=1e-13)
    defect = bisected_trapezoid(f, UNIT) - 1.0 / 3.5
    assert encl.contains(defect, slack=1e-12)


def test_defect_requires_determinate_profile():
    # f'' = 4 - sin is positive but f'''' = sin changes sign on [0, 6]
    f, iv = parse("sin(x) + 2*x^2"), Interval(0.0, 6.0)
    prof = convexity_profile(f, iv)
    assert prof.f_convex == "yes"
    assert prof.f2_shape == "indeterminate"
    with pytest.raises(ValueError):
        bisected_trapezoid_defect(f, iv, prof)


@pytest.mark.parametrize(
    "bound", [bisected_trapezoid_defect, simpson_one_sided_bound, simpson_defect_bound]
)
def test_every_f2_shape_bound_refuses_an_indeterminate_shape_in_one_wording(bound):
    f, iv = parse("x^2 + sin(x)"), Interval(-1.0, 1.0)
    message = "^second derivative has no certified convexity direction$"
    with pytest.raises(ValueError, match=message):
        bound(f, iv)


def test_mean_enclosure_via_defect():
    encl = mean_enclosure_via_defect(EXP, UNIT)
    assert encl.contains(math.e - 1.0)
    assert encl.width == pytest.approx(
        bisected_trapezoid_defect(EXP, UNIT).width, rel=1e-12
    )


def test_simpson_one_sided_exp():
    got = simpson_one_sided_bound(EXP, UNIT)
    assert got.is_upper
    assert got.value == pytest.approx(1.718861151876593, rel=1e-12)
    assert got.value >= math.e - 1.0


def test_simpson_one_sided_concave_flips():
    got = simpson_one_sided_bound(parse("x^2.5"), UNIT)
    assert not got.is_upper
    assert got.value == pytest.approx(0.2845177968644246, rel=1e-12)
    assert got.value <= 1.0 / 3.5


def test_simpson_cubic_equality():
    got = simpson_one_sided_bound(parse("x^3"), UNIT)
    assert got.value == pytest.approx(0.25, abs=1e-15)


def test_simpson_defect_bound_quartic():
    encl = simpson_defect_bound(parse("x^4"), UNIT)
    assert encl.lower == 0.0
    assert encl.upper == pytest.approx(6.0 / 324.0, rel=1e-12)
    defect = simpson_value(parse("x^4"), UNIT) - 0.2
    assert defect == pytest.approx(1.0 / 120.0, rel=1e-12)
    assert encl.contains(defect)


def test_simpson_defect_bound_exp():
    encl = simpson_defect_bound(EXP, UNIT)
    assert encl.upper == pytest.approx(0.0012988866884530523, rel=1e-12)
    assert encl.contains(1.718861151876593 - (math.e - 1.0), slack=1e-12)


def test_simpson_defect_bound_concave_orientation():
    f = parse("x^2.5")
    encl = simpson_defect_bound(f, UNIT)
    assert encl.upper == pytest.approx(0.0047941, abs=1e-7)
    oriented = 1.0 / 3.5 - simpson_value(f, UNIT)
    assert oriented == pytest.approx(0.0011964889, abs=1e-9)
    assert encl.contains(oriented, slack=1e-12)


# --- symmetric point triple ------------------------------------------------------


def test_triple_square():
    got = symmetric_point_triple(parse("x^2"), UNIT, 0.5)
    assert got == pytest.approx((0.5, 0.625, 1.0), rel=1e-15)


def test_triple_affine_all_equal():
    a, b = 0.3, 2.1
    got = symmetric_point_triple(parse("x"), Interval(a, b), 0.77)
    assert got == pytest.approx((a + b, a + b, a + b), rel=1e-15)


def test_triple_endpoints_of_t():
    lo, mid, hi = symmetric_point_triple(EXP, UNIT, 1.0)
    assert lo == pytest.approx(mid, rel=1e-15)  # x = y = midpoint at t = 1
    lo, mid, hi = symmetric_point_triple(EXP, UNIT, 0.0)
    assert mid == pytest.approx(hi, rel=1e-15)  # x = b, y = a at t = 0


def test_triple_monotone_for_convex():
    rng = random.Random(17)
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        lo, mid, hi = symmetric_point_triple(EXP, UNIT, t)
        assert lo <= mid + 1e-12 and mid <= hi + 1e-12


def test_triple_rejects_bad_t():
    with pytest.raises(ValueError):
        symmetric_point_triple(EXP, UNIT, 1.5)


# --- integral identities ---------------------------------------------------------


def test_identity_square_gives_one_twentyfourth():
    check = bisected_trapezoid_identity_residual(parse("x^2"), UNIT)
    assert check.lhs == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert check.rhs == pytest.approx(1.0 / 24.0, abs=1e-12)
    assert check.residual < 1e-10


def test_identity_quartic_gives_one_onetwentieth():
    check = simpson_identity_residual(parse("x^4"), UNIT)
    assert check.lhs == pytest.approx(1.0 / 120.0, abs=1e-12)
    assert check.rhs == pytest.approx(1.0 / 120.0, abs=1e-12)
    assert check.residual < 1e-10


def test_identity_cubic_vanishes():
    check = simpson_identity_residual(parse("x^3"), Interval(0.4, 1.9))
    assert abs(check.lhs) < 1e-12
    assert abs(check.rhs) < 1e-12


def test_identity_exp_general_interval():
    check = bisected_trapezoid_identity_residual(EXP, Interval(0.2, 1.7))
    assert check.residual < 1e-8 * (1.0 + abs(check.lhs))


@pytest.mark.parametrize(
    "residual, lhs, rhs",
    [
        (bisected_trapezoid_identity_residual, "0x1.68d6077496e18p-3", "0x1.68d6077496e1ep-3"),
        (simpson_identity_residual, "0x1.e8521152e59d0p-5", "0x1.e8521152e59dcp-5"),
    ],
)
def test_identity_residuals_are_pinned_bit_for_bit(residual, lhs, rhs):
    check = residual("-log(x)", Interval(0.318818443, 4.50592161), tol=1e-9)
    assert (check.lhs.hex(), check.rhs.hex()) == (lhs, rhs)
    assert check.residual == abs(check.lhs - check.rhs)



def test_bisected_trapezoid_kernel_matches_mpmath():
    # Benchmark defect 4: on this interval the adaptive-Simpson oracle put the
    # kernel integral off by 1.17e-8 and reported an error of 4.2e-10.
    # f = -log(x), so f'' = 1/x^2.
    mpmath = pytest.importorskip("mpmath")
    a, b = 0.318818443, 4.50592161
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)

        def mp_kernel(t):
            x = ma * t / 2 + mb * (1 - t / 2)
            return t * (1 - t) * (1 / x ** 2 + 1 / (ma + mb - x) ** 2)

        want = mpmath.quad(mp_kernel, [0, 1])
        rhs = (mb - ma) ** 2 / 16 * want

    def kernel(t):
        x = a * (0.5 * t) + b * (1.0 - 0.5 * t)
        return t * (1.0 - t) * (1.0 / x ** 2 + 1.0 / (a + b - x) ** 2)

    got = integrate_mean_fn(kernel, Interval(0.0, 1.0), 1e-9)
    assert abs(got.value - float(want)) <= min(got.err_estimate, 1e-12)
    check = bisected_trapezoid_identity_residual("-log(x)", Interval(a, b), tol=1e-9)
    assert abs(check.rhs - float(rhs)) <= 1e-12


# --- defect theorem table ---------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("theorem", sorted(bounds.DEFECTS))
@pytest.mark.parametrize(
    "f, a, b, suffix", [("exp(x)", 0.0, 1.0, ""), ("x^2.5", 1.0, 2.0, "-concave")]
)
def test_defect_rows_match_the_recorded_cli_runs(theorem, f, a, b, suffix):
    recorded = json.loads((GOLDEN / f"defect-theorem{theorem}{suffix}.json.out").read_text())
    node, iv = parse(f), Interval(a, b)
    prof = convexity_profile(node, iv, 129)
    mean = integrate_mean(node, iv, 1e-10).value
    citations, defect = bounds.DEFECTS[theorem]
    encl, observed = defect(node, iv, prof, mean)
    out = recorded["outputs"]
    assert (encl.lower, encl.upper, observed) == (out["lower"], out["upper"], out["observed"])
    assert list(citations) == recorded["citations"]
    assert encl.lower <= observed <= encl.upper


# --- simpson estimate -------------------------------------------------------------


def test_simpson_estimate_exp():
    est = simpson_estimate(EXP, UNIT)
    assert est.value == pytest.approx(1.718861151876593, rel=1e-12)
    # (1/90)(1/32) e
    assert est.err_bound == pytest.approx(math.e / 2880.0, rel=1e-10)
    assert abs(est.value - (math.e - 1.0)) <= est.err_bound


def test_simpson_estimate_cubic_exact():
    est = simpson_estimate(parse("x^3"), Interval(0.0, 2.0))
    assert est.value == pytest.approx(2.0, rel=1e-15)
    assert est.err_bound == 0.0


def test_simpson_estimate_quartic_attains_bound():
    est = simpson_estimate(parse("x^4"), UNIT)
    assert est.value == pytest.approx(5.0 / 24.0, rel=1e-14)
    assert est.err_bound == pytest.approx(1.0 / 120.0, abs=1e-12)
    assert abs(est.value - 0.2) == pytest.approx(est.err_bound, abs=1e-12)


# --- adaptive refinement -----------------------------------------------------------


def test_adaptive_square():
    encl = adaptive_enclosure(parse("x^2"), UNIT, 1e-6)
    assert encl.width <= 1e-6
    assert encl.contains(1.0 / 3.0)


def test_adaptive_exp_tight():
    encl = adaptive_enclosure(EXP, UNIT, 1e-8)
    assert encl.width <= 1e-8
    assert encl.contains(math.e - 1.0)


@pytest.mark.parametrize(
    "src, a, b, tol, anti",
    [
        ("exp(x)", 0.0, 1.0, 3e-10, math.exp),
        ("exp(x)", 0.0, 1.0, 1e-10, math.exp),
        ("x*log(x)", 0.5, 2.0, 1e-10, lambda t: t * t * (2.0 * math.log(t) - 1.0) / 4.0),
        ("x^2.5", 0.1, 2.0, 1e-10, lambda t: t ** 3.5 / 3.5),
    ],
)
def test_adaptive_returned_width_within_tol(src, a, b, tol, anti):
    # the running sum of panel gaps drifts from the summed bracket by rounding
    encl = adaptive_enclosure(src, Interval(a, b), tol)
    assert encl.width <= tol
    assert encl.contains((anti(b) - anti(a)) / (b - a), slack=1e-14)


def test_adaptive_requires_convex_profile():
    iv = Interval(0.0, 3.14)
    prof = convexity_profile(parse("sin(x)"), iv)
    with pytest.raises(ValueError, match=r"^integrand is not certified convex \(no\)$"):
        adaptive_enclosure(parse("sin(x)"), iv, 1e-6, prof)


def test_adaptive_budget_error(monkeypatch):
    monkeypatch.setattr(bounds, "_MAX_PANELS", 8)
    with pytest.raises(BudgetError):
        adaptive_enclosure(EXP, UNIT, 1e-12)


def test_adaptive_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        adaptive_enclosure(EXP, UNIT, 0.0)


def test_adaptive_rejects_nan_tol():
    # NaN once passed the tol check and then looped forever, so the call
    # runs in a child process with a deadline
    code = (
        "import math\n"
        "from hhbounds import Interval, adaptive_enclosure\n"
        "try:\n"
        "    adaptive_enclosure('exp(x)', Interval(0.0, 1.0), math.nan)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20
    )
    assert proc.stdout == "tol must be positive, got nan\n"


def test_adaptive_deterministic():
    e1 = adaptive_enclosure(EXP, UNIT, 1e-7)
    e2 = adaptive_enclosure(EXP, UNIT, 1e-7)
    assert e1 == e2


def test_one_bisection_shrinks_width_by_factor_near_four():
    # depth 0: [f(mid), quarter-half value]; depth 1: averages over halves.
    # The squared-length defect scaling predicts close to (but not quite) 4x.
    f, iv = EXP, UNIT
    w0 = bisected_trapezoid(f, iv) - eval_value(f, iv.mid)
    halves = (Interval(0.0, 0.5), Interval(0.5, 1.0))
    lower1 = sum(eval_value(f, h.mid) for h in halves) / 2.0
    upper1 = sum(bisected_trapezoid(f, h) for h in halves) / 2.0
    w1 = upper1 - lower1
    assert w0 == pytest.approx(0.10520982176469724, rel=1e-12)
    assert w1 == pytest.approx(0.026709187907308653, rel=1e-12)
    factor = w0 / w1
    assert factor == pytest.approx(3.9390872582804292, rel=1e-10)
    assert factor >= 3.9
    assert factor < 4.0  # strictly-quarter shrinkage is NOT attained here


# --- covariance -------------------------------------------------------------------


def test_substitution_covariance():
    # g(t) = f(2t + 1) on [-0.5, 0] samples the same three points as f on [0, 1]
    f = EXP
    g = parse("exp(2*x + 1)")
    iv_f, iv_g = UNIT, Interval(-0.5, 0.0)
    assert bisected_trapezoid(g, iv_g) == pytest.approx(
        bisected_trapezoid(f, iv_f), rel=1e-14
    )
    assert simpson_value(g, iv_g) == pytest.approx(simpson_value(f, iv_f), rel=1e-14)
    assert classic_hh(g, iv_g) == classic_hh(f, iv_f)
    mean_f = integrate_mean(f, iv_f, 1e-11).value
    mean_g = integrate_mean(g, iv_g, 1e-11).value
    assert mean_g == pytest.approx(mean_f, rel=1e-11)
