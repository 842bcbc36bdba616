import dataclasses
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hhbounds import bounds, jets
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

from hhbounds.expr import BinOp, Const, Pow, Var, to_source
from hhbounds.jets import eval_jet
from hhbounds.verify import _random_expr

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


def test_an_interval_endpoint_at_or_past_2_to_the_1023_is_refused_by_name():
    # the length overflowed: the oracle's mean of 1 read nan
    message = "interval endpoints must lie inside (-2^1023, 2^1023), got [-1e+308, 1e+308]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_mean("1", Interval(-1e308, 1e308))
    # the whole interval's midpoint and length are finite here, a panel's midpoint is not
    with pytest.raises(ValueError, match=r"\(-2\^1023, 2\^1023\)"):
        Interval(1e307, 9e307)
    for a, b in ((-(2.0 ** 1023), 0.0), (0.0, 2.0 ** 1023)):
        with pytest.raises(ValueError, match=r"\(-2\^1023, 2\^1023\)"):
            Interval(a, b)


def test_the_widest_interval_has_finite_panels():
    top = math.nextafter(2.0 ** 1023, 0.0)
    iv = Interval(-top, top)
    assert (iv.mid, iv.length) == (0.0, math.nextafter(math.inf, 0.0))
    assert integrate_mean("1", iv).value == 1.0
    # a + b of the narrowest panel at the top end stays below the float range
    assert Interval(math.nextafter(top, 0.0), top).mid == math.nextafter(top, 0.0)


def test_enclosure_validation_and_contains():
    with pytest.raises(ValueError):
        Enclosure(1.0, 0.5)
    e = Enclosure(0.0, 1.0)
    assert e.contains(0.5) and not e.contains(1.1)
    assert e.contains(1.0 + 1e-10, slack=1e-9)
    assert e.width == 1.0


def test_the_containment_rule_scales_with_the_terms_not_the_value():
    e = Enclosure(0.0, 0.0)
    # 1e-13 of terms near 1e10 is 1e-3, whatever the size of the value itself
    assert e.holds(9e-4, 1e10) and e.holds(-9e-4, 1e10)
    assert not e.holds(2e-3, 1e10)
    assert not e.holds(1e-4, 1e-4)
    assert e.holds(1e-9, 0.0, tol=1e-9) and not e.holds(2e-9, 0.0, tol=1e-9)
    # a defect against the oracle's mean holds to 1e-9 plus 1e-13 (|v| + |mean|)
    assert bounds.defect_verdict(e, 1e12 + 0.0625, 1e12, -1.0) == (e, -0.0625, True)
    assert bounds.defect_verdict(e, 1.0 + 2e-9, 1.0)[2] is False


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
    # f'' = -sin(x) is smallest at the sample nearest pi/2
    x, d2 = prof.worst
    assert abs(x - math.pi / 2) < 0.02
    assert d2 == prof.min_f2 == -math.sin(x)


def test_profile_mixed_sign_indeterminate():
    prof = convexity_profile(parse("x^3"), Interval(-1.0, 1.0))
    assert prof.f_convex == "indeterminate"


@pytest.mark.parametrize(
    "src, a, b, verdict, x, d2",
    [
        ("-x^2", 0.0, 1.0, "no", 0.9999629323566323, -2.0),
        ("log(x)", 1.0, 2.0, "no", 1.0000370676433676, -0.9999258688350916),
        ("x^3", -1.0, 1.0, "indeterminate", -0.9999258647132645, -5.999555188279587),
        # |x - 0.5|^0.5: f'' is -inf at the sample 0.5 itself, finite at every other
        ("((x - 0.5)^2)^0.25", 0.0, 1.0, "indeterminate", 0.5, -math.inf),
    ],
)
def test_a_refused_profile_names_its_worst_sample(src, a, b, verdict, x, d2):
    prof = convexity_profile(parse(src), Interval(a, b))
    assert prof.worst == (x, d2)
    message = f"integrand is not certified convex ({verdict}: f'' = {d2!r} at x = {x!r})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        prof.certified_convex()


def test_profile_with_an_infinite_f2_sample_is_indeterminate():
    # (x - c)^1.5 with c the leftmost Chebyshev node: f'' = 0.75 (x - c)^-0.5
    # is infinite at that node and finite at every other
    iv = Interval(0.5, 1.0)
    c = min(bounds._chebyshev_nodes(iv, 129))
    prof = convexity_profile(Pow(BinOp("-", Var(), Const(c)), 1.5), iv)
    assert prof.f_convex == "indeterminate"
    assert prof.f2_shape == "indeterminate"
    assert 0.0 < prof.min_f2 < math.inf
    # the refusal names the infinite sample, not the smallest finite one
    assert prof.worst == (c, math.inf)


def _nodes_by_cosine(iv, n):
    """The Chebyshev nodes as formed before the unit-node table: one cosine per node."""
    half = 0.5 * iv.length
    return [iv.mid + half * math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(1, n + 1)]


def test_chebyshev_nodes_keep_the_bits_of_one_cosine_per_node():
    rng = random.Random(34)
    ivs = [Interval(-1e300, 1e300), Interval(-1.7e300, -0.9e300), Interval(1.2e300, 1.6e300)]
    for _ in range(100):
        a = rng.uniform(-5.0, 5.0)
        ivs += [Interval(a, a + rng.uniform(1e-3, 5.0)), Interval(a, a + rng.uniform(1e-14, 1e-12))]
    ivs += [Interval(1.0, math.nextafter(1.0, 2.0)), Interval(0.0, 5e-324), Interval(-1e-300, 1e-300)]
    for n in (33, 65, 129, 257):
        for iv in ivs:
            got, want = bounds._chebyshev_nodes(iv, n), _nodes_by_cosine(iv, n)
            assert [x.hex() for x in got] == [x.hex() for x in want], (n, iv)


def _profile_by_seven_passes(node, iv, n=129):
    """`convexity_profile` as it classified before its one-pass checks."""
    xs = _nodes_by_cosine(iv, n)
    cs = [jets.jet_coefficients(node, x) for x in xs]
    d2s = [c[2] * 2.0 for c in cs]

    def classify(vals, pos, neg):
        if not all(map(math.isfinite, vals)):
            return "indeterminate"
        tol = 1e-10 * (1.0 + max(map(abs, vals)))
        if min(vals) >= -tol:
            return pos
        if max(vals) <= tol:
            return neg
        return "indeterminate"

    f_convex = classify(d2s, "yes", "no")
    f2_shape = "indeterminate"
    if "abs" not in bounds.used_names(node):
        f2_shape = classify([c[4] * 24.0 for c in cs], "convex", "concave")
    finite_d2 = [v for v in d2s if math.isfinite(v)]
    min_f2 = min(finite_d2) if finite_d2 else math.nan
    bad = [k for k, v in enumerate(d2s) if not math.isfinite(v)]
    k = bad[0] if bad else d2s.index(min_f2)
    return bounds.ConvexityProfile(f_convex, f2_shape, min_f2, n, (xs[k], d2s[k]))


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ArithmeticError, ValueError) as e:
        return (type(e).__name__, str(e))


def test_profile_classifies_as_its_seven_pass_form_field_by_field():
    cases = [
        (parse("1e308*exp(x)"), UNIT),  # f'' overflows to inf past x = 0.54
        (parse("1e306*x^2"), Interval(1.0, 2.0)),  # finite f'' whose sum overflows
        (parse("1e308*exp(x)"), Interval(1.0, 2.0)),  # no f'' is finite
        # a small f'' of the wrong sign, inside the tolerance of the largest |f''|
        (parse("2.5e-8*x^2 - 1e3*x^4"), Interval(-1.0, 1.0)),
        (parse("1e3*x^4 - 2.5e-8*x^2"), Interval(-1.0, 1.0)),
    ]
    rng = random.Random(7)
    for _ in range(400):
        node = _random_expr(rng, 3)
        a = rng.uniform(-2.0, 2.0)
        cases.append((node, Interval(a, a + rng.uniform(1e-3, 3.0))))
    outcomes = []
    for node, iv in cases:
        want = _outcome(_profile_by_seven_passes, node, iv)
        assert _outcome(convexity_profile, node, iv) == want, (to_source(node), iv)
        outcomes.append(want)
    overflow, large, infinite, concave, convex = outcomes[:5]
    assert "f_convex='indeterminate'" in overflow and "worst=(0.9999629323566323, inf)" in overflow
    assert "f_convex='yes', f2_shape='convex', min_f2=2e+306" in large
    assert "min_f2=nan" in infinite
    assert "f_convex='no', f2_shape='concave'" in concave
    assert "f_convex='yes', f2_shape='convex', min_f2=-5e-08" in convex
    profiles = [out for out in outcomes[5:] if isinstance(out, str)]
    assert len(profiles) >= 300
    for verdict in ("'yes'", "'no'", "'indeterminate'", "'convex'", "'concave'"):
        assert any(verdict in out for out in profiles), verdict


def test_profile_minimum_sample_count():
    with pytest.raises(ValueError):
        convexity_profile(EXP, UNIT, 32)


@pytest.mark.parametrize("src", ["abs(x - 0.3)", "x^2 + abs(x - 0.3)", "exp(abs(x - 0.3))"])
def test_profile_gives_a_tree_that_calls_abs_no_f2_shape(src):
    # jets read abs's f'' as 0, so the point mass at the kink is never sampled
    prof = convexity_profile(parse(src), UNIT)
    assert (prof.f_convex, prof.f2_shape) == ("yes", "indeterminate")
    with pytest.raises(ValueError, match="no certified convexity direction"):
        simpson_one_sided_bound(parse(src), UNIT, prof)


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


def _simpson_one_sided_plus_defect(node, iv, prof):
    """The Simpson bracket as assembled from its two public halves."""
    one_sided = simpson_one_sided_bound(node, iv, prof)
    gap = simpson_defect_bound(node, iv, prof).upper
    if one_sided.is_upper:
        return Enclosure(one_sided.value - gap, one_sided.value)
    return Enclosure(one_sided.value, one_sided.value + gap)


def _theorem2_from_the_defect(node, iv, prof):
    """The theorem-2 bracket as assembled from the value and its defect sandwich."""
    v, d = bisected_trapezoid(node, iv), bisected_trapezoid_defect(node, iv, prof)
    return Enclosure(v - d.upper, v - d.lower)


@pytest.mark.parametrize(
    "rule, public",
    [
        ("classic", lambda node, iv, prof: classic_hh(node, iv)),
        (
            "n14",
            lambda node, iv, prof: Enclosure(
                eval_value(node, iv.mid), bisected_trapezoid(node, iv)
            ),
        ),
        ("theorem2", mean_enclosure_via_defect),
        ("theorem2", _theorem2_from_the_defect),
        ("simpson", _simpson_one_sided_plus_defect),
    ],
)
def test_each_rule_row_is_bit_identical_to_the_public_functions_it_backs(rule, public):
    # verify's random corpus; the shaped rows run on its shaped cases
    from hhbounds.verify import _Context

    ctx = _Context(200, 1, False)
    shaped = rule in ("theorem2", "simpson")
    cases = ctx.shaped if shaped else [(i, c, None) for i, c in enumerate(ctx.cases)]
    assert len(cases) > 100
    for _, case, prof in cases:
        node, iv = case.node, case.iv
        fa, fm, fb = (eval_value(node, x) for x in (iv.a, iv.mid, iv.b))
        d2 = [eval_jet(node, x, order=2).derivatives[2] for x in (iv.a, iv.mid, iv.b)]
        if not shaped:
            d2 = [0.0, 0.0, 0.0]
        shape = prof.f2_shape if shaped else None
        row = bounds.RULES[rule](iv.length, fa, fm, fb, *d2, shape)
        assert row == (public(node, iv, prof).lower, public(node, iv, prof).upper)
        assert bounds.rule_enclosure(rule, node, iv, prof) == Enclosure(*row)


@pytest.mark.parametrize("rule", ["classic", "n14"])
def test_rows_without_a_shape_read_no_jets(monkeypatch, rule):
    counts = _counting_evaluations(monkeypatch)
    bounds.rule_enclosure(rule, EXP, UNIT)
    assert counts == {"values": 3, "jets": 0}


@pytest.mark.parametrize("rule", ["theorem2", "simpson"])
def test_shaped_rows_read_three_jets_and_no_values(monkeypatch, rule):
    prof = convexity_profile(EXP, UNIT)
    counts = _counting_evaluations(monkeypatch)
    bounds.rule_enclosure(rule, EXP, UNIT, prof)
    assert counts == {"values": 0, "jets": 3}


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


@pytest.mark.parametrize(
    "src, shape",
    [("hyp(x - 0.3, 1e-9)", "convex"), ("x^2 - 0.5*hyp(x - 0.50609, 0.00001)", "concave")],
)
def test_simpson_one_sided_refuses_panel_values_that_contradict_the_sampled_shape(src, shape):
    # f'' mass between the profile's samples: the bound read 0.3 where the mean
    # is 0.29, and a lower bound 0.24797 where the mean is 0.20831
    message = rf"^panel values on \[0.0, 1.0\] contradict the sampled f'' shape \({shape}\)$"
    with pytest.raises(ValueError, match=message):
        simpson_one_sided_bound(parse(src), UNIT)


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



# (lhs, rhs, residual) of the bisected-trapezoid and Simpson checks at the default
# tol, recorded when each identity made its own oracle mean and f'' pairs.
_IDENTITY_BITS = {
    ("exp(x)", 0.0, 1.0): (
        ("0x1.2409ece100600p-5", "0x1.2409ece1005fdp-5", "0x1.8000000000000p-56"),
        ("0x1.2fbb790eb1800p-11", "0x1.2fbb790eb17dap-11", "0x1.3000000000000p-58"),
    ),
    ("x^2.5", 0.1, 2.0): (
        ("0x1.1d4ab4fdf84fcp-2", "0x1.1d4ab4fdf84f5p-2", "0x1.c000000000000p-52"),
        ("-0x1.38efa6b867700p-8", "-0x1.38efa6b867830p-8", "0x1.3000000000000p-52"),
    ),
    ("1/x", 1.0, 2.0): (
        ("0x1.f19eaec1c2e80p-7", "0x1.f19eaec1c2eddp-7", "0x1.7400000000000p-53"),
        ("0x1.5411e7d533a00p-10", "0x1.5411e7d533e05p-10", "0x1.0140000000000p-52"),
    ),
}

_RESIDUALS = (bisected_trapezoid_identity_residual, simpson_identity_residual)


@pytest.mark.parametrize("src, a, b", list(_IDENTITY_BITS))
@pytest.mark.parametrize("order", [(0,), (1,), (0, 1), (1, 0)])
def test_identity_checks_keep_their_bits_alone_or_in_either_order(src, a, b, order):
    for k in order:
        check = _RESIDUALS[k](src, Interval(a, b))
        assert (check.lhs.hex(), check.rhs.hex(), check.residual.hex()) == _IDENTITY_BITS[(src, a, b)][k]


def test_identity_residuals_share_one_pair_table_and_take_the_callers_mean(monkeypatch):
    # each kernel node of either identity is one pair of order-2 jets, made by
    # whichever row reaches it first; the single-row checks make their own
    node, iv, tol = parse("1/x"), Interval(0.2, 3.0), 1e-11
    points = []
    jet, column = bounds.jet_coefficients, bounds.jet_column

    def point_jet(f, x, order=4):
        points.append((x, order))
        return jet(f, x, order)

    def column_jets(f, xs, order=4):
        points.extend((x, order) for x in xs)
        return column(f, xs, order=order)

    monkeypatch.setattr(bounds, "jet_coefficients", point_jet)
    monkeypatch.setattr(bounds, "jet_column", column_jets)
    singles, union, made = {}, set(), 0
    for row, single in zip(bounds.IDENTITIES, _RESIDUALS):
        points.clear()
        singles[row] = repr(single(node, iv, tol))
        union.update(points)
        made += len(points)
    points.clear()
    checks = bounds.identity_residuals("1/x", iv, integrate_mean(node, iv, tol).value, tol)
    assert {row: repr(check) for row, check in checks.items()} == singles
    assert len(points) == len(set(points)) and set(points) == union
    assert {order for _, order in points} == {2} and len(union) < made


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
    mean = integrate_mean(node, iv).value
    citations, defect = bounds.DEFECTS[theorem]
    encl, observed, contained = defect(node, iv, prof, mean)
    out = recorded["outputs"]
    got = (encl.lower, encl.upper, observed, contained)
    assert got == (out["lower"], out["upper"], out["observed"], out["contained"])
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
    x, d2 = prof.worst
    message = f"integrand is not certified convex (no: f'' = {d2!r} at x = {x!r})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


@pytest.mark.parametrize(
    "src, b, mean",
    [
        ("x^1.5", 1.0, lambda mp, b: b ** mp.mpf(1.5) / mp.mpf(2.5)),
        ("x^1.08", 0.0012599158614142898, lambda mp, b: b ** mp.mpf(1.08) / mp.mpf(2.08)),
        (
            "hyp(exp(1.389), 1.947) * (log(1.871) - x^0.58)",
            0.8016860347930838,
            lambda mp, b: mp.sqrt(mp.exp(mp.mpf(1.389)) ** 2 + mp.mpf(1.947) ** 2)
            * (mp.log(mp.mpf(1.871)) - b ** mp.mpf(0.58) / mp.mpf(1.58)),
        ),
    ],
    ids=["x^1.5", "x^1.08", "hyp-product"],
)
def test_adaptive_answers_where_f2_is_infinite_at_an_end(src, b, mean):
    # f'' is +inf at 0, so the simpson row's lower end was -inf, the running
    # width NaN, and no panel was ever split: the call ran forever.  It runs
    # in a child process with a deadline, so a regression fails here.
    mpmath = pytest.importorskip("mpmath")
    code = (
        "from hhbounds import Interval, adaptive_enclosure\n"
        f"e = adaptive_enclosure({src!r}, Interval(0.0, {b!r}), 1e-8)\n"
        "print(repr(e.lower), repr(e.upper))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=20
    )
    lower, upper = map(float, proc.stdout.split())
    with mpmath.workdps(40):
        target = mean(mpmath, mpmath.mpf(b))
    assert 0.0 < upper - lower <= 1e-8
    assert lower <= target <= upper


def test_an_unshaped_panel_with_a_non_finite_value_is_a_plain_refusal():
    nan = (math.nan, 0.0)
    with pytest.raises(ValueError, match=r"^f or f'' is not finite on \[0\.0, 1\.0\]$") as info:
        bounds._panel(0.0, 1.0, (1.0, 0.0), nan, (1.0, 0.0), None)
    assert type(info.value) is ValueError


# The six integrands of the benchmark's adaptive-tight workload.
ADAPTIVE_TIGHT = [
    ("exp(x)", 0.0, 1.0),
    ("1/x", 1.0, 2.0),
    ("x*log(x)", 0.5, 2.0),
    ("-log(x)", 0.5, 3.0),
    ("x^2.5", 0.1, 2.0),
    ("exp(x) + x^2", -1.0, 1.0),
]

# Order-2 jets of adaptive_enclosure at tol 1e-9 on ADAPTIVE_TIGHT.  Column points
# count, so these pin the total work: at this tol the batched refinement evaluates
# no point that no split reads.
SIMPSON_ROW_JETS_AT_1E9 = {
    "exp(x)": 75,
    "1/x": 93,
    "x*log(x)": 109,
    "-log(x)": 181,
    "x^2.5": 135,
    "exp(x) + x^2": 127,
}


def _counting_evaluations(monkeypatch) -> dict:
    """Count the values and jets bounds asks for; a column counts one per point."""
    counts = {"values": 0, "jets": 0}
    value, jet, jet_column = bounds.eval_value, bounds.jet_coefficients, bounds.jet_column

    def counted_value(*args, **kwargs):
        counts["values"] += 1
        return value(*args, **kwargs)

    def counted_jet(*args, **kwargs):
        counts["jets"] += 1
        return jet(*args, **kwargs)

    def counted_jet_column(f, xs, *args, **kwargs):
        counts["jets"] += len(xs)
        return jet_column(f, xs, *args, **kwargs)

    monkeypatch.setattr(bounds, "eval_value", counted_value)
    monkeypatch.setattr(bounds, "jet_coefficients", counted_jet)
    monkeypatch.setattr(bounds, "jet_column", counted_jet_column)
    return counts


@pytest.mark.parametrize(
    "src, a, b, anti",
    [
        ("exp(x)", 0.0, 1.0, lambda mp, t: mp.exp(t)),
        ("1/x", 1.0, 2.0, lambda mp, t: mp.log(t)),
        ("x*log(x)", 0.5, 2.0, lambda mp, t: t * t * (2 * mp.log(t) - 1) / 4),
        ("x^2.5", 0.1, 2.0, lambda mp, t: t ** mp.mpf(3.5) / mp.mpf(3.5)),
        ("-log(x)", 0.5, 3.0, lambda mp, t: t - t * mp.log(t)),
        ("exp(x) + x^2", -1.0, 1.0, lambda mp, t: mp.exp(t) + t ** 3 / 3),
    ],
)
def test_adaptive_tight_tol_contains_the_mpmath_mean_without_slack(src, a, b, anti):
    # x^2.5 has a concave f'', so it runs the mirrored Simpson bracket
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        mean = (anti(mpmath, mb) - anti(mpmath, ma)) / (mb - ma)
    for tol in (1e-9, 5e-10, 1e-12):
        encl = adaptive_enclosure(src, Interval(a, b), tol)
        assert 0.0 < encl.width <= tol
        assert encl.lower <= mean <= encl.upper


@pytest.mark.parametrize("src, a, b", ADAPTIVE_TIGHT)
def test_adaptive_shaped_path_needs_a_hundredth_of_the_evaluations(monkeypatch, src, a, b):
    iv = Interval(a, b)
    node = parse(src)
    shaped = convexity_profile(node, iv)
    unshaped = dataclasses.replace(shaped, f2_shape="indeterminate")
    counts = _counting_evaluations(monkeypatch)
    adaptive_enclosure(node, iv, 1e-9, shaped)
    assert counts["values"] == 0
    fourth = counts["jets"]
    # the simpson row; theorem 2's sandwich took 113, 125, 147, 243, 181, 189
    assert fourth == SIMPSON_ROW_JETS_AT_1E9[src]
    counts.update(values=0, jets=0)
    adaptive_enclosure(node, iv, 1e-9, unshaped)
    assert counts["jets"] == 0
    assert 100 * fourth <= counts["values"]


@pytest.mark.parametrize(
    "src, a, b, mean",
    [
        ("x^2", 0.0, 1.0, Fraction(1, 3)),
        ("x", 0.1, 0.7, (Fraction(0.1) + Fraction(0.7)) / 2),
        # the upper term v - Dlo cancels to 5.6e-17 here, so an allowance
        # scaled by the upper terms alone would miss the mean 1.85e-17
        ("x^2 - 1/3", -1.0, 1.0, Fraction(1, 3) - Fraction(1 / 3)),
    ],
)
def test_adaptive_exact_sandwich_is_widened_by_the_rounding_allowance(src, a, b, mean):
    # f'' is constant, so the sandwich closes to a point on the first panel
    encl = adaptive_enclosure(src, Interval(a, b), 1e-6)
    assert encl.width > 0.0
    assert Fraction(encl.lower) <= mean <= Fraction(encl.upper)


@pytest.mark.parametrize(
    "src, shape, mean",
    [
        ("abs(x - 0.3)", "indeterminate", 0.29),
        ("hyp(x - 0.3, 1e-9)", "convex", 0.29),
        ("sqrt((x - 0.3)^2 + 1e-18)", "convex", 0.29),
        ("hyp(x - 0.05, 1e-9)", "convex", 0.4525),
        ("sqrt((x - 0.05)^2 + 1e-18)", "convex", 0.4525),
    ],
)
def test_adaptive_keeps_the_second_order_bracket_where_f2_peaks(src, shape, mean):
    # A kink, or a narrow hyp in any spelling, hides f'' mass between the
    # profile's samples, so the sampled shape can read "convex".  The panel
    # values refute it: theorem 2's sandwich returned [0.35, 0.35] and
    # [0.475, 0.475] here.
    node = parse(src)
    prof = convexity_profile(node, UNIT)
    assert prof.f2_shape == shape
    encl = adaptive_enclosure(node, UNIT, 1e-6, prof)
    unshaped = dataclasses.replace(prof, f2_shape="indeterminate")
    assert encl == adaptive_enclosure(node, UNIT, 1e-6, unshaped)
    assert encl.width <= 1e-6
    assert encl.contains(mean)


def test_adaptive_shape_check_allows_for_rounded_values(monkeypatch):
    # f(a) - 2f(mid) + f(b) of 1e6 + x^2 carries the rounding of 1e6, which
    # the exact f'' terms do not; without the slack the shape would be
    # refuted on the first panel
    iv = Interval(2.8, 3.0)
    prof = convexity_profile("1e6 + x^2", iv)
    counts = _counting_evaluations(monkeypatch)
    encl = adaptive_enclosure("1e6 + x^2", iv, 1e-6, prof)
    assert counts["values"] == 0
    assert encl.contains(1e6 + (3.0**3 - 2.8**3) / 3 / (3.0 - 2.8))


def test_adaptive_tol_below_the_rounding_floor_fails_at_once(monkeypatch):
    prof = convexity_profile(EXP, UNIT)
    counts = _counting_evaluations(monkeypatch)
    with pytest.raises(ValueError, match=r"^tol 1e-16 is below the rounding floor 6.2e-15 "):
        adaptive_enclosure(EXP, UNIT, 1e-16, prof)
    assert counts == {"values": 0, "jets": 3}


@pytest.mark.parametrize(
    "src, a, b, tol",
    [
        # len*(|f(a)| + 2|f(m)| + |f(b)|) is inf on the first panel, which passes `_panel`:
        # these read "tol 0.001 is below the rounding floor inf of this bracket"
        ("exp(x)", 700.0, 709.7, 1e-3),
        ("x^2", 1e150, 2e150, 1e-3),
        # on the n14 row every panel's term is finite, but after one split their sum
        # passes the float range: this raised fsum's "intermediate overflow in fsum"
        ("4e307*(x^2 - 1) + abs(x)*1e-300", -1.0, 1.0, 1e300),
    ],
)
def test_adaptive_names_a_bracket_whose_magnitudes_overflow(src, a, b, tol):
    message = f"the bracket's magnitudes overflow on [{a!r}, {b!r}]"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        adaptive_enclosure(src, Interval(a, b), tol)


def _adaptive_outcome(node, iv: Interval, tol: float):
    """repr of adaptive_enclosure's answer, or the type and message of its error."""
    try:
        return repr(adaptive_enclosure(node, iv, tol))
    except (ArithmeticError, ValueError, BudgetError) as exc:
        return type(exc).__name__, str(exc)


def _declining_columns(monkeypatch) -> list:
    """Make bounds' column walks always decline; list the attempts."""
    attempts = []

    def declining(*args, **kwargs):
        attempts.append(args)
        return None

    monkeypatch.setattr(bounds, "jet_column", declining)
    return attempts


def test_batched_refinement_equals_the_per_point_refinement(monkeypatch):
    # With every walk declining, each split evaluates its two points with `_point`,
    # in heap order: the refinement as it ran before it batched its points.
    cases = [
        (parse(src), Interval(a, b), tol)
        for src, a, b in ADAPTIVE_TIGHT
        for tol in (1e-9, 5e-10, 1e-12)
    ]
    cases += [
        (parse("x^1.5"), UNIT, 1e-8),  # f'' is inf at 0: the n14 restart
        (parse("hyp(x - 0.5, 0.1)"), UNIT, 1e-13),  # the panel budget
        (EXP, UNIT, 1e-16),  # the rounding floor
    ]
    rng = random.Random(7)
    for _ in range(300):
        a = rng.uniform(-2.0, 2.0)
        node = _random_expr(rng, 3)
        cases.append((node, Interval(a, a + rng.uniform(0.1, 2.0)), rng.choice((1e-6, 1e-9))))
    batched = [_adaptive_outcome(*case) for case in cases]
    restart, budget, floor = batched[-303:-300]
    assert restart.startswith("Enclosure(")
    assert budget == ("BudgetError", "subdivision budget of 100000 panels exhausted")
    assert floor == ("ValueError", "tol 1e-16 is below the rounding floor 6.2e-15 of this bracket")
    assert sum(isinstance(out, str) for out in batched) > 200
    attempts = _declining_columns(monkeypatch)
    for (node, iv, tol), want in zip(cases, batched):
        attempts.clear()
        assert _adaptive_outcome(node, iv, tol) == want, (to_source(node), iv, tol)
        # a walk that declines is not tried again in the same refinement
        assert len(attempts) <= 1, (to_source(node), iv, tol)


def test_a_walk_that_declines_mid_call_leaves_the_rest_to_the_per_point_path(monkeypatch):
    node, iv = parse("-log(x)"), Interval(0.5, 3.0)
    want = repr(adaptive_enclosure(node, iv, 1e-12))
    walks, column = [], bounds.jet_column

    def answering_twice(f, xs, order=4):
        walks.append(len(xs))
        return column(f, xs, order) if len(walks) <= 2 else None

    monkeypatch.setattr(bounds, "jet_column", answering_twice)
    counts = _counting_evaluations(monkeypatch)
    assert repr(adaptive_enclosure(node, iv, 1e-12)) == want
    assert len(walks) == 3
    # the initial panel's three points and every point after the declined walk
    assert counts["jets"] - sum(walks) > 3


def test_the_n14_row_reaches_the_panel_budget_point_by_point(monkeypatch):
    # a value walk per generation costs more here than one value per point
    node = parse("hyp(x - 0.5, 0.1)")
    prof = convexity_profile(node, UNIT)
    counts = _counting_evaluations(monkeypatch)
    walks = []
    monkeypatch.setattr(bounds, "jet_column", lambda f, xs, order=4: walks.append(xs))
    with pytest.raises(BudgetError, match="^subdivision budget of 100000 panels exhausted$"):
        adaptive_enclosure(node, UNIT, 1e-13, prof)
    # the first panel's three values and two for each of the 99,999 splits
    assert counts == {"values": 3 + 2 * 99_999, "jets": 0}
    assert walks == []


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


def test_the_bounds_loops_build_no_jet_value_objects(monkeypatch):
    # a Jet4 is made only for callers outside the library: with it raising and
    # every column walk declining, each per-point loop in bounds still answers,
    # with the bits it gives unpatched
    iv = Interval(0.5, 2.0)
    calls = [
        lambda: convexity_profile("x*log(x)", iv),
        lambda: adaptive_enclosure("x*log(x)", iv, 1e-9),
        lambda: bisected_trapezoid_identity_residual("x*log(x)", iv),
        lambda: simpson_identity_residual("x*log(x)", iv),
        lambda: bounds.identity_residuals("x*log(x)", iv, 1.0),
        lambda: simpson_estimate("x*log(x)", iv),
    ]
    want = [repr(call()) for call in calls]

    class NoJet4:
        def __init__(self, *args):
            raise AssertionError("a Jet4 was built")

    monkeypatch.setattr(jets, "Jet4", NoJet4)
    monkeypatch.setattr(bounds, "jet_column", lambda *args, **kwargs: None)
    with pytest.raises(AssertionError, match="a Jet4 was built"):
        eval_jet("x", 1.0)
    assert [repr(call()) for call in calls] == want
