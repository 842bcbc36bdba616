import hashlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from hhbounds import bounds, search
from hhbounds import (
    Interval,
    SearchError,
    best_constant_search,
    f_ratio,
    left_counterexample,
    ratio_limit_scan,
    smoothed_tent_ratio,
    witness_ratio,
)
from hhbounds.expr import eval_value, evaluate, parse
from hhbounds.quadrature import integrate_mean

UNIT = Interval(0.0, 1.0)
SIXTH = 1.0 / 6.0


# --- the normalized midpoint ratio ------------------------------------------------


def test_ratio_exp_unit_interval():
    report = f_ratio("exp(x)", UNIT)
    assert not report.degenerate
    assert report.value == pytest.approx(0.1652900760408328, rel=1e-9)


def test_ratio_square_is_one_sixth():
    report = f_ratio("x^2", UNIT)
    assert report.value == pytest.approx(SIXTH, rel=1e-10)


def test_ratio_affine_degenerates():
    report = f_ratio("x", UNIT)
    assert report.degenerate
    assert report.value is None
    assert report.denominator == pytest.approx(0.0, abs=1e-12)


def test_ratio_limit_scan_approaches_one_sixth():
    h_list = [1.0, 0.5, 0.1, 0.05, 0.01]
    want = [
        0.1652900760408328,
        0.16632021788254045,
        0.16665277901775381,
        0.16666319452194779,
        0.16666652777790179,
    ]
    reports = ratio_limit_scan("exp(x)", 0.0, h_list)
    values = [r.value for r in reports]
    assert values == pytest.approx(want, rel=1e-9)
    gaps = [abs(v - SIXTH) for v in values]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


# --- no weighted lower bound beats the midpoint --------------------------------------


def test_left_counterexample_half():
    rep = left_counterexample(0.5)
    assert rep.m_value == pytest.approx(0.5, rel=1e-15)
    assert rep.mean == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert rep.violated


def test_left_counterexample_quarter():
    rep = left_counterexample(0.25)
    assert rep.m_value == pytest.approx(0.28125, rel=1e-15)
    assert rep.mean == pytest.approx(0.2, rel=1e-15)
    assert rep.violated


def test_left_counterexample_violates_everywhere():
    for k in range(1, 50):
        gamma = 0.5 * k / 49.0
        assert left_counterexample(gamma).violated, gamma


def test_left_counterexample_rejects_bad_gamma():
    for gamma in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            left_counterexample(gamma)


# --- named witnesses ---------------------------------------------------------------


def test_witness_ratio_beats_one_sixth():
    got = witness_ratio()
    assert got == pytest.approx(0.18127975106853839, rel=1e-9)
    assert got == pytest.approx(0.18128, abs=5e-5)
    assert got > SIXTH


def test_witness_ratio_matches_mpmath():
    # mpmath at 50 digits on x^3.5 - c x^4, c = float(35/48), whose mean is
    # 1/4.5 - c/5; the exact witness gives ...839, 2e-16 relative below
    assert witness_ratio() == pytest.approx(0.18127975106853843, rel=1e-15, abs=0)


def test_witness_ratio_samples_no_jets(monkeypatch):
    def no_jet(*args, **kwargs):
        raise AssertionError("witness_ratio evaluated a jet")

    monkeypatch.setattr(bounds, "jet_coefficients", no_jet)
    monkeypatch.setattr(bounds, "jet_column", no_jet)
    assert witness_ratio() > SIXTH


def test_search_samples_no_second_derivative():
    assert not hasattr(search, "convexity_profile")
    assert not hasattr(search, "WITNESS_SOURCE")


def test_smoothed_tent_ratio_values():
    want = {
        0.1: 0.21721701799887745,
        0.05: 0.23065780861849345,
        0.01: 0.24536882975361585,
    }
    for eps, target in want.items():
        assert smoothed_tent_ratio(eps) == pytest.approx(target, rel=1e-9), eps


@pytest.mark.parametrize("eps", [0.1, 0.01, 1e-4])
def test_smoothed_tent_ratio_matches_mpmath(eps):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)
        f = lambda t: mpmath.sqrt((t - mpmath.mpf(0.5)) ** 2 + e * e)
        mean = mpmath.quad(f, [0, 0.5, 1])
        want = (mean - f(0.5)) / (f(0) + f(1) - 2 * f(0.5))
    assert smoothed_tent_ratio(eps) == pytest.approx(float(want), rel=1e-15, abs=0)


def test_smoothed_tent_ratio_increases_toward_quarter():
    values = [smoothed_tent_ratio(eps) for eps in (0.1, 0.05, 0.01, 0.0001)]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))
    assert values[-1] < 0.25
    assert values[-1] == pytest.approx(0.25, abs=1e-4)


def test_smoothed_tent_rejects_bad_eps():
    # the message of the softness check of `expr.Hyp`, which the family's values repeat
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^hyp softness must be a positive finite constant, got {eps!r}$"):
            smoothed_tent_ratio(eps)


@pytest.mark.parametrize("eps", [1e-310, 1e-320, 5e-324])
def test_smoothed_tent_ratio_is_a_quarter_at_subnormal_eps(eps):
    # eps * eps is 0 and 0.5 / eps overflows here; the mean's asinh term, below
    # 1e-600, is left out rather than read as 0 * inf
    assert smoothed_tent_ratio(eps) == 0.25
    assert smoothed_tent_ratio(1e-308) == 0.25


# --- closed-form family means -----------------------------------------------------


def _mp_arithmetic(mpmath):
    """The operations of the family trees in mpmath, for their means at high precision."""
    mpf = mpmath.mpf
    return {
        "const": mpf,
        "head": float,
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
        "^": lambda base, r: base ** mpf(r),
        "hyp": lambda u, softness: mpmath.sqrt(u * u + mpf(softness) ** 2),
    }


# The ends of each box, and members where the power-combo mean cancels: on
# the convex edge toward (4, 1), and at (4, 1) itself, where f = 0.
FAMILY_MEMBERS = {
    "power": [(1.01,), (math.nextafter(1.01, 2.0),), (20.0,), (math.nextafter(20.0, 0.0),)],
    "power-combo": [
        (1.01, 0.0), (6.0, 2.0), (3.5, 35.0 / 48.0), (3.99, 0.99), (4.0, 0.999), (4.0, 1.0)
    ],
    "smoothed-tent": [(1e-4,), (1.0,), (0.5,)],
}

# Each family's members as source text: the tree a walk of which the row's values
# repeat, and whose mean the row's mean is
FAMILY_SOURCES = {
    "power": ("x^{p!r}", ("p",)),
    "power-combo": ("x^{p!r} - {c!r}*x^4", ("p", "c")),
    "smoothed-tent": ("hyp(x - 0.5, {eps!r})", ("eps",)),
}


def _member_tree(family, params):
    template, names = FAMILY_SOURCES[family]
    return parse(template.format(**dict(zip(names, params))))


# What a mean's rounding is relative to: the sum of its terms' magnitudes.  The
# terms of power and smoothed-tent are positive, so for them it is the mean.
TERM_SCALE = {
    "power": lambda params: 1.0 / (params[0] + 1.0),
    "power-combo": lambda params: 1.0 / (params[0] + 1.0) + abs(params[1]) / 5.0,
    "smoothed-tent": lambda params: search.FAMILIES["smoothed-tent"]["mean"](params),
}


@pytest.mark.parametrize("family", sorted(search.FAMILIES))
def test_each_family_mean_is_the_mean_of_its_tree(family):
    # the row's mean is the mean of the member's tree; the search reads the
    # closed form instead of integrating it
    mpmath = pytest.importorskip("mpmath")
    spec = search.FAMILIES[family]
    rng = random.Random(17)
    members = FAMILY_MEMBERS[family] + [
        tuple(rng.uniform(lo, hi) for lo, hi in spec["box"]) for _ in range(12)
    ]
    arithmetic = _mp_arithmetic(mpmath)
    for params in members:
        node = _member_tree(family, params)
        with mpmath.workdps(40):
            want = mpmath.quad(lambda t: evaluate(node, t, arithmetic), [0, 0.5, 1])
        got = spec["mean"](params)
        assert abs(got - want) <= 1e-15 * TERM_SCALE[family](params), params
        assert abs(got - integrate_mean(node, UNIT, 1e-10).value) <= 1e-10, params


@pytest.mark.parametrize("family", sorted(search.FAMILIES))
def test_each_family_values_are_the_values_of_its_tree(family):
    # the row's closed forms repeat the tree walk's float operations in order, so
    # f(0), f(1/2) and f(1) keep every bit: at the pins, the box's corners and
    # 1,000 seeded members
    spec = search.FAMILIES[family]
    rng = random.Random(35)
    members = FAMILY_MEMBERS[family] + list(itertools.product(*spec["box"]))
    members += [tuple(rng.uniform(lo, hi) for lo, hi in spec["box"]) for _ in range(1000)]
    for params in members:
        node = _member_tree(family, params)
        want = [eval_value(node, x).hex() for x in (0.0, 0.5, 1.0)]
        assert [v.hex() for v in spec["values"](params)] == want, params


# --- budgeted search ------------------------------------------------------------------


def test_search_rejects_unknown_family():
    with pytest.raises(ValueError):
        best_constant_search("cubic-spline", 500, 1)


def test_search_rejects_tiny_budget():
    with pytest.raises(ValueError):
        best_constant_search("power", 99, 1)


@pytest.mark.parametrize("family", sorted(search.FAMILIES))
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_search_scores_only_points_inside_the_box(monkeypatch, family, sign):
    # a score rising toward one corner drives the golden-section steps onto the
    # box's faces; no clip keeps the points inside, the construction does
    seen = []
    monkeypatch.setattr(
        search, "_candidate_ratio", lambda spec, params: seen.append(params) or sign * sum(params)
    )
    best_constant_search(family, 200, 3)
    box = search.FAMILIES[family]["box"]
    assert len(seen) > 49  # past the jittered grid, into the golden-section steps
    assert all(lo <= v <= hi for params in seen for v, (lo, hi) in zip(params, box))


# f'' = x^(p-2) (p(p-1) - 12c x^(4-p)): this pair passes the float test
# p*(p-1) >= 12*c but not the exact one, so f''(1) < 0; past p = 4 any
# c > 0 makes f'' < 0 near x = 0
FLOAT_EDGE = (1.4117490898960796, 0.04844053357719413)
NOT_CONVEX = (FLOAT_EDGE, (4.0 + 1e-9, 1e-6), (6.0, 2.0))
# the edge itself, and c = 0 at any p, are convex
CONVEX = ((4.0, 1.0), (3.0, 0.5), (6.0, 0.0))


def test_a_candidate_that_fails_the_convexity_gate_scores_minus_inf(monkeypatch):
    p, c = FLOAT_EDGE
    assert p * (p - 1) >= 12 * c
    assert Fraction(p) * (Fraction(p) - 1) < 12 * Fraction(c)

    def not_scored(*args):
        raise AssertionError("a candidate outside the convex region was evaluated")

    spec = search.FAMILIES["power-combo"]
    monkeypatch.setitem(spec, "values", not_scored)
    monkeypatch.setitem(spec, "mean", not_scored)
    for params in NOT_CONVEX:
        assert search._candidate_ratio(spec, params) == -math.inf, params
    assert all(spec["convex"](params) for params in CONVEX)


def _fraction_convex(params):
    p, c = map(Fraction, params)
    return c <= 0 or (p <= 4 and 12 * c <= p * (p - 1))


def test_the_integer_convexity_gate_is_the_fraction_predicate():
    # half the draws lie within one ulp of the edge c = p(p-1)/12, a tenth of
    # those at p = 4 +- 1 ulp, where only exact arithmetic decides
    rng = random.Random(20)
    spread, edge = [], []
    for _ in range(50_000):
        spread.append((rng.uniform(0.5, 6.5), rng.uniform(-0.5, 2.5)))
        p = rng.uniform(1.01, 4.0) if rng.random() < 0.9 else math.nextafter(4.0, rng.random() * 8)
        c = p * (p - 1) / 12
        edge.append((p, rng.choice((math.nextafter(c, 0.0), c, math.nextafter(c, 1.0)))))
    gate = search.FAMILIES["power-combo"]["convex"]
    draws = [*NOT_CONVEX, *CONVEX, *spread, *edge]
    assert [params for params in draws if gate(params) != _fraction_convex(params)] == []
    # the edge draws reach both verdicts, and the float test gets some of them wrong
    assert 0 < sum(map(gate, edge)) < len(edge)
    assert any(gate((p, c)) != (p * (p - 1) >= 12 * c) for p, c in edge)


def test_power_combo_witnesses_are_convex_and_below_the_supremum():
    # the family's supremum F = 0.18147515937743206 lies on the edge
    # c = p(p-1)/12, near p = 3.8324
    for seed in range(1, 51):
        res = best_constant_search("power-combo", 400, seed)
        p, c = map(Fraction, res.witness)
        assert p * (p - 1) - 12 * c >= 0, seed
        assert res.best_ratio <= 0.18147515937743206 + 1e-9, seed


def test_the_power_combo_witness_at_seed_5_is_pinned():
    res = best_constant_search("power-combo", 400, 5)
    assert res.best_ratio == 0.18147514872715842
    assert res.witness == (3.8320697927612146, 0.9043907252119122)
    assert 0.0 <= 0.18147515937743206 - res.best_ratio <= 1.1e-8


# sha256 of 300 searches (3 families, budgets 100 and 400, seeds 1-50: ratio,
# witness and evaluations, floats in hex), witness_ratio() and the tent ratio at
# eight eps; recorded when each member was scored from a walk of its tree
SEARCH_OUTCOMES_SHA256 = "ce24d90cf8b832dacf99d49c1f56923b934ae80103098b1b7d51576a1a37e348"
PINNED_EPS = (1.0, 0.5, 0.1, 0.01, 1e-4, 1e-8, 1e-100, 1e-300)


def test_search_outcomes_keep_every_bit():
    h = hashlib.sha256()
    for family in sorted(search.FAMILIES):
        for budget in (100, 400):
            for seed in range(1, 51):
                res = best_constant_search(family, budget, seed)
                witness = " ".join(v.hex() for v in res.witness)
                h.update(f"{family} {budget} {seed} {res.best_ratio.hex()} {witness} {res.evaluations}\n".encode())
    h.update(f"{witness_ratio().hex()}\n".encode())
    for eps in PINNED_EPS:
        h.update(f"{eps!r} {smoothed_tent_ratio(eps).hex()}\n".encode())
    assert h.hexdigest() == SEARCH_OUTCOMES_SHA256


@pytest.mark.parametrize("family", sorted(search.FAMILIES))
def test_the_ledger_never_grows_past_the_budget(monkeypatch, family):
    # a score with -inf holes; only `score` checks the budget, so every
    # refinement step past it must leave the candidate unevaluated
    seen = []

    def fake_ratio(spec, params):
        seen.append(params)
        r = math.sin(997.0 * sum(params))
        return -math.inf if r < -0.3 else r

    monkeypatch.setattr(search, "_candidate_ratio", fake_ratio)
    result = best_constant_search(family, 100, 4)
    assert len(seen) == result.evaluations == 100


def test_search_is_deterministic():
    r1 = best_constant_search("power", 150, 2)
    r2 = best_constant_search("power", 150, 2)
    assert r1 == r2


def test_search_power_family_finds_interior_max():
    # closed-form optimum of ((p+1)^-1 - 2^-p) / (1 - 2^(1-p))
    res = best_constant_search("power", 400, 7)
    assert res.family == "power"
    assert res.best_ratio == pytest.approx(0.16853045021827737, rel=1e-15, abs=0)
    assert res.witness[0] == pytest.approx(2.4583478459793569, abs=1e-3)
    assert res.evaluations <= 400
    assert res.seed == 7


def test_search_tent_family_approaches_quarter():
    res = best_constant_search("smoothed-tent", 300, 3)
    assert res.best_ratio >= 0.2495
    assert res.best_ratio <= 0.25 + 1e-9


def test_search_respects_quarter_cap():
    for family, budget, seed in (("power", 150, 5), ("smoothed-tent", 120, 9)):
        res = best_constant_search(family, budget, seed)
        assert res.best_ratio <= 0.25 + 1e-9
        assert res.evaluations <= budget


def test_witness_certificate_error_type():
    # SearchError is raised for a member outside its family's convex region,
    # a degenerate ratio or an empty search; the shipped witnesses never trip
    # it, so just confirm the type exists
    assert issubclass(SearchError, RuntimeError)


@pytest.mark.parametrize("family", sorted(search.FAMILIES))
@pytest.mark.parametrize("ties", [False, True])
def test_the_incumbent_is_the_first_best_scored_candidate(monkeypatch, family, ties):
    # the search keeps its incumbent as it scores; it must be the candidate a scan
    # of every score ranks first: the larger ratio, ties to the smaller params.
    # Rounded scores tie often, so the tie rule steers the refinement too.
    scored = []
    ratio = search._candidate_ratio

    def recorded(spec, params):
        r = ratio(spec, params)
        r = round(r, 2) if ties and math.isfinite(r) else r
        scored.append((r, params))
        return r

    monkeypatch.setattr(search, "_candidate_ratio", recorded)
    for seed in range(1, 8):
        scored.clear()
        res = best_constant_search(family, 400, seed)
        r, params = min(scored, key=lambda entry: (-entry[0], entry[1]))
        assert (res.best_ratio, res.witness, res.evaluations) == (r, params, len(scored))
