"""End-to-end acceptance checks, one test per shipped claim.

Each test prints exactly one `acceptance NN PASS/FAIL: ...` line so a
plain pytest run doubles as a checklist.  Shared 500-case corpus: the
five convex families on random subintervals of (0.1, 5), with oracle
means cached at tol 1e-10.
"""

import math
import random

import pytest

from hhbounds import (
    Interval,
    all_means,
    best_constant_search,
    bisected_trapezoid,
    bisected_trapezoid_defect,
    bisected_trapezoid_identity_residual,
    convexity_profile,
    eval_value,
    identric_enclosure,
    identric_of_squares_enclosure,
    integrate_mean,
    log_mean_enclosure,
    parse,
    ratio_limit_scan,
    reciprocal_log_mean_defect,
    simpson_defect_bound,
    simpson_estimate,
    simpson_identity_residual,
    simpson_value,
    smoothed_tent_ratio,
    witness_ratio,
)

UNIT = Interval(0.0, 1.0)
ORACLE_TOL = 1e-10


def _note(num, ok, detail):
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


class Case:
    def __init__(self, label, node, iv, mean):
        self.label = label
        self.node = node
        self.iv = iv
        self.mean = mean


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20260816)
    cases = []
    for _ in range(500):
        kind = rng.randrange(5)
        a = rng.uniform(0.1, 4.5)
        b = rng.uniform(a + 0.05, 5.0)
        if kind == 4:
            label = f"x^{rng.uniform(1.2, 6.0)!r}"
        else:
            label = ("exp(x)", "1/x", "-log(x)", "x*log(x)")[kind]
        node = parse(label)
        iv = Interval(a, b)
        cases.append(Case(label, node, iv, integrate_mean(node, iv, ORACLE_TOL).value))
    return cases


def test_01_witness_constant():
    got = witness_ratio()
    ok = abs(got - 0.18128) <= 5e-5
    _note(1, ok, f"witness ratio {got:.10f} within 5e-5 of 0.18128")
    assert ok


def test_02_mean_between_midpoint_and_quarter_half(corpus):
    failures = []
    for c in corpus:
        upper = bisected_trapezoid(c.node, c.iv)
        fm = eval_value(c.node, c.iv.mid)
        if not (c.mean <= upper + 1e-10 and fm <= c.mean + 1e-10):
            failures.append((c.label, c.iv))
    ok = not failures
    _note(2, ok, f"containment held on {len(corpus) - len(failures)}/{len(corpus)} corpus cases")
    assert ok, failures[:5]


def test_03_defect_sandwiches_contain_observed_defects(corpus):
    checked = 0
    failures = []
    for c in corpus:
        prof = convexity_profile(c.node, c.iv)
        if prof.f2_shape not in ("convex", "concave"):
            continue
        checked += 1
        quarter_half = bisected_trapezoid_defect(c.node, c.iv, prof)
        if not quarter_half.contains(bisected_trapezoid(c.node, c.iv) - c.mean, slack=1e-9):
            failures.append(("quarter-half", c.label, c.iv))
        oriented = simpson_value(c.node, c.iv) - c.mean
        if prof.f2_shape == "concave":
            oriented = -oriented
        if not simpson_defect_bound(c.node, c.iv, prof).contains(oriented, slack=1e-9):
            failures.append(("simpson", c.label, c.iv))

    spot2 = bisected_trapezoid_defect("exp(x)", UNIT)
    spot4 = simpson_defect_bound("exp(x)", UNIT)
    obs2 = bisected_trapezoid("exp(x)", UNIT) - (math.e - 1.0)
    obs4 = simpson_value("exp(x)", UNIT) - (math.e - 1.0)
    spots_ok = (
        abs(obs2 - 0.0356493) <= 1e-7
        and abs(spot2.lower - 0.0343484) <= 1e-7
        and abs(spot2.upper - 0.0387321) <= 1e-7
        and spot2.contains(obs2)
        and abs(obs4 - 0.0005793) <= 1e-7
        and spot4.lower == 0.0
        and abs(spot4.upper - 0.0012989) <= 1e-7
        and spot4.contains(obs4)
    )
    ok = not failures and checked > 0 and spots_ok
    _note(3, ok, f"sandwiches held on {checked}/{checked} determinate cases; exp spot values match")
    assert ok, (failures[:5], spots_ok)


def test_04_identity_residuals(corpus):
    failures = []
    for c in corpus:
        for fn in (bisected_trapezoid_identity_residual, simpson_identity_residual):
            chk = fn(c.node, c.iv, tol=1e-9)
            if chk.residual > 1e-8 * (1.0 + max(abs(chk.lhs), abs(chk.rhs))):
                failures.append((fn.__name__, c.label, c.iv, chk.residual))
    sq = bisected_trapezoid_identity_residual("x^2", UNIT)
    qt = simpson_identity_residual("x^4", UNIT)
    closed_ok = (
        abs(sq.lhs - 1.0 / 24.0) <= 1e-10
        and abs(sq.rhs - 1.0 / 24.0) <= 1e-10
        and abs(qt.lhs - 1.0 / 120.0) <= 1e-10
        and abs(qt.rhs - 1.0 / 120.0) <= 1e-10
    )
    ok = not failures and closed_ok
    _note(4, ok, f"both integral identities below 1e-8 relative residual on {len(corpus)} cases; "
                 f"x^2 -> 1/24 and x^4 -> 1/120 exactly")
    assert ok, failures[:5]


def test_05_simpson_error_within_bound(corpus):
    failures = []
    for c in corpus:
        est = simpson_estimate(c.node, c.iv)
        if abs(est.value - c.mean) > est.err_bound + 1e-9:
            failures.append((c.label, c.iv))
    est4 = simpson_estimate("x^4", UNIT)
    attained = (
        abs(est4.err_bound - 1.0 / 120.0) <= 1e-12
        and abs(abs(est4.value - 0.2) - 1.0 / 120.0) <= 1e-12
    )
    ok = not failures and attained
    _note(5, ok, f"error within bound on {len(corpus) - len(failures)}/{len(corpus)} cases; "
                 f"x^4 attains its bound exactly")
    assert ok, failures[:5]


def test_06_mean_chain():
    rng = random.Random(99)
    failures = []
    for _ in range(10_000):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        ms = all_means(a, b)
        chain = (ms.harmonic, ms.geometric, ms.logarithmic,
                 ms.identric, ms.arithmetic, ms.gini)
        slack = 1e-12 * max(chain)
        if any(lo > hi + slack for lo, hi in zip(chain, chain[1:])):
            failures.append((a, b))
    ms = all_means(1.0, 2.0)
    closed = (
        (ms.harmonic, 4.0 / 3.0),
        (ms.geometric, math.sqrt(2.0)),
        (ms.logarithmic, 1.0 / math.log(2.0)),
        (ms.identric, 4.0 / math.e),
        (ms.arithmetic, 1.5),
        (ms.gini, 2.0 ** (2.0 / 3.0)),
    )
    closed_ok = all(abs(got - want) <= 1e-7 for got, want in closed)
    ok = not failures and closed_ok
    _note(6, ok, "chain held on 10,000 random pairs; (1,2) matches all six closed forms to 1e-7")
    assert ok, failures[:5]


def test_07_log_mean_brackets():
    rng = random.Random(41)
    failures = []
    for _ in range(1000):
        a = rng.uniform(0.05, 20.0)
        b = a + rng.uniform(1e-3, 20.0)
        ms = all_means(a, b)
        if not log_mean_enclosure(a, b).contains(
            ms.logarithmic, slack=1e-9 * (1.0 + ms.logarithmic)
        ):
            failures.append(("L", a, b))
        defect = 0.5 * (1.0 / ms.arithmetic + 1.0 / ms.harmonic) - 1.0 / ms.logarithmic
        if not reciprocal_log_mean_defect(a, b).contains(
            defect, slack=1e-9 * (1.0 + abs(defect))
        ):
            failures.append(("recipL", a, b))

    # spot values at (1,2), each compared at 1e-7 absolute
    encl = log_mean_enclosure(1.0, 2.0)
    rec = reciprocal_log_mean_defect(1.0, 2.0)
    logm = all_means(1.0, 2.0).logarithmic
    rdef = 0.5 * (2.0 / 3.0 + 3.0 / 4.0) - math.log(2.0)
    spots_ok = (
        abs(encl.lower - 1.4425546196529822) <= 1e-7
        and abs(encl.upper - 1.4428090415820634) <= 1e-7
        and abs(logm - 1.4426950) <= 1e-7
        and encl.contains(logm)
        and abs(rdef - 0.015186152773388024) <= 1e-7
        and abs(rec.lower - 0.0123457) <= 1e-7
        and abs(rec.upper - 0.0234375) <= 1e-7
        and rec.contains(rdef)
    )
    ok = not failures and spots_ok
    _note(7, ok, "both brackets held on 1,000 random pairs; (1,2) spot values match to 1e-7")
    assert ok, (failures[:5], spots_ok)


def test_08_identric_falsification_and_correction():
    idm = all_means(1.0, 2.0).identric
    printed = identric_enclosure(1.0, 2.0, use_printed_constant=True)
    corrected = identric_enclosure(1.0, 2.0)
    first_display_ok = (
        abs(idm - 1.4715178) <= 1e-6
        and printed.upper < idm - 1e-6  # the violation, clear of rounding noise
        and corrected.upper >= idm
        and corrected.contains(idm)
    )

    rng = random.Random(53)
    failures = []
    for _ in range(1000):
        a = rng.uniform(0.05, 20.0)
        b = a + rng.uniform(1e-3, 20.0)
        target = all_means(a, b).identric
        if not identric_enclosure(a, b).contains(target, slack=1e-9 * (1.0 + target)):
            failures.append((a, b))

    # second display holds as printed: the squared-arguments bracket
    sq = identric_of_squares_enclosure(1.0, 2.0)
    sq_target = all_means(1.0, 4.0).identric
    second_display_ok = (
        sq.contains(sq_target)
        and 2.3349438 < 2.3357915 < 2.3365458
        and abs(sq.lower - 2.3349715027815474) <= 1e-7
        and abs(sq.upper - 2.3365735414856404) <= 1e-7
    )
    ok = first_display_ok and not failures and second_display_ok
    _note(8, ok, f"printed upper {printed.upper:.7f} falls below I(1,2) {idm:.7f}; "
                 f"corrected bracket held on 1,000 pairs; squared-arguments bracket holds")
    assert ok, (first_display_ok, failures[:5], second_display_ok)


def test_09_ratio_limit_scan():
    h_list = [1.0, 0.5, 0.1, 0.05, 0.01]
    values = [r.value for r in ratio_limit_scan("exp(x)", 0.0, h_list)]
    gaps = [abs(v - 1.0 / 6.0) for v in values]
    ok = gaps[-1] <= 2e-6 and all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    _note(9, ok, f"|F - 1/6| = {gaps[-1]:.2e} at h=0.01 and shrinks monotonically")
    assert ok, gaps


def test_10_search_floor_and_cap():
    res = best_constant_search("power-combo", 2000, 1)
    floor_ok = 0.18128 - 1e-4 <= res.best_ratio <= 0.25 + 1e-9
    tent = [smoothed_tent_ratio(eps) for eps in (0.1, 0.05, 0.01)]
    tent_ok = (
        abs(tent[-1] - 0.2454) <= 1e-3
        and tent[0] < tent[1] < tent[2]
    )
    ok = floor_ok and tent_ok
    _note(10, ok, f"power-combo search reached {res.best_ratio:.6f} inside "
                  f"[0.18118, 0.25]; smoothed tent climbs to {tent[-1]:.6f}")
    assert ok, (res, tent)


def test_11_one_bisection_shrinks_enclosure():
    f = parse("exp(x)")
    w0 = bisected_trapezoid(f, UNIT) - eval_value(f, UNIT.mid)
    halves = (Interval(0.0, 0.5), Interval(0.5, 1.0))
    lower1 = sum(eval_value(f, h.mid) for h in halves) / 2.0
    upper1 = sum(bisected_trapezoid(f, h) for h in halves) / 2.0
    factor = w0 / (upper1 - lower1)
    ok = factor >= 3.9
    _note(11, ok, f"one bisection shrank the width by {factor:.4f}x (>= 3.9)")
    assert ok, factor
