import math
import random
import sys

import pytest

from hhbounds import (
    Enclosure,
    MeanSet,
    all_means,
    identric_enclosure,
    identric_of_squares_enclosure,
    log_mean_enclosure,
    means,
    reciprocal_log_mean_defect,
)
from hhbounds.means import BRACKETS, _arith_harm, _identric_exponent

mpmath = pytest.importorskip("mpmath")


def _mp_log_identric(a, b):
    """High-precision logarithmic and identric means, straight definitions."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        logm = (b - a) / (mpmath.log(b) - mpmath.log(a))
        idm = mpmath.exp((b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1)
        return float(logm), float(idm)


# --- the six means -----------------------------------------------------------


def test_closed_forms_one_two():
    ms = all_means(1.0, 2.0)
    assert ms.harmonic == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert ms.geometric == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert ms.logarithmic == pytest.approx(1.0 / math.log(2.0), rel=1e-14)
    assert ms.identric == pytest.approx(4.0 / math.e, rel=1e-14)
    assert ms.arithmetic == 1.5
    assert ms.gini == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)


def test_equal_arguments_collapse():
    ms = all_means(5.0, 5.0)
    assert ms.as_dict() == {k: 5.0 for k in ms.as_dict()}


def test_symmetry():
    assert all_means(0.7, 2.3) == all_means(2.3, 0.7)


def test_homogeneity():
    base = all_means(1.3, 2.9).as_dict()
    for k in (1e-3, 0.37, 7.3, 1e3):
        scaled = all_means(1.3 * k, 2.9 * k).as_dict()
        for name, v in base.items():
            assert scaled[name] == pytest.approx(k * v, rel=1e-12), (k, name)


def test_doubling_pair():
    one_two = all_means(1.0, 2.0).as_dict()
    two_four = all_means(2.0, 4.0).as_dict()
    for name in one_two:
        assert two_four[name] == pytest.approx(2.0 * one_two[name], rel=1e-15)


def test_chain_ordering_bulk():
    rng = random.Random(11)
    for _ in range(2000):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        b = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        if a == b:
            continue
        ms = all_means(a, b)
        chain = (
            ms.harmonic,
            ms.geometric,
            ms.logarithmic,
            ms.identric,
            ms.arithmetic,
            ms.gini,
        )
        slack = 1e-12 * max(chain)
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi + slack, (a, b, chain)


def test_chain_constructor_rejects_disorder():
    with pytest.raises(ValueError):
        MeanSet(2.0, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_chain_constructor_rejects_non_finite_means():
    with pytest.raises(ValueError, match="identric mean is not finite"):
        MeanSet(1.0, 1.0, 1.0, math.inf, 1.0, 1.0)
    with pytest.raises(ValueError, match="harmonic mean is not finite"):
        MeanSet(math.nan, 1.0, 1.0, 1.0, 1.0, 1.0)


def _mp_means(a, b):
    """High-precision harmonic, arithmetic and Gini means."""
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        gini = mpmath.exp((a * mpmath.log(a) + b * mpmath.log(b)) / (a + b))
        return float(2 * a * b / (a + b)), float((a + b) / 2), float(gini)


@pytest.mark.parametrize(
    "a,b",
    [
        (1e200, 2e200),  # 2ab overflows
        (1e308, 1.5e308),  # a + b and a*log(a) overflow
        (1e-300, 2e-300),  # 2ab underflows to zero
        (1e200, 9e200),  # the Isq target of means --a=1e100 --b=3e100
        (1e-267, 2e-267),  # |log a| ~ 615 once cost the Gini mean 375 ulp
        (1.0, 1000.0),
    ],
)
def test_means_past_the_float_range_of_sums_and_products(a, b):
    ms = all_means(a, b)
    harm, arith, gini = _mp_means(a, b)
    assert ms.harmonic == pytest.approx(harm, rel=1e-14, abs=0)
    assert ms.arithmetic == pytest.approx(arith, rel=1e-15, abs=0)
    assert ms.gini == pytest.approx(gini, rel=1e-15, abs=0)
    logm, idm = _mp_log_identric(a, b)
    assert ms.logarithmic == pytest.approx(logm, rel=1e-12, abs=0)
    assert ms.identric == pytest.approx(idm, rel=1e-15, abs=0)


def test_ratio_past_the_float_range():
    # b/a = 1e600 is not a float, yet L ~ 7.24e296 and I ~ 3.68e299 are
    ms = all_means(1e300, 1e-300)
    logm, idm = _mp_log_identric(1e-300, 1e300)
    assert ms.logarithmic == pytest.approx(logm, rel=1e-12)
    assert ms.identric == pytest.approx(idm, rel=1e-15)
    assert ms.logarithmic == pytest.approx(7.24e296, rel=1e-3)
    assert ms.identric == pytest.approx(3.68e299, rel=1e-3)


def test_wide_pair_log_mean():
    assert all_means(1.0, 100.0).logarithmic == pytest.approx(
        21.497576854210965, rel=1e-13
    )


@pytest.mark.parametrize("gap", [1e-13, 1e-9, 1e-7, 0.9999e-6, 1.0001e-6])
def test_near_equal_series_agrees_with_high_precision(gap):
    # from deep in the series branch across its threshold (1e-6)
    for a in (1.0, 0.013, 731.0):
        b = a * (1.0 + gap)
        if a == b:
            continue
        ms = all_means(a, b)
        logm, idm = _mp_log_identric(a, b)
        assert ms.logarithmic == pytest.approx(logm, rel=1e-12), (a, gap)
        assert ms.identric == pytest.approx(idm, rel=1e-12), (a, gap)


@pytest.mark.parametrize("a", [1e-5, 0.013, 1.0, 731.0, 1e5])
def test_near_equal_pairs_are_within_one_ulp_of_high_precision(a):
    # b is a few ulp to a few thousand ulp above a: relative gaps 1e-16 to 1e-12
    for steps in (1, 2, 7, 100, 4500):
        b = a + steps * math.ulp(a)
        ms = all_means(a, b)
        with mpmath.workdps(50):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            logm = float((mb - ma) / (mpmath.log(mb) - mpmath.log(ma)))
            idm = float(mpmath.exp((mb * mpmath.log(mb) - ma * mpmath.log(ma)) / (mb - ma) - 1))
        assert abs(ms.logarithmic - logm) <= math.ulp(logm), (a, steps)
        assert abs(ms.identric - idm) <= math.ulp(idm), (a, steps)


def test_near_equal_pair_at_the_top_of_the_float_range():
    # a + b overflows here, which once zeroed the series variable and gave L = I = A
    a = 1e308
    b = a * (1.0 + 0.99e-6)
    ms = all_means(a, b)
    with mpmath.workdps(50):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        logm = float((mb - ma) / (mpmath.log(mb) - mpmath.log(ma)))
        idm = float(mpmath.exp((mb * mpmath.log(mb) - ma * mpmath.log(ma)) / (mb - ma) - 1))
    assert abs(ms.logarithmic - logm) <= math.ulp(logm)
    assert abs(ms.identric - idm) <= math.ulp(idm)


def test_naive_formulas_agree_away_from_diagonal():
    rng = random.Random(23)
    for _ in range(50):
        a = rng.uniform(0.1, 5.0)
        b = a * rng.uniform(1.5, 9.0)
        ms = all_means(a, b)
        assert ms.logarithmic == pytest.approx((b - a) / math.log(b / a), rel=1e-13)
        assert ms.identric == pytest.approx(
            math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0), rel=1e-12
        )


def test_rejects_nonpositive():
    for bad in ((0.0, 1.0), (-1.0, 2.0), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            all_means(*bad)


# --- logarithmic-mean bracket --------------------------------------------------


def test_log_mean_bracket_one_two():
    encl = log_mean_enclosure(1.0, 2.0)
    assert encl.lower == pytest.approx(1.4425546196529822, rel=1e-12)
    assert encl.upper == pytest.approx(1.4428090415820634, rel=1e-12)
    assert encl.contains(1.0 / math.log(2.0))


def test_log_mean_bracket_wide_pair():
    assert log_mean_enclosure(1.0, 100.0).contains(21.497576854210965)


def test_log_mean_bracket_near_equal_is_tight():
    encl = log_mean_enclosure(1.0, 1.0001)
    assert encl.width <= 1e-12
    assert encl.contains(all_means(1.0, 1.0001).logarithmic, slack=1e-12)


def test_log_mean_bracket_bulk():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.uniform(1e-2, 50.0)
        b = a + rng.uniform(1e-6, 50.0)
        encl = log_mean_enclosure(a, b)
        logm = all_means(a, b).logarithmic
        assert encl.contains(logm, slack=1e-9 * (1.0 + logm)), (a, b)


def test_log_mean_row_floors_its_lower_end_at_the_geometric_mean():
    # the paper's lower end is -832.6 at (1, 1e4), below G = 100 and below 0
    ms = all_means(1.0, 1e4)
    encl, target = BRACKETS["L"][1](1.0, 1e4, ms, False)
    paper = log_mean_enclosure(1.0, 1e4)
    assert paper.lower < 0.0
    assert (encl.lower, encl.upper) == (ms.geometric, paper.upper) == (100.0, 1733.5)
    assert encl.lower < target < encl.upper


def test_log_mean_bracket_at_the_top_of_the_float_range_contains_l():
    a, b = 1e308, 1.7e308
    encl = log_mean_enclosure(a, b)
    with mpmath.workdps(50):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        logm = (mb - ma) / (mpmath.log(mb) - mpmath.log(ma))
        assert encl.lower < logm < encl.upper < math.inf


def _plain_log_mean_enclosure(a, b):
    """log_mean_enclosure with its sums formed unscaled, as they were before."""
    ms = all_means(a, b)
    arith, geom = ms.arithmetic, ms.geometric
    upper = (arith + 2.0 * geom) / 3.0
    ratio = 0.5 * (math.sqrt(max(a, b)) - math.sqrt(min(a, b))) ** 2 / ms.logarithmic
    return Enclosure(upper - (2.0 / 81.0) * ratio * ratio * (arith + geom), upper)


def test_log_mean_bracket_keeps_every_bit_where_the_plain_sums_answer():
    # the scaled sums are formed only where a plain one overflows; subnormal pairs,
    # where scaling by a power of two would round, and pairs near 1.7e308 included
    rng = random.Random(28)
    pairs = [(rng.uniform(1.0, 1e4), rng.uniform(1.0, 1e4)) for _ in range(300)]
    pairs += [(10.0 ** rng.uniform(-300, 308), 10.0 ** rng.uniform(-300, 308)) for _ in range(300)]
    pairs += [(10.0 ** rng.uniform(-323, -295), 10.0 ** rng.uniform(-323, -295)) for _ in range(300)]
    pairs += [(rng.uniform(1e307, 1.7e308), rng.uniform(1e307, 1.7e308)) for _ in range(300)]
    answered = 0
    for a, b in pairs:
        try:
            want = _plain_log_mean_enclosure(a, b)
        except ValueError:
            continue
        # an infinite end, which the CLI refuses, is no answer
        if math.isfinite(want.lower) and math.isfinite(want.upper):
            answered += 1
            assert repr(log_mean_enclosure(a, b)) == repr(want), (a, b)
    assert answered > 900


def test_the_two_smallest_subnormals_keep_the_mean_chain():
    # 0.5 * 5e-324 rounds to 0, so 0.5*a + 0.5*b read A as 5e-324 and H = a*(b/A)
    # as 1e-323, above G: "mean chain violated: 1e-323 > 5e-324"
    ms = all_means(5e-324, 1e-323)
    assert (ms.harmonic, ms.arithmetic) == (5e-324, 1e-323)


# Multiples of the smallest subnormal: i*2^-1074 < j*2^-1074 with j < 80
SUBNORMAL_GRID = [(i * 2.0**-1074, j * 2.0**-1074) for j in range(2, 80) for i in range(1, j)]


def test_subnormal_pairs_keep_the_chain_and_their_brackets():
    # 872 of these pairs raised "mean chain violated" when the means were formed
    # from the subnormal pair itself; now it is evaluated scaled into [1, 4)
    assert len(SUBNORMAL_GRID) == 3081
    for a, b in SUBNORMAL_GRID:
        ms = all_means(a, b)
        for kind in ("L", "I", "Isq"):
            encl, target = BRACKETS[kind][1](a, b, ms, False)
            assert encl.holds(target, abs(target)), (kind, a, b)


def _means_and_rows(pairs):
    out = []
    for a, b in pairs:
        ms = all_means(a, b)
        out.append(repr(ms))
        for _, row in BRACKETS.values():
            try:
                out.append(repr(row(a, b, ms, False)))
            except (ArithmeticError, ValueError) as exc:
                out.append(repr(exc))
    return out


def test_pairs_at_or_above_the_scaling_threshold_keep_every_bit(monkeypatch):
    # the scaled evaluation starts just below 2^-900, far below every workload's pairs;
    # at and above it, the means and the four rows are those of the pair itself
    rng = random.Random(30)
    tiny = 2.0**-900
    assert means._tiny_scale(tiny) == 0 < means._tiny_scale(math.nextafter(tiny, 0.0))
    pairs = [(tiny, math.nextafter(tiny, 1.0)), (tiny, 3.0 * tiny)]
    pairs += [(tiny * rng.uniform(1.0, 4.0), tiny * rng.uniform(1.0, 4.0)) for _ in range(300)]
    pairs += [(10.0 ** rng.uniform(-270, -1), 10.0 ** rng.uniform(-270, -1)) for _ in range(300)]
    pairs += [(10.0 ** rng.uniform(-270, 300), 10.0 ** rng.uniform(-270, 300)) for _ in range(600)]
    scaled = _means_and_rows(pairs)
    monkeypatch.setattr(means, "_TINY", 0.0)  # no pair is scaled
    assert _means_and_rows(pairs) == scaled
    with pytest.raises(ValueError, match="mean chain violated"):
        all_means(1.5e-323, 2e-323)


def test_the_arithmetic_mean_keeps_every_bit_where_halving_is_exact():
    # 0.5*(a + b) and 0.5*a + 0.5*b both round (a + b)/2 once wherever a >= 2^-1021;
    # pairs near the top of the float range, where a + b overflows, included
    rng = random.Random(29)
    smallest = 2.0 ** -1021
    pairs = [(10.0 ** rng.uniform(-307.5, 308), 10.0 ** rng.uniform(-307.5, 308)) for _ in range(2000)]
    pairs += [(rng.uniform(0.5e308, 1.797e308), rng.uniform(0.5e308, 1.797e308)) for _ in range(1000)]
    pairs += [(smallest, smallest * (1.0 + 2.0**-52)), (smallest, 3.0 * smallest), (1e308, sys.float_info.max)]
    overflowed = 0
    for a, b in pairs:
        a, b = min(a, b), max(a, b)
        if a >= smallest:
            assert repr(_arith_harm(a, b)[0]) == repr(0.5 * a + 0.5 * b), (a, b)
            overflowed += a + b == math.inf
    assert overflowed > 100


def test_log_mean_bracket_rejects_equal():
    with pytest.raises(ValueError):
        log_mean_enclosure(2.0, 2.0)


# --- reciprocal defect -----------------------------------------------------------


def test_reciprocal_defect_one_two():
    encl = reciprocal_log_mean_defect(1.0, 2.0)
    assert encl.lower == pytest.approx(1.0 / 81.0, rel=1e-13)
    assert encl.upper == pytest.approx(0.0234375, rel=1e-13)
    ms = all_means(1.0, 2.0)
    defect = 0.5 * (1.0 / ms.arithmetic + 1.0 / ms.harmonic) - 1.0 / ms.logarithmic
    assert defect == pytest.approx(0.015186152773388024, rel=1e-11)
    assert encl.contains(defect)


def test_reciprocal_defect_near_equal_no_blowup():
    encl = reciprocal_log_mean_defect(3.0, 3.0 + 1e-8)
    assert 0.0 <= encl.lower <= encl.upper <= 1e-17
    ms = all_means(3.0, 3.0 + 1e-8)
    defect = 0.5 * (1.0 / ms.arithmetic + 1.0 / ms.harmonic) - 1.0 / ms.logarithmic
    assert encl.contains(defect, slack=1e-9)


def test_containment_slack_is_below_a_vanishing_target():
    # near a = b the recipL target is 4.2e-12; a slack of 1e-9 (1 + |target|)
    # would count three times the target as contained
    encl, target = BRACKETS["recipL"][1](1.0, 1.00001, all_means(1.0, 1.00001), False)
    assert target == pytest.approx(4.17e-12, rel=1e-2)
    assert encl.holds(target, abs(target))
    assert not encl.holds(3.0 * target, abs(3.0 * target))


@pytest.mark.parametrize(
    "a, b",
    [
        (8.569823552236704e294, 8.569823552236822e294),
        (9.613237505897539e297, 9.613242709573453e297),
        (3.7720005204481734e292, 3.772000520465916e292),
    ],
)
def test_reciprocal_defect_below_the_normal_range_matches_mpmath(a, b):
    # the target was a difference of two subnormal terms, which rounded apart
    # (5e-324 where the defect, 9.2e-325, rounds to 0) and escaped the bracket
    encl, target = BRACKETS["recipL"][1](a, b, all_means(a, b), False)
    with mpmath.workdps(80):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        arith, harm = (ma + mb) / 2, 2 * ma * mb / (ma + mb)
        want = float((1 / arith + 1 / harm) / 2 - (mpmath.log(mb) - mpmath.log(ma)) / (mb - ma))
    assert target == want < 2.3e-308
    assert encl.holds(target, abs(target))


def test_reciprocal_defect_bulk():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.uniform(0.05, 20.0)
        b = a + rng.uniform(1e-3, 20.0)
        encl = reciprocal_log_mean_defect(a, b)
        ms = all_means(a, b)
        defect = 0.5 * (1.0 / ms.arithmetic + 1.0 / ms.harmonic) - 1.0 / ms.logarithmic
        assert encl.contains(defect, slack=1e-9 * (1.0 + abs(defect))), (a, b)


# --- identric bracket -------------------------------------------------------------


def test_identric_bracket_one_two():
    encl = identric_enclosure(1.0, 2.0)
    assert encl.lower == pytest.approx(1.47084137671644, rel=1e-12)
    assert encl.upper == pytest.approx(1.4724816028298326, rel=1e-12)
    assert encl.contains(4.0 / math.e)


def test_identric_printed_constant_is_falsified():
    # dividing the exponent by 4 drops the upper end below the mean itself
    printed = identric_enclosure(1.0, 2.0, use_printed_constant=True)
    assert printed.upper == pytest.approx(1.4712512618764865, rel=1e-12)
    assert printed.upper < 4.0 / math.e - 1e-6


def test_identric_exponent_values():
    corrected = _identric_exponent(1.0, 2.0)
    assert corrected == pytest.approx(0.0011145404663923182, rel=1e-13)
    # 13/11664 exactly
    assert corrected == pytest.approx(13.0 / 11664.0, rel=1e-15)
    printed = identric_enclosure(1.0, 2.0, use_printed_constant=True)
    full = identric_enclosure(1.0, 2.0)
    ratio = math.log(full.upper / full.lower) / math.log(printed.upper / printed.lower)
    assert ratio == pytest.approx(4.0, rel=1e-10)


def test_identric_bracket_bulk():
    rng = random.Random(13)
    for _ in range(300):
        a = rng.uniform(0.05, 20.0)
        b = a + rng.uniform(1e-3, 20.0)
        encl = identric_enclosure(a, b)
        idm = all_means(a, b).identric
        assert encl.contains(idm, slack=1e-9 * (1.0 + idm)), (a, b)


def test_identric_bracket_rejects_equal():
    with pytest.raises(ValueError):
        identric_enclosure(1.0, 1.0)


# --- identric mean of squares ------------------------------------------------------


def test_identric_squares_one_two():
    encl = identric_of_squares_enclosure(1.0, 2.0)
    assert encl.lower == pytest.approx(2.3349715027815474, rel=1e-12)
    assert encl.upper == pytest.approx(2.3365735414856404, rel=1e-12)
    target = all_means(1.0, 4.0).identric
    assert target == pytest.approx(2.3358888476520836, rel=1e-13)
    assert encl.contains(target)


def test_identric_squares_two_three():
    encl = identric_of_squares_enclosure(2.0, 3.0)
    target = all_means(4.0, 9.0).identric
    assert target == pytest.approx(6.3342331093788546, rel=1e-13)
    assert encl.contains(target)


def test_identric_squares_upper_combines_arithmetic_and_gini():
    ms = all_means(1.0, 2.0)
    encl = identric_of_squares_enclosure(1.0, 2.0)
    want = ms.arithmetic ** (4.0 / 3.0) * ms.gini ** (2.0 / 3.0)
    assert encl.upper == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize(
    "a,b",
    [
        # the worst pairs of a 2,000-pair sweep over 1e-150..1e150 for the
        # absolute-log forms: 1,217 ulp on the Isq upper end, 1,348 on the
        # Isq lower end and 541 on the I lower end
        (1.9553020201252015e-142, 9.281929362263575e-140),
        (1.4986811735586227e138, 2.5991834495995136e139),
        (1.6610718921069125e119, 4.752010056450161e119),
    ],
)
def test_mean_brackets_are_formed_relative_to_b(a, b):
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        arith, geom, harm = (ma + mb) / 2, mpmath.sqrt(ma * mb), 2 * ma * mb / (ma + mb)
        gini = mpmath.exp((ma * mpmath.log(ma) + mb * mpmath.log(mb)) / (ma + mb))
        isq_upper = arith ** (mpmath.mpf(4) / 3) * gini ** (mpmath.mpf(2) / 3)
        isq_lower = isq_upper * mpmath.exp(-mpmath.mpf(4) / 81 * (arith - harm) ** 2 / (arith * harm))
        i_lower = arith ** (mpmath.mpf(2) / 3) * geom ** (mpmath.mpf(1) / 3)
    isq = identric_of_squares_enclosure(a, b)
    for got, want in ((isq.upper, isq_upper), (isq.lower, isq_lower), (identric_enclosure(a, b).lower, i_lower)):
        want = float(want)
        assert abs(got - want) <= 8 * math.ulp(want), (got, want)


def test_identric_squares_lower_end_survives_an_underflowing_offset():
    # the lower end is b^2 exp(t) with exp(t) below the float range; it is
    # formed as (b exp(t/2))^2, since b (b exp(t)) would read 0.0 here
    a, b = 2.634110624896576e144, 2.450649494046949e149
    assert identric_of_squares_enclosure(a, b).lower == pytest.approx(3.85757165998993e-201, rel=1e-11)


def test_identric_squares_bulk():
    rng = random.Random(29)
    for _ in range(300):
        a = rng.uniform(0.05, 10.0)
        b = a + rng.uniform(1e-3, 10.0)
        encl = identric_of_squares_enclosure(a, b)
        target = all_means(a * a, b * b).identric
        assert encl.contains(target, slack=1e-9 * (1.0 + target)), (a, b)


@pytest.mark.parametrize("a,b", [(1e200, 2e200), (1e-300, 2e-300), (1e-170, 1e-150)])
def test_brackets_where_squares_of_the_means_leave_the_float_range(a, b):
    logm, idm = _mp_log_identric(a, b)
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        log_mean = (mb - ma) / (mpmath.log(mb) - mpmath.log(ma))
        defect = float((1 / ((ma + mb) / 2) + (ma + mb) / (2 * ma * mb)) / 2 - 1 / log_mean)
    recip = reciprocal_log_mean_defect(a, b)
    assert 0.0 < recip.lower <= defect <= recip.upper < math.inf
    ident = identric_enclosure(a, b)
    assert ident.lower <= idm * (1 + 1e-13) and idm <= ident.upper * (1 + 1e-13)


@pytest.mark.parametrize(
    "a,b",
    [(1e-200, 1.0), (1.0, 1e-200), (1e-170, 1e-150), (1e-300, 1e-10), (1.0, 2e154), (1e100, 1e160)],
)
def test_identric_of_squares_target_where_the_squares_leave_the_float_range(a, b):
    # the last pair's I(a^2, b^2) is past the float range, and so is the bound
    with mpmath.workdps(40):
        _, want = _mp_log_identric(mpmath.mpf(a) ** 2, mpmath.mpf(b) ** 2)
    encl, target = BRACKETS["Isq"][1](a, b, all_means(a, b), False)
    if want == math.inf:
        assert encl.upper == math.inf
    else:
        assert target == pytest.approx(want, rel=1e-13, abs=0)
        assert encl.lower <= want <= encl.upper < math.inf


# --- one range-safe form per mean, swept against mpmath ------------------------


def _is_normal(v):
    return sys.float_info.min <= abs(v) < math.inf


def _sweep_pairs(n):
    """Pairs over 1e-300..1e300: wide, near-equal, and with a subnormal product."""
    rng = random.Random(20161)
    for i in range(n):
        kind = i % 3
        if kind == 0:
            a, b = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
        elif kind == 1:
            a = 10.0 ** rng.uniform(-300.0, 300.0)
            b = a * (1.0 + 10.0 ** rng.uniform(-15.0, -0.5))
        else:
            a = 10.0 ** rng.uniform(-165.0, -150.0)
            b = 10.0 ** (rng.uniform(-323.0, -308.0) - math.log10(a))
            if rng.random() < 0.5:
                b = a * (1.0 + 10.0 ** rng.uniform(-15.0, -0.5))
        if a != b:
            yield a, b


def _mp_reference(a, b):
    """The six means and the four bracket targets, at 80 digits."""
    with mpmath.workdps(80):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def ident(x, y):
            return mpmath.exp((y * mpmath.log(y) - x * mpmath.log(x)) / (y - x) - 1)

        arith = (a + b) / 2
        harm = 2 * a * b / (a + b)
        logm = (b - a) / (mpmath.log(b) - mpmath.log(a))
        gini = mpmath.exp((a * mpmath.log(a) + b * mpmath.log(b)) / (a + b))
        means = [harm, mpmath.sqrt(a * b), logm, ident(a, b), arith, gini]
        targets = {
            "L": logm,
            "I": ident(a, b),
            "Isq": ident(a * a, b * b),
            "recipL": (1 / arith + 1 / harm) / 2 - 1 / logm,
        }
        return [float(m) for m in means], {k: float(v) for k, v in targets.items()}


def test_means_and_brackets_sweep_against_mpmath():
    # the float range edges: 2ab underflows to a subnormal, (b-a)^2 and
    # A^2 leave the range, and near-equal pairs cancel
    checked = 0
    for a, b in _sweep_pairs(3000):
        means, targets = _mp_reference(a, b)
        if not all(_is_normal(m) for m in means):
            continue
        checked += 1
        ms = all_means(a, b)
        assert abs(ms.harmonic - means[0]) <= 2.0 * math.ulp(means[0]), (a, b)
        for kind, (_, bracket) in BRACKETS.items():
            encl, target = bracket(a, b, ms, False)
            want = targets[kind]
            if _is_normal(want):
                slack = 1e-12 * want
                assert encl.lower - slack <= want <= encl.upper + slack, (kind, a, b)
                assert abs(target - want) <= slack, (kind, a, b)
    assert checked > 2500


def test_chain_constructor_names_the_first_failure_in_chain_order():
    # every mean is tested for finiteness, in field order, before any pair of
    # neighbours is compared; then the first pair that breaks the chain is named
    with pytest.raises(ValueError, match=r"^logarithmic mean is not finite \(nan\)$"):
        MeanSet(2.0, 1.0, math.nan, math.inf, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^gini mean is not finite \(-inf\)$"):
        MeanSet(3.0, 2.0, 1.0, 1.0, 1.0, -math.inf)
    with pytest.raises(ValueError, match=r"^mean chain violated: 3\.0 > 2\.0$"):
        MeanSet(1.0, 3.0, 2.0, 5.0, 4.0, 6.0)
    for k in range(5):  # each pair of neighbours is compared
        chain = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        chain[k], chain[k + 1] = chain[k + 1], chain[k]
        with pytest.raises(ValueError, match=f"^mean chain violated: {k + 2.0} > {k + 1.0}$"):
            MeanSet(*chain)
    # the slack is 1e-12 of the largest mean, here 2e-12
    MeanSet(1.0 + 1.5e-12, 1.0, 1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=f"^mean chain violated: {1.0 + 3e-12!r} > 1\\.0$"):
        MeanSet(1.0 + 3e-12, 1.0, 1.0, 1.0, 1.0, 2.0)
    # finite means whose sum leaves the float range are finite
    MeanSet(*[1e308] * 6)
