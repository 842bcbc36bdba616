"""Elementary two-argument means and certified brackets for them.

For positive a < b the six means stack up as

    harmonic <= geometric <= logarithmic <= identric <= arithmetic <= gini

with equality only at a = b.  The bracket operations certify the
logarithmic and identric means (and two related defects) from closed
forms in the other means; each bracket is an application of the
endpoint-midpoint machinery in the bounds module to f = e^t, 1/t, or
-log t under a change of variable, and cross-module tests confirm the
correspondence numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Enclosure

__all__ = [
    "BRACKETS",
    "MeanSet",
    "all_means",
    "log_mean_enclosure",
    "reciprocal_log_mean_defect",
    "identric_enclosure",
    "identric_of_squares_enclosure",
]

_SERIES_GAP = 1e-6
_EQUAL_GAP = 1e-12


@dataclass(frozen=True)
class MeanSet:
    """The six elementary means of one positive pair, in chain order."""

    harmonic: float
    geometric: float
    logarithmic: float
    identric: float
    arithmetic: float
    gini: float

    def __post_init__(self):
        chain = (
            self.harmonic,
            self.geometric,
            self.logarithmic,
            self.identric,
            self.arithmetic,
            self.gini,
        )
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} mean is not finite ({value})")
        slack = 1e-12 * max(chain)
        for lo, hi in zip(chain, chain[1:]):
            if lo > hi + slack:
                raise ValueError(f"mean chain violated: {lo} > {hi}")

    def as_dict(self) -> dict[str, float]:
        return {
            "harmonic": self.harmonic,
            "geometric": self.geometric,
            "logarithmic": self.logarithmic,
            "identric": self.identric,
            "arithmetic": self.arithmetic,
            "gini": self.gini,
        }


def _check_positive(a: float, b: float) -> tuple[float, float]:
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"means need positive finite arguments, got ({a}, {b})")
    return (a, b) if a <= b else (b, a)


def _check_distinct(a: float, b: float) -> tuple[float, float]:
    a, b = _check_positive(a, b)
    if a == b:
        raise ValueError("bracket operations need two distinct arguments")
    return a, b


def all_means(a: float, b: float) -> MeanSet:
    """All six means; symmetric in the arguments.

    Below a relative gap of 1e-6 the logarithmic and identric means
    switch to series in u = (b-a)/(a+b) to dodge cancellation, and at
    gaps under 1e-12 they collapse to the common value.
    """
    a, b = _check_positive(a, b)
    arith = 0.5 * (a + b)
    if a == b:
        return MeanSet(a, a, a, a, a, a)
    harm = 2.0 * a * b / (a + b)
    geom = math.sqrt(a) * math.sqrt(b)
    gini = math.exp((a * math.log(a) + b * math.log(b)) / (a + b))
    gap = (b - a) / a
    if gap <= _EQUAL_GAP:
        logm = idm = a
    elif gap <= _SERIES_GAP:
        u = (b - a) / (a + b)
        u2 = u * u
        logm = arith * (1.0 - u2 / 3.0 - 4.0 * u2 * u2 / 45.0)
        idm = arith * math.exp(-u2 / 6.0 - u2 * u2 / 20.0)
    elif math.isfinite(gap):
        logm = (b - a) / math.log1p(gap)
        # (b*log(b) - a*log(a))/(b-a) - 1, regrouped so the data that
        # cancels is the leading 1 of b*log1p(gap)/(b-a)
        idm = a * math.exp(b * math.log1p(gap) / (b - a) - 1.0)
    else:
        # b/a is past the float range: log1p(gap) is inf, and the exp
        # factor overflows although I itself is finite
        log_ratio = math.log(b) - math.log(a)
        logm = (b - a) / log_ratio
        idm = math.exp(math.log(a) + b * log_ratio / (b - a) - 1.0)
    return MeanSet(harm, geom, logm, idm, arith, gini)


def _arith_harm(a: float, b: float) -> tuple[float, float, float]:
    """A, H and A - H, the last in a form that does not cancel near a = b."""
    return 0.5 * (a + b), 2.0 * a * b / (a + b), (b - a) ** 2 / (2.0 * (a + b))


def _arith_minus_geom(a: float, b: float) -> float:
    return 0.5 * (math.sqrt(b) - math.sqrt(a)) ** 2


def log_mean_enclosure(a: float, b: float) -> Enclosure:
    """Bracket for the logarithmic mean: (A+2G)/3 minus a small correction.

    The correction term references the directly computed logarithmic
    mean, so this certifies the printed inequality rather than acting
    as a self-contained estimator.
    """
    a, b = _check_distinct(a, b)
    ms = all_means(a, b)
    arith, geom, logm = ms.arithmetic, ms.geometric, ms.logarithmic
    upper = (arith + 2.0 * geom) / 3.0
    ratio = _arith_minus_geom(a, b) / logm
    lower = upper - (2.0 / 81.0) * ratio * ratio * (arith + geom)
    return Enclosure(lower, upper)


def reciprocal_log_mean_defect(a: float, b: float) -> Enclosure:
    """Bracket for the defect (1/A + 1/H)/2 - 1/L.

    Both ends are closed forms in A and H; this is the bisected
    trapezoid defect sandwich specialized to f(t) = 1/t.
    """
    a, b = _check_distinct(a, b)
    arith, harm, gap = _arith_harm(a, b)
    lower = gap / (6.0 * arith * arith)
    upper = arith * gap / (6.0 * harm * harm) * (4.0 / harm - 3.0 / arith)
    return Enclosure(lower, upper)


def _identric_exponent(a: float, b: float) -> float:
    """((b-a)^2/324)(1/a^2 + 1/b^2 - 2/A^2) in cancellation-free form.

    Algebraically equal to (2/81)(A-H)^2(2A+H)/(A H^2), which is how it
    is evaluated; the raw form loses all digits for near-equal inputs.
    """
    arith, harm, gap = _arith_harm(a, b)
    return (2.0 / 81.0) * gap * gap * (2.0 * arith + harm) / (arith * harm * harm)


def identric_enclosure(a: float, b: float, use_printed_constant: bool = False) -> Enclosure:
    """Bracket for the identric mean: A^(2/3)G^(1/3) up to an exp factor.

    The default upper-bound exponent is the one the Simpson defect
    bound yields for f = -log t.  With use_printed_constant the
    exponent is divided by 4, a documented falsification target that
    drops the upper bound below the identric mean itself (see the
    means verification suite).
    """
    a, b = _check_distinct(a, b)
    ms = all_means(a, b)
    lower = math.exp((2.0 * math.log(ms.arithmetic) + math.log(ms.geometric)) / 3.0)
    exponent = _identric_exponent(a, b)
    if use_printed_constant:
        exponent /= 4.0
    try:
        upper = lower * math.exp(exponent)
    except OverflowError:
        upper = math.inf  # still a certified upper bound, just not a finite one
    return Enclosure(lower, upper)


def identric_of_squares_enclosure(a: float, b: float) -> Enclosure:
    """Bracket for the identric mean of (a^2, b^2) from A and the Gini mean.

    Upper bound A^(4/3)S^(2/3); lower bound shrinks it by
    exp(-(4/81)(A-H)^2/(A*H)).
    """
    a, b = _check_distinct(a, b)
    arith, harm, gap = _arith_harm(a, b)
    log_gini = (a * math.log(a) + b * math.log(b)) / (a + b)
    upper = math.exp((4.0 * math.log(arith) + 2.0 * log_gini) / 3.0)
    exponent = (4.0 / 81.0) * gap * gap / (arith * harm)
    return Enclosure(upper * math.exp(-exponent), upper)


# Bracket kind -> (citation, fn(a, b, all_means(a, b), printed_constant)
# returning the bracket and the value it must contain).  The lambdas look
# the bracket functions up when called, so wrappers installed on this
# module's names (bench/spans.py) see every call.
BRACKETS = {
    "L": (
        "log-mean-bracket",
        lambda a, b, ms, printed: (log_mean_enclosure(a, b), ms.logarithmic),
    ),
    "I": (
        "identric-bracket",
        lambda a, b, ms, printed: (
            identric_enclosure(a, b, use_printed_constant=printed),
            ms.identric,
        ),
    ),
    "Isq": (
        "identric-square-bracket",
        lambda a, b, ms, printed: (
            identric_of_squares_enclosure(a, b),
            all_means(a * a, b * b).identric,
        ),
    ),
    "recipL": (
        "reciprocal-defect",
        lambda a, b, ms, printed: (
            reciprocal_log_mean_defect(a, b),
            0.5 * (1.0 / ms.arithmetic + 1.0 / ms.harmonic) - 1.0 / ms.logarithmic,
        ),
    ),
}
