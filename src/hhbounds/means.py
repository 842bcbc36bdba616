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
from dataclasses import dataclass, fields

from .core import Enclosure, ldexp_or_inf

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
        """ValueError naming the first mean that is not finite or, if all are,
        the first neighbours whose lower one exceeds the upper by more than
        1e-12 of the largest mean."""
        chain = (self.harmonic, self.geometric, self.logarithmic, self.identric, self.arithmetic, self.gini)
        for name, value in zip(_CHAIN_NAMES, chain):
            if not math.isfinite(value):
                raise ValueError(f"{name} mean is not finite ({value})")
        slack = 1e-12 * max(chain)
        for lo, hi in zip(chain, chain[1:]):
            if lo > hi + slack:
                raise ValueError(f"mean chain violated: {lo} > {hi}")

    def as_dict(self) -> dict[str, float]:
        """A new dict of the six means, keyed by field name in chain order."""
        return dict(vars(self))


_CHAIN_NAMES = tuple(field.name for field in fields(MeanSet))


def _check_positive(a: float, b: float) -> tuple[float, float]:
    if not (a > 0.0 and b > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"means need positive finite arguments, got ({a}, {b})")
    return (a, b) if a <= b else (b, a)


def _check_distinct(a: float, b: float) -> tuple[float, float, int]:
    """The ordered pair scaled by 2^k, and k (see `_scale`)."""
    a, b = _check_positive(a, b)
    if a == b:
        raise ValueError("bracket operations need two distinct arguments")
    k = _scale(a, b)
    return math.ldexp(a, k), math.ldexp(b, k), k


def _scale(a: float, b: float) -> int:
    """The even k that centres 2^k (a, b) on 1, for a <= b, or 0 past b/a = 2^1000.

    Below that ratio both scaled ends lie in [2^-501, 2^501], so the terms
    of every mean and bracket neither overflow nor go subnormal, and a
    normal pair's results keep every bit; an even k scales sqrt(a)*sqrt(b)
    exactly.  Past it the pair is used as it is: a is below an ulp of b,
    so no sum overflows, and centring could round a.
    """
    ea, eb = math.frexp(a)[1], math.frexp(b)[1]
    return 0 if eb - ea >= 1000 else -((ea + eb) >> 1) & ~1


def all_means(a: float, b: float) -> MeanSet:
    """All six means; symmetric in the arguments.

    Below a relative gap of 1e-6 the logarithmic and identric means
    switch to series in u = (b-a)/(a+b) to dodge cancellation.  The Gini
    and identric means are b times the exp of a small multiple of
    L = log(b/a), so their rounding does not grow with |log a|:
    log(I/b) = a L/(b-a) - 1, and log(S/b) = -a/(a+b) L for
    S = exp((a log a + b log b)/(a + b)).  The means are formed at
    2^k (a, b) (`_scale`) and each is scaled back by one `ldexp`: every
    mean is of degree 1, and rounding is monotone, so the chain holds.
    """
    a, b = _check_positive(a, b)
    if a == b:
        return MeanSet(a, a, a, a, a, a)
    k = _scale(a, b)
    a, b = math.ldexp(a, k), math.ldexp(b, k)
    arith, harm, _ = _arith_harm(a, b)
    geom = math.sqrt(a) * math.sqrt(b)
    log_ratio = _log_ratio(a, b)
    gini = b * math.exp(-0.5 * a / arith * log_ratio)
    if (b - a) / a <= _SERIES_GAP:
        u = 0.5 * (b - a) / arith
        u2 = u * u
        logm = arith * (1.0 - u2 / 3.0 - 4.0 * u2 * u2 / 45.0)
        idm = arith * math.exp(-u2 / 6.0 - u2 * u2 / 20.0)
    else:
        logm = (b - a) / log_ratio
        idm = b * math.exp(a * log_ratio / (b - a) - 1.0)
    return MeanSet(*[math.ldexp(v, -k) for v in (harm, geom, logm, idm, arith, gini)])


def _arith_harm(a: float, b: float) -> tuple[float, float, float]:
    """A, H and (A - H)/A, the last in a form that does not cancel near a = b.

    A is 0.5*(a + b), which rounds (a + b)/2 once.  H = a * (b/A) and
    (A - H)/A = ((b - a)/A)^2 / 4 are built from ratios to A, which stay
    in the float range where a*b or (b - a)^2 would leave it.
    """
    arith = 0.5 * (a + b)
    harm = a * (b / arith)
    r = (b - a) / arith
    return arith, harm, 0.25 * r * r


def _log_ratio(a: float, b: float) -> float:
    """L = log(b/a) for a < b, by log1p while (b-a)/a is finite."""
    gap = (b - a) / a
    return math.log1p(gap) if math.isfinite(gap) else math.log(b) - math.log(a)


def _exp_or_inf(t: float) -> float:
    """exp(t), or +inf where that overflows: still a certified upper bound."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _arith_minus_geom(a: float, b: float) -> float:
    # d * d, not d ** 2: libm's pow misrounds some squares
    d = math.sqrt(b) - math.sqrt(a)
    return 0.5 * (d * d)


def log_mean_enclosure(a: float, b: float) -> Enclosure:
    """Bracket for the logarithmic mean: (A+2G)/3 minus a small correction.

    The correction term references the directly computed logarithmic
    mean, so this certifies the printed inequality rather than acting
    as a self-contained estimator.  Both ends are formed at the scaled
    pair (`_scale`) and scaled back by one `ldexp`; the lower end, which
    falls past -1e308 for the widest pairs, saturates to -inf.
    """
    a, b, k = _check_distinct(a, b)
    ms = all_means(a, b)
    arith, geom = ms.arithmetic, ms.geometric
    upper = (arith + 2.0 * geom) / 3.0
    ratio = _arith_minus_geom(a, b) / ms.logarithmic
    lower = upper - (2.0 / 81.0) * ratio * ratio * (arith + geom)
    return Enclosure(ldexp_or_inf(lower, -k), math.ldexp(upper, -k))


def reciprocal_log_mean_defect(a: float, b: float) -> Enclosure:
    """Bracket for the defect (1/A + 1/H)/2 - 1/L.

    Both ends are closed forms in A and H; this is the bisected
    trapezoid defect sandwich specialized to f(t) = 1/t.  Their
    scale-free parts are formed at the scaled pair (`_scale`); each is
    divided by the unscaled A or H once, last, so that a small end keeps
    its digits until it leaves the normal float range.
    """
    a, b, k = _check_distinct(a, b)
    arith, harm, gap = _arith_harm(a, b)
    # (A-H)/(6A^2) and A(A-H)/(6H^2) * (4/H - 3/A), with gap = (A-H)/A
    ratio = arith / harm
    lower = gap / 6.0 / math.ldexp(arith, -k)
    upper = gap * ratio * (4.0 * ratio - 3.0) / 6.0 / math.ldexp(harm, -k)
    return Enclosure(lower, upper)


def _identric_exponent(a: float, b: float) -> float:
    """((b-a)^2/324)(1/a^2 + 1/b^2 - 2/A^2) in cancellation-free form.

    Algebraically equal to (2/81)(A-H)^2(2A+H)/(A H^2), which is
    evaluated as (2/81)((A-H)/H)^2(2 + H/A); the raw form loses all
    digits for near-equal inputs.
    """
    arith, harm, gap = _arith_harm(a, b)
    rel_gap = gap * (arith / harm)
    return (2.0 / 81.0) * rel_gap * rel_gap * (2.0 + harm / arith)


def identric_enclosure(a: float, b: float, use_printed_constant: bool = False) -> Enclosure:
    """Bracket for the identric mean: A^(2/3)G^(1/3) up to an exp factor.

    The default upper-bound exponent is the one the Simpson defect
    bound yields for f = -log t.  With use_printed_constant the
    exponent is divided by 4, a documented falsification target that
    drops the upper bound below the identric mean itself (see the
    means verification suite).  The lower end is b times the exp of the
    offsets log(A/b) = log1p(-(b-a)/(2b)) and log(G/b) = -L/2.  Both
    ends are formed at the scaled pair (`_scale`) and scaled back by one
    `ldexp`; the upper end saturates to +inf.
    """
    a, b, k = _check_distinct(a, b)
    lower = b * math.exp((2.0 * math.log1p(-0.5 * (b - a) / b) - 0.5 * _log_ratio(a, b)) / 3.0)
    exponent = _identric_exponent(a, b)
    if use_printed_constant:
        exponent /= 4.0
    return Enclosure(math.ldexp(lower, -k), ldexp_or_inf(lower * _exp_or_inf(exponent), -k))


def identric_of_squares_enclosure(a: float, b: float) -> Enclosure:
    """Bracket for the identric mean of (a^2, b^2) from A and the Gini mean.

    Upper bound A^(4/3)S^(2/3); lower bound shrinks it by exp(-(4/81)(A-H)^2/(A*H)).
    Each is (b exp(t/2))^2 for its log offset t from b^2, so neither rounds
    with |log b| nor underflows before b^2 does.  The offsets are formed
    at the scaled pair (`_scale`), and multiply the unscaled b.
    """
    a, b, k = _check_distinct(a, b)
    arith, harm, gap = _arith_harm(a, b)
    log_gini = -0.5 * a / arith * _log_ratio(a, b)
    half = (2.0 * math.log1p(-0.5 * (b - a) / b) + log_gini) / 3.0
    shrink = (2.0 / 81.0) * gap * (gap * (arith / harm))
    b = math.ldexp(b, -k)
    lower, upper = b * math.exp(half - shrink), b * math.exp(half)
    return Enclosure(lower * lower, upper * upper)


def _identric_of_squares(a: float, b: float) -> float:
    """I(a^2, b^2), the value the Isq bracket must contain.

    I is scaled out by its homogeneity, so that no square of an argument
    has to be a float: I(a^2, b^2) = b^2 * I(r, 1) with r = (a/b)^2 < 1
    for a < b, and I(0, 1) = 1/e once r underflows.
    """
    lo, hi = min(a, b), max(a, b)
    r = (lo / hi) * (lo / hi)
    unit = all_means(r, 1.0).identric if r > 0.0 else math.exp(-1.0)
    return hi * (hi * unit)


def _reciprocal_defect(a: float, b: float) -> float:
    """(1/A + 1/H)/2 - 1/L, the value the recipL bracket must contain.

    With u = (b-a)/(a+b), H = A(1 - u^2) and A/L = artanh(u)/u, so the
    defect is (u^2/2 * A/H - c)/A with c = artanh(u)/u - 1; it is
    evaluated as (u^2/2 - c*(H/A))/H, whose terms stay about 3/2 apart
    near a = b, so little cancels.  The numerator is formed at the
    scaled pair (`_scale`) and divided by the unscaled H once, last:
    where the defect is subnormal, two subnormal terms would round
    apart.  H/A <= 1, so nothing overflows.  c is summed from its series
    u^2/3 + u^4/5 + ... below u = 1/2, and is A/L - 1 above.
    """
    a, b, k = _check_distinct(a, b)
    arith, harm, _ = _arith_harm(a, b)
    u = 0.5 * (b - a) / arith
    if u < 0.5:
        # the first term left out, u^60/61, is under 2e-19 of c >= u^2/3;
        # a plain loop, because `sum()` of floats is compensated from 3.12 on
        c = 0.0
        for n in range(29, 0, -1):
            c += u ** (2 * n) / (2 * n + 1)
    else:
        c = arith / ((b - a) / _log_ratio(a, b)) - 1.0
    return (0.5 * u * u - c * (harm / arith)) / math.ldexp(harm, -k)


def _log_mean_bracket(a: float, b: float, ms: MeanSet, printed: bool) -> tuple[Enclosure, float]:
    """The L row: log_mean_enclosure with its lower end floored at G, and L.

    G <= L always, and the paper's lower end falls below G for wide pairs,
    below 0 past b/a of about 1e4 and to -inf near the top of the range.
    """
    encl = log_mean_enclosure(a, b)
    return Enclosure(max(encl.lower, ms.geometric), encl.upper), ms.logarithmic


def _identric_bracket(a: float, b: float, ms: MeanSet, printed: bool) -> tuple[Enclosure, float]:
    """The I row: identric_enclosure with its upper end capped at A, and I.

    I <= A always, and past b/a of about 480 the paper's exponent overflows.
    """
    encl = identric_enclosure(a, b, use_printed_constant=printed)
    return Enclosure(encl.lower, min(encl.upper, ms.arithmetic)), ms.identric


# Bracket kind -> (citation, fn(a, b, all_means(a, b), printed_constant)
# returning the bracket and the value it must contain, by `Enclosure.holds`
# with magnitude |target|, a slack below a vanishing target).  The rows look
# the bracket functions up when called, so wrappers installed on this
# module's names (bench/spans.py) see every call.
BRACKETS = {
    "L": ("log-mean-bracket", _log_mean_bracket),
    "I": ("identric-bracket", _identric_bracket),
    "Isq": (
        "identric-square-bracket",
        lambda a, b, ms, printed: (
            identric_of_squares_enclosure(a, b),
            _identric_of_squares(a, b),
        ),
    ),
    "recipL": (
        "reciprocal-defect",
        lambda a, b, ms, printed: (
            reciprocal_log_mean_defect(a, b),
            _reciprocal_defect(a, b),
        ),
    ),
}
