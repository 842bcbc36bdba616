"""Endpoint-midpoint bounds for mean values of convex integrands.

Every bracket on one panel's mean is a row of `RULES`, a function of the
panel's length, f and f'' at its ends and midpoint, and the shape of f'':
classic [f(mid), endpoint average] and n14 [f(mid), bisected trapezoid]
for convex f, theorem 2's defect sandwich and theorem 4's Simpson bracket
where f'' is convex or concave.  The public bounds, the CLI's methods and
the adaptive refinement all call the rows, after one check of the panel's
values (`_panel`).  Two exact integral identities, the rows of
`IDENTITIES`, express the defects against a kernel in a normalized
variable; the residual checks here confirm them numerically via the
independent integrator.  `identity_residuals` checks every row against
the oracle mean its caller passes, as the `DEFECTS` rows take theirs,
and its rows share one f'' pair per kernel node.  The pairs a kernel panel
adds come from one order-2 column walk, `simpson_estimate` samples
f'''' in one order-4 walk (`jets.jet_column`), and the adaptive
refinement evaluates each generation of panels' new points in one walk,
order-2 jets under a shape and values (`expr.eval_column`) without one,
then splits in the order it would split one point at a time, so every
panel, bracket and error is the same bit for bit.  Where a walk
declines, they evaluate point by point as before.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import BudgetError, DomainError, Enclosure, Interval, WeightPair
from .expr import Node, as_node, eval_column, eval_value, used_names
from .jets import jet_coefficients, jet_column
from .quadrature import integrate_mean, integrate_mean_fn

__all__ = [
    "DEFECTS",
    "IDENTITIES",
    "RULES",
    "ConvexityProfile",
    "OneSidedBound",
    "IdentityCheck",
    "SimpsonEstimate",
    "classic_hh",
    "weighted_value",
    "bisected_trapezoid",
    "simpson_value",
    "bisected_trapezoid_defect",
    "simpson_one_sided_bound",
    "simpson_defect_bound",
    "defect_verdict",
    "symmetric_point_triple",
    "bisected_trapezoid_identity_residual",
    "simpson_identity_residual",
    "identity_residuals",
    "simpson_estimate",
    "adaptive_enclosure",
    "convexity_profile",
    "mean_enclosure_via_defect",
    "rule_enclosure",
    "Enclosure",
    "Interval",
    "WeightPair",
]


@dataclass(frozen=True)
class ConvexityProfile:
    """Sampled classification of f and of the shape of f''.

    f_convex: "yes" / "no" / "indeterminate", the sign of sampled f''.
    f2_shape: "convex" / "concave" / "indeterminate", for sampled f'''';
    always "indeterminate" for a tree that calls abs, whose f'' has a point
    mass at each kink that jets read as 0.  Classification is evidence from n Chebyshev
    samples, not proof; operations requiring a determinate shape fail
    loudly otherwise.  worst is (x, f''(x)) at the first sample whose f''
    is not finite or, if all are, at the smallest f''.
    """

    f_convex: str
    f2_shape: str
    min_f2: float
    samples: int
    worst: tuple[float, float]

    def certified_convex(self) -> ConvexityProfile:
        """This profile if f is certified convex; ValueError naming the worst sample otherwise.

        The one refusal of the hypothesis every bound here rests on.
        """
        if self.f_convex != "yes":
            x, d2 = self.worst
            raise ValueError(
                f"integrand is not certified convex ({self.f_convex}: f'' = {d2!r} at x = {x!r})"
            )
        return self


@dataclass(frozen=True)
class OneSidedBound:
    value: float
    is_upper: bool


@dataclass(frozen=True)
class IdentityCheck:
    """Two independently computed sides of an exact identity."""

    lhs: float
    rhs: float
    residual: float


@dataclass(frozen=True)
class SimpsonEstimate:
    value: float
    err_bound: float


def _three_values(node: Node, iv: Interval) -> tuple[float, float, float]:
    return eval_value(node, iv.a), eval_value(node, iv.mid), eval_value(node, iv.b)


# --- panel rules --------------------------------------------------------------

# A panel's values may miss `_panel`'s range by this multiple of the terms' magnitudes, and
# adaptive widens its bracket by it times the panels' summed w*(|f(a)| + 2|f(mid)| + |f(b)|)/4,
# for the rounding of the bracket's own arithmetic, not the error of evaluating f.
_ROUNDING = 8.0 * 2.0 ** -52


class _ShapeRefuted(ValueError):
    """f'' has no shape a row may read: the profile found none, or a panel refutes it."""


# A panel is (len, f(a), f(mid), f(b), f''(a), f''(mid), f''(b), shape), with
# the f'' values 0.0 and shape None where no f'' shape is known.
def _panel(a: float, b: float, pa: tuple, pm: tuple, pb: tuple, shape: str | None) -> tuple:
    """The panel on [a, b] from its `_point`s, once a row may read it.

    fa - 2*fm + fb is the integral of f'' against the hat of height h = len/2
    over the panel.  A convex f'' puts it between h^2*f''(mid) (Jensen) and
    h^2*(f''(a) + 4*f''(mid) + f''(b))/6 (f'' under its chords on each
    half); a concave f'' swaps the two; with no shape, f'' >= 0 puts it at
    or above 0.  f'' mass between the three points, which samples can miss,
    shows in the values but not in f''.  Refused: a panel whose f, f'' or
    slack is not finite (f'' of x^1.5 at 0; len^2 or the sum of |f| past the
    float range), which no row can bound, and one whose second difference
    misses its range by more than the slack.  Under a shape the refusal is
    `_ShapeRefuted`; without one, a plain ValueError.
    """
    (fa, d2a), (fm, d2m), (fb, d2b) = pa, pm, pb
    length = b - a
    sq = 0.25 * length * length
    jensen = sq * d2m
    chords = sq * (d2a + 4.0 * d2m + d2b) / 6.0
    if shape == "convex":
        lo, hi = jensen, chords
    elif shape == "concave":
        lo, hi = chords, jensen
    else:
        lo, hi = 0.0, math.inf
    slack = _ROUNDING * (
        abs(fa) + 2.0 * abs(fm) + abs(fb) + sq * (abs(d2a) + 4.0 * abs(d2m) + abs(d2b))
    )
    if math.isfinite(slack) and lo - slack <= fa - 2.0 * fm + fb <= hi + slack:
        return (length, fa, fm, fb, d2a, d2m, d2b, shape)
    on = f"on [{a!r}, {b!r}]"
    refusal = ValueError if shape is None else _ShapeRefuted
    if not math.isfinite(slack):
        if all(map(math.isfinite, (fa, fm, fb, d2a, d2m, d2b))):
            raise refusal(f"the panel check's magnitudes overflow {on}")
        raise refusal(f"f or f'' is not finite {on}")
    if shape is None:
        raise refusal(f"integrand is not certified convex (f(a)-2f(mid)+f(b) < 0 {on})")
    raise refusal(f"panel values {on} contradict the sampled f'' shape ({shape})")


def _point(node: Node, x: float, shape: str | None) -> tuple[float, float]:
    """f(x) and f''(x): one order-2 jet under a shape, one value and 0.0 without."""
    if shape is None:
        return eval_value(node, x), 0.0
    c = jet_coefficients(node, x, 2)
    return c[0], c[2] * 2.0


def _one_panel(f: Node | str, iv: Interval, prof: ConvexityProfile | None, shaped: bool) -> tuple:
    """`_panel` of iv itself; if shaped, with f'' and the shape of prof (`_f2_shape`)."""
    node = as_node(f)
    shape = _f2_shape(node, iv, prof) if shaped else None
    return _panel(iv.a, iv.b, *(_point(node, x, shape) for x in (iv.a, iv.mid, iv.b)), shape)


def _sandwich(length, fa, fm, fb, d2a, d2m, d2b, shape) -> tuple[float, float]:
    """Theorem 2's (lower, upper) on the bisected-trapezoid defect of a panel."""
    sq = length ** 2
    mid_side, end_side = sq / 48.0 * d2m, sq / 96.0 * (d2a + d2b)
    return (mid_side, end_side) if shape == "convex" else (end_side, mid_side)


def _simpson_defect(length, fa, fm, fb, d2a, d2m, d2b, shape) -> float:
    """Theorem 4's bound on a panel's S - mean (mean - S when f'' is concave)."""
    curv = d2a + d2b - 2.0 * d2m
    return length ** 2 / 324.0 * (-curv if shape == "concave" else curv)


def _theorem2(*panel) -> tuple[float, float]:
    dlo, dhi = _sandwich(*panel)
    v = RULES["n14"](*panel)[1]
    return v - dhi, v - dlo


def _simpson(length, fa, fm, fb, d2a, d2m, d2b, shape) -> tuple[float, float]:
    s = (fa + 4.0 * fm + fb) / 6.0
    gap = _simpson_defect(length, fa, fm, fb, d2a, d2m, d2b, shape)
    return (s, s + gap) if shape == "concave" else (s - gap, s)


# Rule -> fn(*panel), the (lower, upper) bracket on the panel's mean: classic and n14
# for convex f, reading no f'' or shape; theorem2 and simpson where f'' has the shape.
RULES = {
    "classic": lambda length, fa, fm, fb, d2a, d2m, d2b, shape: (fm, 0.5 * (fa + fb)),
    "n14": lambda length, fa, fm, fb, d2a, d2m, d2b, shape: (fm, 0.25 * (fa + fb) + 0.5 * fm),
    "theorem2": _theorem2,
    "simpson": _simpson,
}


def rule_enclosure(
    rule: str, f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """RULES[rule] on the single panel iv; theorem2 and simpson read f'' and prof's shape."""
    return Enclosure(*RULES[rule](*_one_panel(f, iv, prof, rule in ("theorem2", "simpson"))))


def classic_hh(f: Node | str, iv: Interval) -> Enclosure:
    """The classic row [f(mid), endpoint average], unchecked; valid for convex f."""
    panel = (iv.length, *_three_values(as_node(f), iv), 0.0, 0.0, 0.0, None)
    return Enclosure(*RULES["classic"](*panel))


def weighted_value(f: Node | str, iv: Interval, w: WeightPair) -> float:
    """w_end*(f(a)+f(b)) + w_mid*f(mid), exactly as written."""
    node = as_node(f)
    fa, fm, fb = _three_values(node, iv)
    return w.endpoint_weight * (fa + fb) + w.midpoint_weight * fm


def bisected_trapezoid(f: Node | str, iv: Interval) -> float:
    """Weights (1/4, 1/2), the n14 row's upper end: the trapezoid rule on both halves.

    Dominates the mean for convex f and never exceeds the plain trapezoid value.
    """
    return RULES["n14"](iv.length, *_three_values(as_node(f), iv), 0.0, 0.0, 0.0, None)[1]


def simpson_value(f: Node | str, iv: Interval) -> float:
    """Weights (1/6, 2/3): Simpson's S, the simpson row's [S, S] where f'' reads 0."""
    return RULES["simpson"](iv.length, *_three_values(as_node(f), iv), 0.0, 0.0, 0.0, "convex")[1]


# --- convexity profiling -----------------------------------------------------


def _chebyshev_nodes(iv: Interval, n: int) -> list[float]:
    half = 0.5 * iv.length
    return [iv.mid + half * math.cos((2 * j - 1) * math.pi / (2 * n)) for j in range(1, n + 1)]


def convexity_profile(f: Node | str, iv: Interval, n: int = 129) -> ConvexityProfile:
    """Classify sign of f'' and of f'''' from n Chebyshev samples.

    Tolerance is scale-relative: 1e-10 * (1 + max sampled magnitude).
    Mixed signs (or non-finite samples) yield "indeterminate".  The
    f2_shape of a tree that calls abs is "indeterminate", which every
    bound that needs a shape refuses.
    """
    if n < 33:
        raise ValueError(f"need at least 33 sample points, got {n}")
    node = as_node(f)
    xs = _chebyshev_nodes(iv, n)
    cs = [jet_coefficients(node, x) for x in xs]
    d2s = [c[2] * 2.0 for c in cs]

    def classify(vals: list[float], pos: str, neg: str) -> str:
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
    if "abs" not in used_names(node):
        f2_shape = classify([c[4] * 24.0 for c in cs], "convex", "concave")
    finite_d2 = [v for v in d2s if math.isfinite(v)]
    min_f2 = min(finite_d2) if finite_d2 else math.nan
    bad = [k for k, v in enumerate(d2s) if not math.isfinite(v)]
    k = bad[0] if bad else d2s.index(min_f2)
    return ConvexityProfile(f_convex, f2_shape, min_f2, n, (xs[k], d2s[k]))


def _f2_shape(node: Node, iv: Interval, prof: ConvexityProfile | None) -> str:
    """Determinate shape of f'' from prof (profiling f if None); `_ShapeRefuted` if none."""
    prof = prof or convexity_profile(node, iv)
    if prof.f2_shape not in ("convex", "concave"):
        raise _ShapeRefuted("second derivative has no certified convexity direction")
    return prof.f2_shape


# --- defect sandwiches -------------------------------------------------------


def bisected_trapezoid_defect(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """Enclosure of D = bisected_trapezoid - mean from f'' point data.

    f'' convex:  len^2/48 * f''(mid) <= D <= len^2/96 * (f''(a)+f''(b));
    f'' concave: the two expressions swap roles.
    """
    return Enclosure(*_sandwich(*_one_panel(f, iv, prof, True)))


def simpson_one_sided_bound(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> OneSidedBound:
    """Simpson value as a certified one-sided bound on the mean: the simpson row's S end.

    Upper bound when f'' is convex, lower bound when f'' is concave.
    """
    panel = _one_panel(f, iv, prof, True)
    convex = panel[-1] == "convex"
    return OneSidedBound(RULES["simpson"](*panel)[1 if convex else 0], convex)


def simpson_defect_bound(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """[0, hi] enclosure of the oriented Simpson defect.

    f'' convex:  encloses simpson_value - mean, hi = len^2/324 * (f''(a)+f''(b)-2f''(mid));
    f'' concave: encloses mean - simpson_value, hi = len^2/324 * (2f''(mid)-f''(a)-f''(b)).
    """
    return Enclosure(0.0, _simpson_defect(*_one_panel(f, iv, prof, True)))


def mean_enclosure_via_defect(
    f: Node | str, iv: Interval, prof: ConvexityProfile | None = None
) -> Enclosure:
    """The theorem2 row: the bisected-trapezoid defect sandwich as a mean bracket."""
    return rule_enclosure("theorem2", f, iv, prof)


def defect_verdict(encl: Enclosure, v: float, mean: float, sign: float = 1.0) -> tuple:
    """(encl, the defect sign*(v - mean), whether encl holds it) for a panel value v and the
    oracle's mean: `Enclosure.holds` to 1e-9, ten times its default tol, of |v| + |mean|."""
    observed = (v - mean) * sign
    return encl, observed, encl.holds(observed, abs(v) + abs(mean), 1e-9)


# Theorem (the CLI's --theorem) -> (citations, defect(node, iv, prof, mean)) giving the
# `defect_verdict` on the sandwich; theorem 4's is mean - simpson_value when f'' is concave.
# Rows look up the bound functions when they run, so wrappers on module names see them.
DEFECTS = {
    2: (
        ("bisected-trapezoid", "defect-sandwich"),
        lambda node, iv, prof, mean: defect_verdict(
            bisected_trapezoid_defect(node, iv, prof), bisected_trapezoid(node, iv), mean
        ),
    ),
    4: (
        ("simpson-defect",),
        lambda node, iv, prof, mean: defect_verdict(
            simpson_defect_bound(node, iv, prof),
            simpson_value(node, iv),
            mean,
            -1.0 if prof.f2_shape == "concave" else 1.0,
        ),
    ),
}


# --- symmetric-pair comparison ----------------------------------------------


def _symmetric_pair(iv: Interval, t: float) -> tuple[float, float]:
    x = iv.a * (0.5 * t) + iv.b * (1.0 - 0.5 * t)
    return x, iv.a + iv.b - x


def symmetric_point_triple(h: Node | str, iv: Interval, t: float) -> tuple[float, float, float]:
    """(2h(mid), h(x)+h(y), h(a)+h(b)) for the symmetric pair at t.

    x = a*t/2 + b*(1-t/2) and y = a+b-x, so the pair straddles the
    midpoint; for convex h the triple is non-decreasing.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    node = as_node(h)
    x, y = _symmetric_pair(iv, t)
    fa, fm, fb = _three_values(node, iv)
    return 2.0 * fm, eval_value(node, x) + eval_value(node, y), fa + fb


# --- exact defect identities -------------------------------------------------

# Identity -> (value(node, iv), weight(t), scale): value - mean equals len^2/scale times
# the integral over t in [0, 1] of weight(t)*(f''(x_t) + f''(y_t)), the pair of
# `symmetric_point_triple`.  Rows look up the panel values when they run, so wrappers
# on module names see them.
IDENTITIES = {
    "bisected-trapezoid": (
        lambda node, iv: bisected_trapezoid(node, iv), lambda t: t * (1.0 - t), 16.0
    ),
    "simpson": (lambda node, iv: simpson_value(node, iv), lambda t: t * (2.0 - 3.0 * t), 48.0),
}


def _identity_check(
    row: str, node: Node, iv: Interval, tol: float, mean: float, pairs: dict
) -> IdentityCheck:
    """IDENTITIES[row]: value - mean against its kernel integral.

    pairs is the table {t: f''(x_t) + f''(y_t)} the kernel reads and fills.
    """
    value, weight, scale = IDENTITIES[row]
    lhs = value(node, iv) - mean

    def kernel(t: float) -> float:
        pair = pairs.get(t)
        if pair is None:
            x, y = _symmetric_pair(iv, t)
            pair = pairs[t] = (
                jet_coefficients(node, x, 2)[2] * 2.0 + jet_coefficients(node, y, 2)[2] * 2.0
            )
        return weight(t) * pair

    def kernel_column(ts: list[float]) -> list[float] | None:
        """`kernel` at a panel's nodes: one order-2 walk over the pairs not yet known."""
        new = [t for t in dict.fromkeys(ts) if t not in pairs]
        if new:
            a, b = iv.a, iv.b  # `_symmetric_pair`, written out
            xs = [a * (0.5 * t) + b * (1.0 - 0.5 * t) for t in new]
            cs = jet_column(node, xs + [a + b - x for x in xs], order=2)
            if cs is None:
                return None
            for t, cx, cy in zip(new, cs, cs[len(new):]):
                pairs[t] = cx[2] * 2.0 + cy[2] * 2.0
        return [weight(t) * pairs[t] for t in ts]

    rhs = iv.length ** 2 / scale * integrate_mean_fn(
        kernel, Interval(0.0, 1.0), tol, kernel_column
    ).value
    return IdentityCheck(lhs, rhs, abs(lhs - rhs))


def identity_residuals(
    f: Node | str, iv: Interval, mean: float, tol: float = 1e-11
) -> dict[str, IdentityCheck]:
    """Every row of `IDENTITIES`, by name, checked against the caller's oracle mean.

    The rows fill one table of f''(x_t) + f''(y_t) pairs, each pair a kernel
    panel adds from one order-2 column walk over their x_t and y_t, or from
    `jet_coefficients` per point where the walk declines.  Each check has
    the bits of its single-row function given the same mean.
    """
    node, pairs = as_node(f), {}
    return {row: _identity_check(row, node, iv, tol, mean, pairs) for row in IDENTITIES}


def bisected_trapezoid_identity_residual(
    f: Node | str, iv: Interval, tol: float = 1e-11
) -> IdentityCheck:
    """Check: bisected_trapezoid - mean == len^2/16 * kernel integral.

    The kernel is t(1-t)*(f''(x_t)+f''(y_t)) over t in [0,1], with the
    symmetric substitution of symmetric_point_triple.  Both sides use
    the independent integrator; residual should vanish to tolerance.
    It makes its own oracle mean and f'' pairs; `identity_residuals`
    checks both identities on one mean the caller passes and one table
    of pairs.
    """
    node = as_node(f)
    mean = integrate_mean(node, iv, tol).value
    return _identity_check("bisected-trapezoid", node, iv, tol, mean, {})


def simpson_identity_residual(f: Node | str, iv: Interval, tol: float = 1e-11) -> IdentityCheck:
    """Check: simpson_value - mean == len^2/48 * kernel integral.

    Same substitution with kernel t(2-3t)*(f''(x_t)+f''(y_t)); the
    kernel changes sign, which is what makes the Simpson defect
    second-order small.  Makes its own mean and f'' pairs, as the
    bisected-trapezoid identity does.
    """
    node = as_node(f)
    mean = integrate_mean(node, iv, tol).value
    return _identity_check("simpson", node, iv, tol, mean, {})


# --- Simpson estimate with fourth-derivative error bound ----------------------


_SIMPSON_N = 33


def simpson_estimate(f: Node | str, iv: Interval) -> SimpsonEstimate:
    """Simpson mean estimate with the classic fourth-derivative bound.

    err_bound = (1/90) h^5 max|f''''| / (b-a) with h = (b-a)/2, the
    max sampled at the 33 Chebyshev points of `_SIMPSON_N` plus both
    endpoints, in one order-4 column walk or, where it declines, with one
    `jet_coefficients` per point.  A sample that is not finite, such as the
    infinite or NaN f'''' of x^1.5 or sqrt(x)*x at 0, gives err_bound
    inf.  The bound is certified only insofar as the sampled max
    dominates |f''''|.
    """
    node = as_node(f)
    xs = _chebyshev_nodes(iv, _SIMPSON_N) + [iv.a, iv.b]
    cs = jet_column(node, xs) or [jet_coefficients(node, x) for x in xs]
    d4s = [c[4] * 24.0 for c in cs]
    err_bound = math.inf
    if all(map(math.isfinite, d4s)):
        h = 0.5 * iv.length
        err_bound = h ** 5 * max(map(abs, d4s)) / (90.0 * iv.length)
    return SimpsonEstimate(simpson_value(node, iv), err_bound)


# --- adaptive refinement ------------------------------------------------------


_MAX_PANELS = 100_000


def adaptive_enclosure(
    f: Node | str, iv: Interval, tol: float, prof: ConvexityProfile | None = None
) -> Enclosure:
    """Bisect until the certified bracket around the mean is <= tol wide.

    Where prof gives f'' a shape, each panel's bracket is the simpson row,
    theorem 4's [S - len^2/324*k, S] with k = f''(a) + f''(b) - 2f''(mid),
    mirrored when f'' is concave: it narrows like len^4, and each new point
    costs one order-2 jet.  Elsewhere it is the n14 row, which narrows like
    len^2.  Each panel passes `_panel`'s check: the first that contradicts
    the sampled shape, as a kink or a narrow hyp between the samples does,
    or whose f'' is not finite, as x^1.5's is at 0, restarts the call on the
    n14 row.  The widest panel is split first; the panels are summed exactly
    with math.fsum and widened by the allowance of `_ROUNDING`.  A tol below
    twice that is refused at the first pass that shows it, before any split
    unless the summed magnitude grows as the panels refine.  prof=None
    profiles f.

    The new points come a generation of panels at a time: when the widest
    panel's quarter points are not known yet, those of the widest panels
    whose widths cover the excess over the target, as many as the budget
    lets split, are evaluated in one column walk.  The splits read them in
    the same heap order, so every panel, the bracket, each error and the
    `BudgetError` are those of one evaluation per split, bit for bit.  A
    walk that declines leaves the rest of the call to `_point`.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    node = as_node(f)
    prof = (prof or convexity_profile(node, iv)).certified_convex()
    try:
        return _bisect(node, iv, tol, _f2_shape(node, iv, prof))
    except _ShapeRefuted:
        return _bisect(node, iv, tol, None)


def _bisect(node: Node, iv: Interval, tol: float, shape: str | None) -> Enclosure:
    """The heap loop of `adaptive_enclosure`; its row follows from the shape:
    simpson where f'' has one, n14 (shape None) where it has none.

    A split reads its quarter points from `known`, which `fetch` fills one
    generation of panels at a time, or, once a walk has declined, from `_point`.
    """
    row, total = RULES["n14" if shape is None else "simpson"], iv.length
    known: dict[float, tuple] = {}

    # A panel is (-w*(hi - lo), a, b, `_point`s at a, mid and b, w*hi), w its weight.
    def panel(a: float, b: float, pa: tuple, pm: tuple, pb: tuple) -> tuple:
        lo, hi = row(*_panel(a, b, pa, pm, pb, shape))
        w = (b - a) / total
        return (w * (lo - hi), a, b, pa, pm, pb, w * hi)

    def fetch(need: float) -> bool:
        """The `_point`s at the quarter points of the widest panels, as many as
        the budget lets split, until their widths sum to need: into `known`
        from one column walk, or False where the walk declines."""
        xs = []
        for neg_gap, a, b, *_ in sorted(heap)[: _MAX_PANELS - len(heap)]:
            if need <= 0.0:
                break
            need += neg_gap
            m = 0.5 * (a + b)
            ql, qr = 0.5 * (a + m), 0.5 * (m + b)
            if not (ql in known and qr in known):
                xs += (ql, qr)
        if shape is None:
            vs = eval_column(node, xs)
            if vs is None:
                return False
            known.update(zip(xs, [(v, 0.0) for v in vs]))
        else:
            cs = jet_column(node, xs, order=2)
            if cs is None:
                return False
            known.update(zip(xs, [(c[0], c[2] * 2.0) for c in cs]))
        return True

    heap = [panel(iv.a, iv.b, *(_point(node, x, shape) for x in (iv.a, iv.mid, iv.b)))]
    width = -heap[0][0]
    batched = True
    while True:
        # Adding a panel's -w*(hi - lo) to its upper term gives its lower term.
        highs = [p[6] for p in heap]
        magnitude = math.fsum(
            [(b - a) * (abs(pa[0]) + 2.0 * abs(pm[0]) + abs(pb[0]))
             for _, a, b, pa, pm, pb, _ in heap]
        )
        allowance = _ROUNDING * magnitude / (4.0 * total)
        if 2.0 * allowance > tol:
            raise ValueError(
                f"tol {tol:g} is below the rounding floor {2.0 * allowance:.2g} of this bracket"
            )
        upper = math.fsum(highs) + allowance
        lower = math.fsum(highs + [p[0] for p in heap]) - allowance
        if upper - lower <= tol:
            return Enclosure(lower, upper)
        # Split until the running width sits below tol by the allowance and
        # by the rounding drift of the running sum from the exact one.
        target = tol - (upper - lower - width)
        while width > target:
            if len(heap) >= _MAX_PANELS:
                raise BudgetError(f"subdivision budget of {_MAX_PANELS} panels exhausted")
            neg_gap, a, b, pa, pm, pb, _ = heap[0]
            m = 0.5 * (a + b)
            ql, qr = 0.5 * (a + m), 0.5 * (m + b)
            if batched and not (ql in known and qr in known):
                batched = fetch(width - target)
            # a `_point` is a non-empty tuple, so `or` falls back only on a miss
            left = panel(a, m, pa, known.pop(ql, None) or _point(node, ql, shape), pm)
            right = panel(m, b, pm, known.pop(qr, None) or _point(node, qr, shape), pb)
            heapq.heapreplace(heap, left)
            heapq.heappush(heap, right)
            width += neg_gap - left[0] - right[0]
