"""Seeded property suites behind the verify subcommand.

Three suites: "identities" (exact relations that must hold to within
integrator tolerance), "inequalities" (one- and two-sided bound
containments on a random convex corpus), and "means" (the elementary
mean chain and the certified brackets).  Every property draws from its
own deterministic generator, so a (suite, samples, seed) triple always
reproduces the same verdicts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from . import bounds
from .core import Enclosure, Interval, WeightPair
from .expr import BinOp, Const, Hyp, Node, Pow, Unary, Var, eval_value, parse, to_source
from .jets import eval_jet
from .means import (
    BRACKETS,
    all_means,
    identric_enclosure,
    log_mean_enclosure,
    reciprocal_log_mean_defect,
)
from .quadrature import integrate_mean
from .search import RatioReport, f_ratio, left_counterexample


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Case:
    label: str
    node: Node
    iv: Interval


def _xlogx_anti(t: float) -> float:
    return t * t * (2.0 * math.log(t) - 1.0) / 4.0


# The corpus's named sources in draw order, each with its closed-form mean on [a, b].
_FAMILIES = (
    ("exp(x)", lambda a, b: (math.exp(b) - math.exp(a)) / (b - a)),
    ("1/x", lambda a, b: math.log(b / a) / (b - a)),
    ("-log(x)", lambda a, b: -((b * math.log(b) - b) - (a * math.log(a) - a)) / (b - a)),
    ("x*log(x)", lambda a, b: (_xlogx_anti(b) - _xlogx_anti(a)) / (b - a)),
)


class _Context:
    """What every property reads: corpus, trial counts, printed-constant flag.

    One context serves every suite of a run, so "all" builds the corpus
    and integrates its means once.
    """

    def __init__(self, samples: int, seed: int, printed_constant: bool):
        self.samples = samples
        self.seed = seed
        self.printed_constant = printed_constant
        self.mean_trials = max(10 * samples, 100)
        self.bracket_trials = max(samples, 50)
        self._means: dict[int, float] = {}
        self._identities: dict[int, dict[str, bounds.IdentityCheck]] = {}

    @cached_property
    def family_trees(self) -> list[Node]:
        """The tree of each `_FAMILIES` source, parsed once per context and read by
        the corpus cases, the oracle's closed-form check and the means cross-module check."""
        return [parse(src) for src, _ in _FAMILIES]

    @cached_property
    def cases(self) -> list[Case]:
        """Random convex integrands over subintervals of (0.1, 5).

        The cases of a family share its tree in `family_trees`; each x^p
        case parses its own source.
        """
        rng = random.Random(self.seed)
        cases = []
        for _ in range(self.samples):
            kind = rng.randrange(5)
            a = rng.uniform(0.1, 4.5)
            b = rng.uniform(a + 0.05, 5.0)
            if kind < 4:
                src, node = _FAMILIES[kind][0], self.family_trees[kind]
            else:
                src = f"x^{rng.uniform(1.2, 6.0)!r}"
                node = parse(src)
            cases.append(Case(src, node, Interval(a, b)))
        return cases

    def mean(self, i: int) -> float:
        if i not in self._means:
            c = self.cases[i]
            self._means[i] = integrate_mean(c.node, c.iv).value
        return self._means[i]

    def identities(self, i: int) -> dict[str, bounds.IdentityCheck]:
        """Every `bounds.IDENTITIES` check of case i at tol 1e-9, by row name.

        They read case i's oracle mean, `mean(i)`, and share one table of f'' pairs.
        """
        if i not in self._identities:
            c = self.cases[i]
            self._identities[i] = bounds.identity_residuals(c.node, c.iv, self.mean(i), tol=1e-9)
        return self._identities[i]

    @cached_property
    def shaped(self) -> list[tuple[int, Case, bounds.ConvexityProfile]]:
        """(index, case, profile) of the cases whose f'' has a determinate shape."""
        out = []
        for i, c in enumerate(self.cases):
            prof = bounds.convexity_profile(c.node, c.iv, 65)
            if prof.f2_shape != "indeterminate":
                out.append((i, c, prof))
        return out


def _fmt(case: Case) -> str:
    return f"{case.label} on [{case.iv.a:.9g}, {case.iv.b:.9g}]"


def _ok(n: int) -> tuple[bool, str]:
    return True, f"ok ({n} checks)"


# --- identities ---------------------------------------------------------------


def _polynomial(coeffs: list[float]) -> Node:
    """The tree of c0 + c1*x^1 + c2*x^2 + ..., summed left to right."""
    node = Const(coeffs[0])
    for k, c in enumerate(coeffs[1:], 1):
        node = BinOp("+", node, BinOp("*", Const(c), Pow(Var(), float(k))))
    return node


def _prop_oracle_cubic_exactness(rng, ctx):
    for trial in range(40):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        a = rng.uniform(-2.0, 2.0)
        b = a + rng.uniform(0.1, 1.5)
        node = _polynomial(coeffs)
        anti = lambda t: sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        exact = (anti(b) - anti(a)) / (b - a)
        got = integrate_mean(node, Interval(a, b), 1e-10)
        if abs(got.value - exact) > 1e-13 * (1.0 + abs(exact)):
            return False, f"cubic mean off by {got.value - exact:.3e} at trial {trial}"
    return _ok(40)


def _prop_oracle_additivity(rng, ctx):
    for i, case in enumerate(ctx.cases):
        cut = case.iv.a + case.iv.length * rng.uniform(0.3, 0.7)
        left = integrate_mean(case.node, Interval(case.iv.a, cut), 1e-11)
        right = integrate_mean(case.node, Interval(cut, case.iv.b), 1e-11)
        combined = (
            (cut - case.iv.a) * left.value + (case.iv.b - cut) * right.value
        ) / case.iv.length
        whole = ctx.mean(i)
        if abs(whole - combined) > 1e-11 * (1.0 + abs(whole)):
            return False, f"additivity off by {whole - combined:.3e} for {_fmt(case)}"
    return _ok(len(ctx.cases))


def _prop_oracle_closed_forms(rng, ctx):
    for trial in range(100):
        kind = trial % len(_FAMILIES)
        src, form = _FAMILIES[kind]
        a = rng.uniform(0.1, 9.0)
        b = rng.uniform(a + 0.05, 10.0)
        exact = form(a, b)
        got = integrate_mean(ctx.family_trees[kind], Interval(a, b), 1e-10).value
        if abs(got - exact) > 1e-9 * (1.0 + abs(exact)):
            return False, f"{src} on [{a:.6g},{b:.6g}] off by {got - exact:.3e}"
    return _ok(100)


def _identity_prop(row: str):
    def prop(rng, ctx):
        for i, case in enumerate(ctx.cases):
            check = ctx.identities(i)[row]
            scale = 1.0 + max(abs(check.lhs), abs(check.rhs))
            if check.residual > 1e-8 * scale:
                return False, f"residual {check.residual:.3e} for {_fmt(case)}"
        return _ok(len(ctx.cases))

    return prop


def _prop_affine_exactness(rng, ctx):
    for trial in range(50):
        c = rng.uniform(-5.0, 5.0)
        d = rng.uniform(-5.0, 5.0)
        node = BinOp("+", Const(c), BinOp("*", Const(d), Var()))
        a = rng.uniform(-3.0, 3.0)
        iv = Interval(a, a + rng.uniform(0.2, 2.0))
        exact = c + d * iv.mid
        scale = 1e-12 * (1.0 + abs(exact))
        w = WeightPair.from_endpoint(rng.uniform(0.0, 0.5))
        values = (
            bounds.weighted_value(node, iv, w),
            bounds.bisected_trapezoid(node, iv),
            bounds.simpson_value(node, iv),
            bounds.classic_hh(node, iv).lower,
            bounds.classic_hh(node, iv).upper,
        )
        if any(abs(v - exact) > scale for v in values):
            return False, f"affine bound drifted at trial {trial}"
    return _ok(50)


def _prop_ratio_affine_invariance(rng, ctx):
    picks = ctx.cases[: min(20, len(ctx.cases))]
    for case in picks:
        base = f_ratio(case.node, case.iv)
        if base.degenerate:
            continue
        c = rng.uniform(0.5, 3.0)
        d0, d1 = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        shifted = BinOp(
            "+",
            BinOp("*", Const(c), case.node),
            BinOp("+", Const(d0), BinOp("*", Const(d1), Var())),
        )
        moved = f_ratio(shifted, case.iv)
        if moved.degenerate or abs(moved.value - base.value) > 1e-8 * (1.0 + abs(base.value)):
            return False, f"ratio moved under affine map for {_fmt(case)}"
    return _ok(len(picks))


def _random_expr(rng: random.Random, depth: int) -> Node:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.4:
            return Var()
        return Const(round(rng.uniform(-9.0, 9.0), 3))
    if roll < 0.5:
        op = rng.choice("+-*/")
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if roll < 0.65:
        return Pow(_random_expr(rng, depth - 1), round(rng.uniform(-3.0, 4.0), 2))
    if roll < 0.75:
        return Hyp(_random_expr(rng, depth - 1), round(rng.uniform(0.01, 2.0), 3))
    fn = rng.choice(("neg", "exp", "log", "sqrt", "abs", "sin", "cos"))
    return Unary(fn, _random_expr(rng, depth - 1))


def _prop_parse_print_roundtrip(rng, ctx):
    for trial in range(50):
        tree = _random_expr(rng, 4)
        once = parse(to_source(tree))
        twice = parse(to_source(once))
        if once != twice:
            return False, f"round-trip changed tree for {to_source(tree)!r}"
    return _ok(50)


def _prop_jet_polynomial_exactness(rng, ctx):
    for trial in range(60):
        coeffs = [rng.uniform(-4.0, 4.0) for _ in range(5)]
        node = _polynomial(coeffs)
        x = rng.uniform(-2.0, 2.0)
        got = eval_jet(node, x).derivatives
        cur = list(coeffs)
        for order in range(5):
            exact = sum(c * x ** k for k, c in enumerate(cur))
            if abs(got[order] - exact) > 1e-12 * (1.0 + abs(exact)):
                return False, f"order-{order} derivative off at trial {trial}"
            cur = [k * c for k, c in enumerate(cur)][1:]
    return _ok(60)


# --- inequalities -------------------------------------------------------------


def _prop_classic_containment(rng, ctx):
    for i, case in enumerate(ctx.cases):
        mean = ctx.mean(i)
        fm = eval_value(case.node, case.iv.mid)
        trap = 0.5 * (eval_value(case.node, case.iv.a) + eval_value(case.node, case.iv.b))
        bt = bounds.bisected_trapezoid(case.node, case.iv)
        if not (fm <= mean + 1e-10 and mean <= bt + 1e-10 and bt <= trap + 1e-12):
            return False, f"containment chain broken for {_fmt(case)}"
    return _ok(len(ctx.cases))


def _prop_weight_monotonicity(rng, ctx):
    for case in ctx.cases:
        fm = eval_value(case.node, case.iv.mid)
        lo = rng.uniform(0.25, 0.5)
        hi = rng.uniform(lo, 0.5)
        v_lo = bounds.weighted_value(case.node, case.iv, WeightPair.from_endpoint(lo))
        v_hi = bounds.weighted_value(case.node, case.iv, WeightPair.from_endpoint(hi))
        v_mid = bounds.weighted_value(case.node, case.iv, WeightPair.from_endpoint(0.0))
        scale = 1e-12 * (1.0 + abs(v_hi))
        if v_lo > v_hi + scale or abs(v_mid - fm) > scale:
            return False, f"weight monotonicity broken for {_fmt(case)}"
    return _ok(len(ctx.cases))


def _defect_prop(theorem: int, what: str, outside: str):
    def prop(rng, ctx):
        _, defect = bounds.DEFECTS[theorem]
        for i, case, prof in ctx.shaped:
            _, observed, contained = defect(case.node, case.iv, prof, ctx.mean(i))
            if not contained:
                return False, f"{what} {observed:.9g} outside {outside} for {_fmt(case)}"
        return _ok(len(ctx.shaped))

    return prop


def _prop_simpson_direction(rng, ctx):
    for i, case, prof in ctx.shaped:
        s = bounds.simpson_one_sided_bound(case.node, case.iv, prof)
        # S - mean >= 0 for an upper bound S, mean - S >= 0 for a lower one
        sign = 1.0 if s.is_upper else -1.0
        if not bounds.defect_verdict(Enclosure(0.0, math.inf), s.value, ctx.mean(i), sign)[2]:
            return False, f"one-sided direction wrong for {_fmt(case)}"
    return _ok(len(ctx.shaped))


def _prop_simpson_error_bound(rng, ctx):
    for i, case in enumerate(ctx.cases):
        est = bounds.simpson_estimate(case.node, case.iv)
        err = Enclosure(-est.err_bound, est.err_bound)
        if not bounds.defect_verdict(err, est.value, ctx.mean(i))[2]:
            return False, f"error exceeds bound for {_fmt(case)}"
    return _ok(len(ctx.cases))


def _prop_symmetric_triple(rng, ctx):
    checks = 0
    for case in ctx.cases:
        for _ in range(5):
            t = rng.uniform(0.0, 1.0)
            lo, mid, hi = bounds.symmetric_point_triple(case.node, case.iv, t)
            slack = 1e-12 * (1.0 + abs(hi))
            if lo > mid + slack or mid > hi + slack:
                return False, f"triple not ordered at t={t:.6g} for {_fmt(case)}"
            checks += 1
    return _ok(checks)


def _prop_ratio_range(rng, ctx):
    tested = 0
    for i, case in enumerate(ctx.cases):
        fa = eval_value(case.node, case.iv.a)
        fm = eval_value(case.node, case.iv.mid)
        fb = eval_value(case.node, case.iv.b)
        report = RatioReport.of(fa, fm, fb, ctx.mean(i))
        if report.degenerate:
            continue
        tested += 1
        if not -1e-9 <= report.value <= 0.25 + 1e-9:
            return False, f"ratio {report.value:.9g} out of range for {_fmt(case)}"
    return _ok(tested)


def _prop_left_counterexample_grid(rng, ctx):
    for k in range(50):
        gamma = 0.01 + (0.5 - 0.01) * (k + 1) / 50.0
        report = left_counterexample(gamma)
        if not report.violated:
            return False, f"no violation at gamma={gamma:.6g}"
    return _ok(50)


# --- means --------------------------------------------------------------------


def _rand_pair(rng) -> tuple[float, float]:
    a = rng.uniform(1e-3, 1e3)
    b = rng.uniform(1e-3, 1e3)
    return (a, b) if a != b else (a, b + 1.0)


def _prop_means_chain(rng, ctx):
    for _ in range(ctx.mean_trials):
        a, b = _rand_pair(rng)
        ms = all_means(a, b)  # constructor enforces the chain
        if ms.harmonic > ms.gini:
            return False, f"chain inverted for ({a}, {b})"
    return _ok(ctx.mean_trials)


def _prop_means_symmetry_homogeneity(rng, ctx):
    for _ in range(ctx.bracket_trials):
        a, b = _rand_pair(rng)
        fwd = all_means(a, b).as_dict()
        rev = all_means(b, a).as_dict()
        k = rng.choice((1e-3, 0.37, 7.3, 1e3))
        scaled = all_means(k * a, k * b).as_dict()
        for name in fwd:
            if abs(fwd[name] - rev[name]) > 1e-12 * fwd[name]:
                return False, f"{name} not symmetric at ({a:.6g}, {b:.6g})"
            if abs(scaled[name] - k * fwd[name]) > 1e-12 * scaled[name]:
                return False, f"{name} not homogeneous at ({a:.6g}, {b:.6g}), k={k}"
    return _ok(ctx.bracket_trials)


def _bracket_prop(kind: str):
    def prop(rng, ctx):
        _, bracket = BRACKETS[kind]
        for _ in range(ctx.bracket_trials):
            a, b = _rand_pair(rng)
            encl, target = bracket(a, b, all_means(a, b), ctx.printed_constant)
            if not encl.holds(target, abs(target)):
                return False, f"target {target:.9g} escaped [{encl.lower:.9g}, {encl.upper:.9g}] at ({a:.9g}, {b:.9g})"
        return _ok(ctx.bracket_trials)

    return prop


def _prop_upper_below_arithmetic(rng, ctx):
    for _ in range(ctx.bracket_trials):
        a, b = _rand_pair(rng)
        ms = all_means(a, b)
        if (ms.arithmetic + 2.0 * ms.geometric) / 3.0 > ms.arithmetic * (1.0 + 1e-12):
            return False, f"(A+2G)/3 above A at ({a:.6g}, {b:.6g})"
    return _ok(ctx.bracket_trials)


def _prop_means_cross_module(rng, ctx):
    # Every trial interval lies in [0.2, 5] (in its logarithm for e^t),
    # where 1/t, e^t and -log t all have f'''' > 0, so one profile of each
    # integrand over that range gives every trial its f'' shape.
    f_exp, f_recip, f_neglog, _ = ctx.family_trees
    recip_prof = bounds.convexity_profile(f_recip, Interval(0.2, 5.0))
    exp_prof = bounds.convexity_profile(f_exp, Interval(math.log(0.2), math.log(5.0)))
    neglog_prof = bounds.convexity_profile(f_neglog, Interval(0.2, 5.0))
    for _ in range(min(ctx.bracket_trials, 40)):
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(a * 1.05, 5.0)
        iv = Interval(a, b)
        # defect bracket for 1/t is the reciprocal-log-mean bracket
        lhs = reciprocal_log_mean_defect(a, b)
        rhs = bounds.bisected_trapezoid_defect(f_recip, iv, recip_prof)
        if abs(lhs.lower - rhs.lower) > 1e-10 * (1.0 + abs(rhs.lower)) or abs(
            lhs.upper - rhs.upper
        ) > 1e-10 * (1.0 + abs(rhs.upper)):
            return False, f"reciprocal defect mismatch at ({a:.6g}, {b:.6g})"
        # log-mean correction is the Simpson defect bound for e^t on log axes
        log_iv = Interval(math.log(a), math.log(b))
        correction = log_mean_enclosure(a, b)
        simpson = bounds.simpson_defect_bound(f_exp, log_iv, exp_prof)
        width = correction.upper - correction.lower
        if abs(width - simpson.upper) > 1e-10 * (1.0 + simpson.upper):
            return False, f"log-mean correction mismatch at ({a:.6g}, {b:.6g})"
        # identric exponent is the Simpson defect bound for -log t
        encl = identric_enclosure(a, b)
        exponent = math.log(encl.upper / encl.lower)
        neglog = bounds.simpson_defect_bound(f_neglog, iv, neglog_prof)
        if abs(exponent - neglog.upper) > 1e-10 * (1.0 + neglog.upper):
            return False, f"identric exponent mismatch at ({a:.6g}, {b:.6g})"
    return _ok(min(ctx.bracket_trials, 40))


# --- suite assembly -----------------------------------------------------------

# Suite name -> ordered (property name, property(rng, ctx)).  Properties
# look up the functions they check when they run, not at import, so
# wrappers installed on module names (bench/spans.py) see every call.
SUITES = {
    "identities": (
        ("oracle-cubic-exactness", _prop_oracle_cubic_exactness),
        ("oracle-additivity", _prop_oracle_additivity),
        ("oracle-closed-forms", _prop_oracle_closed_forms),
        ("bisected-trapezoid-identity", _identity_prop("bisected-trapezoid")),
        ("simpson-identity", _identity_prop("simpson")),
        ("affine-exactness", _prop_affine_exactness),
        ("ratio-affine-invariance", _prop_ratio_affine_invariance),
        ("parse-print-roundtrip", _prop_parse_print_roundtrip),
        ("jet-polynomial-exactness", _prop_jet_polynomial_exactness),
    ),
    "inequalities": (
        ("classic-containment", _prop_classic_containment),
        ("weight-monotonicity", _prop_weight_monotonicity),
        ("defect-sandwich", _defect_prop(2, "defect", "sandwich")),
        ("simpson-defect-bound", _defect_prop(4, "oriented defect", "bound")),
        ("simpson-direction", _prop_simpson_direction),
        ("simpson-error-bound", _prop_simpson_error_bound),
        ("symmetric-triple", _prop_symmetric_triple),
        ("ratio-range", _prop_ratio_range),
        ("left-counterexample-grid", _prop_left_counterexample_grid),
    ),
    "means": (
        ("means-chain", _prop_means_chain),
        ("means-symmetry-homogeneity", _prop_means_symmetry_homogeneity),
        ("log-mean-bracket", _bracket_prop("L")),
        ("reciprocal-log-mean-defect", _bracket_prop("recipL")),
        ("identric-bracket", _bracket_prop("I")),
        ("identric-square-bracket", _bracket_prop("Isq")),
        ("upper-below-arithmetic", _prop_upper_below_arithmetic),
        ("means-cross-module", _prop_means_cross_module),
    ),
}

SUITE_NAMES = tuple(SUITES)


def run_suite(
    suite: str,
    samples: int = 200,
    seed: int = 1,
    printed_constant: bool = False,
) -> list[PropertyResult]:
    """Run one suite (or "all") and return per-property verdicts."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES + ('all',)}")
    if samples < 1:
        raise ValueError("samples must be positive")
    ctx = _Context(samples, seed, printed_constant)
    results = []
    for name in SUITE_NAMES if suite == "all" else (suite,):
        for idx, (prop_name, prop) in enumerate(SUITES[name]):
            passed, detail = prop(random.Random(seed * 10007 + idx), ctx)
            results.append(PropertyResult(f"{name}:{prop_name}", passed, detail))
    return results
