"""Seeded workloads for the hhbounds benchmark and their independent checks.

Each workload is a fixed list of CLI argument vectors built from a seed,
plus a judge that reads the `--json` report of each call and compares it
with a reference computed here from closed forms in the standard library.
Nothing in this file calls into hhbounds: the references must not share
code with the program they check.

Arguments are always written as `--f=<expr>` and `--a=<value>`.  With a
separate token, argparse reads an expression or number that starts with
`-` (`--f -log(x)`, `--a -1`) as an option and exits with a usage error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Relative slack for "the bracket contains the reference".  It absorbs the
# rounding of the closed forms below (a few ulps, amplified by at most the
# cancellation b/(b-a) <= 100 of the intervals used) and nothing more.
REL_SLACK = 1e-12

# Closed-form mean of an integrand over [a, b], from an antiderivative.
MeanFn = Callable[[float, float], float]


def _from_antiderivative(anti: Callable[[float], float]) -> MeanFn:
    return lambda a, b: (anti(b) - anti(a)) / (b - a)


def _power_mean(p: float) -> MeanFn:
    return _from_antiderivative(lambda t: t ** (p + 1.0) / (p + 1.0))


def _hyp_mean(c: float, eps: float) -> MeanFn:
    # d/du [ (u*sqrt(u^2+e^2) + e^2*asinh(u/e)) / 2 ] = sqrt(u^2+e^2)
    def anti(t: float) -> float:
        u = t - c
        return 0.5 * (u * math.hypot(u, eps) + eps * eps * math.asinh(u / eps))

    return _from_antiderivative(anti)


FIXED_INTEGRANDS: list[tuple[str, MeanFn]] = [
    ("exp(x)", _from_antiderivative(math.exp)),
    ("1/x", _from_antiderivative(math.log)),
    ("-log(x)", _from_antiderivative(lambda t: t - t * math.log(t))),
    ("x*log(x)", _from_antiderivative(lambda t: t * t * (2.0 * math.log(t) - 1.0) / 4.0)),
    ("exp(x) + x^2", _from_antiderivative(lambda t: math.exp(t) + t ** 3 / 3.0)),
]


# --- two-argument means, in forms free of cancellation ----------------------


def _t_log_t_over_t_minus_1(s: float) -> float:
    """t*log(t)/(t-1) for t = 1 + s, accurate for small s."""
    return (1.0 + s) * math.log1p(s) / s


def log_mean(a: float, b: float) -> float:
    a, b = min(a, b), max(a, b)
    return (b - a) / math.log1p((b - a) / a)


def identric_mean(a: float, b: float) -> float:
    """exp((b log b - a log a)/(b - a) - 1) = a * exp(t log t/(t-1) - 1), t = b/a."""
    a, b = min(a, b), max(a, b)
    return a * math.exp(_t_log_t_over_t_minus_1((b - a) / a) - 1.0)


def identric_of_squares(a: float, b: float) -> float:
    a, b = min(a, b), max(a, b)
    s = (b - a) * (b + a) / (a * a)
    return a * a * math.exp(_t_log_t_over_t_minus_1(s) - 1.0)


def reciprocal_defect(a: float, b: float) -> float:
    """(1/A + 1/H)/2 - 1/L with A = (a+b)/2 and H = 2ab/(a+b)."""
    return 1.0 / (a + b) + (a + b) / (4.0 * a * b) - 1.0 / log_mean(a, b)


def _harmonic(a: float, b: float) -> float:
    return 2.0 * a * b / (a + b)


# kind -> (reference, magnitude the reference's rounding error scales with).
# The reciprocal defect is a small difference of terms up to 1/H in size.
MEAN_TARGETS: dict[str, tuple[Callable[[float, float], float], Callable[[float, float], float]]] = {
    "L": (log_mean, log_mean),
    "I": (identric_mean, identric_mean),
    "Isq": (identric_of_squares, identric_of_squares),
    "recipL": (reciprocal_defect, lambda a, b: 1.0 / _harmonic(a, b)),
}


# --- the search witness ------------------------------------------------------


def power_combo_ratio(p: float, c: float) -> float:
    """F ratio of x^p - c*x^4 on [0, 1]; f(0) = 0 because p > 1."""
    mean = 1.0 / (p + 1.0) - c / 5.0
    f_mid = 0.5 ** p - c / 16.0
    return (mean - f_mid) / (1.0 - c - 2.0 * f_mid)


def power_combo_convex(p: float, c: float) -> bool:
    """f'' = p(p-1)x^(p-2) - 12c x^2 >= 0 on (0, 1], for p > 1 and c >= 0.

    f'' >= 0 iff p(p-1) x^(p-4) >= 12c.  For p <= 4 the left side is
    smallest at x = 1; for p > 4 it tends to 0 as x -> 0, so only c = 0
    is convex.
    """
    if c == 0.0:
        return True
    return p <= 4.0 and p * (p - 1.0) >= 12.0 * c


# --- operations and their verdicts -------------------------------------------


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv and what the judge needs to check it."""

    argv: tuple[str, ...]
    kind: str
    expect: tuple


def judge(op: Op, code: int, stdout: str) -> str | None:
    """None when the call answered correctly, else the cause of failure.

    Causes: "refused:<reason>" for exit 2, "wrong" when a computed value
    disagrees with its closed-form reference, "property-failed" when
    `verify` reports one of its properties failed, "status:<status>" for a
    report whose status is not ok although its answer agrees.  Two more
    causes mark an answer that is right but misses a promise the call made:
    "width-above-tol" for an adaptive bracket that contains the mean but is
    wider than --tol, and "witness-not-convex" for a search witness whose
    ratio is right but whose f'' is negative somewhere (the program
    certifies convexity from samples of f'', and the closed form shows
    f'' < 0 between them).
    """
    if code == 2:
        if not stdout.strip():
            return "refused:usage"
        error = json.loads(stdout)["outputs"].get("error", "")
        if "budget" in error:
            return "refused:budget"
        if "range" in error or "overflow" in error.lower():
            return "refused:overflow"
        return "refused:other"
    try:
        report = json.loads(stdout)
        out = report["outputs"]
        if not _answer_ok(op, out):
            return "property-failed" if op.kind == "verify" else "wrong"
    except (ValueError, KeyError, TypeError):
        return "wrong"
    if report["status"] != "ok" or code != 0:
        return f"status:{report['status']}"
    if op.kind == "enclose" and op.expect[1] is not None:
        if out["upper"] - out["lower"] > op.expect[1]:
            return "width-above-tol"
    if op.kind == "search" and not power_combo_convex(*out["witness"]):
        return "witness-not-convex"
    return None


def _contains(lower: float, upper: float, target: float, scale: float) -> bool:
    slack = REL_SLACK * scale
    return lower - slack <= target <= upper + slack


def _answer_ok(op: Op, out: dict) -> bool:
    if op.kind == "enclose":
        mean = op.expect[0]
        return _contains(out["lower"], out["upper"], mean, max(1.0, abs(mean)))
    if op.kind == "means":
        target, scale = op.expect
        return _contains(out["lower"], out["upper"], target, scale)
    if op.kind == "verify":
        (count,) = op.expect
        props = out["properties"]
        return out["failed"] == 0 and len(props) == count and all(p["passed"] for p in props)
    if op.kind == "search":
        return abs(power_combo_ratio(*out["witness"]) - out["best_ratio"]) <= 1e-8
    raise ValueError(f"unknown op kind {op.kind!r}")


# --- workload builders -------------------------------------------------------


def _enclose(src: str, mean_fn: MeanFn, a: float, b: float, method: str, tol=None) -> Op:
    argv = ["--json", "enclose", f"--f={src}", f"--a={a!r}", f"--b={b!r}", f"--method={method}"]
    if tol is not None:
        argv.append(f"--tol={tol!r}")
    return Op(tuple(argv), "enclose", (mean_fn(a, b), tol))


def query_mix(seed: int) -> list[Op]:
    """1000 short queries: ~70% enclose classic|n14|simpson, ~30% means brackets."""
    rng = random.Random(f"query-mix:{seed}")
    pool = list(FIXED_INTEGRANDS)
    for _ in range(3):
        p = round(rng.uniform(1.5, 6.0), 3)
        pool.append((f"x^{p!r}", _power_mean(p)))
    # The tent's kink sits left of 0.1, at distance > eps/2 from every
    # interval, so f'''' keeps one sign there and Simpson can certify it.
    c = -round(rng.uniform(0.0, 0.5), 3)
    eps = round(rng.uniform(0.05, 0.19), 3)
    pool.append((f"hyp(x - ({c!r}), {eps!r})", _hyp_mean(c, eps)))

    ops = []
    for _ in range(1000):
        if rng.random() < 0.7:
            src, mean_fn = rng.choice(pool)
            a = rng.uniform(0.1, 4.5)
            b = rng.uniform(a + 0.05, 5.0)
            ops.append(_enclose(src, mean_fn, a, b, rng.choice(("classic", "n14", "simpson"))))
        else:
            # max/min stays under 100: past about 480 the identric bracket
            # overflows (see KNOWN_DEFECTS).
            a = 10.0 ** rng.uniform(-3.0, 3.0)
            b = a * 10.0 ** rng.uniform(-2.0, 2.0)
            kind = rng.choice(tuple(MEAN_TARGETS))
            target, scale = MEAN_TARGETS[kind]
            argv = ("--json", "means", f"--a={a!r}", f"--b={b!r}", f"--enclose={kind}")
            ops.append(Op(argv, "means", (target(a, b), scale(a, b))))
    return ops


ADAPTIVE_CASES = [
    ("exp(x)", 0.0, 1.0),
    ("1/x", 1.0, 2.0),
    ("x*log(x)", 0.5, 2.0),
    ("-log(x)", 0.5, 3.0),
    ("x^2.5", 0.1, 2.0),
    ("exp(x) + x^2", -1.0, 1.0),
]

# The tightest pair of tolerances at which all six cases answer within
# --tol; at 3e-10 `exp(x)` comes back wider (see KNOWN_DEFECTS).
ADAPTIVE_TOLS = (1e-9, 5e-10)


def _adaptive_means() -> dict[str, MeanFn]:
    means = dict(FIXED_INTEGRANDS)
    means["x^2.5"] = _power_mean(2.5)
    return means


def adaptive_tight(seed: int) -> list[Op]:
    """Six integrands at tol 1e-9 and 5e-10; the seed only sets the order."""
    means = _adaptive_means()
    ops = [
        _enclose(src, means[src], a, b, "adaptive", tol)
        for src, a, b in ADAPTIVE_CASES
        for tol in ADAPTIVE_TOLS
    ]
    random.Random(f"adaptive-tight:{seed}").shuffle(ops)
    return ops


VERIFY_PROPERTIES = 26

# The first four suite seeds, counting from 1, on which `verify --suite all
# --samples 200` passes every property.  Seeds 2, 5 and 7 (about one in
# three) end in the identric overflow; see KNOWN_DEFECTS.
VERIFY_SEEDS = (1, 3, 4, 6)


def _verify(seed: int) -> Op:
    argv = ("--json", "verify", "--suite=all", "--samples=200", f"--seed={seed}")
    return Op(argv, "verify", (VERIFY_PROPERTIES,))


def verify_all(seed: int) -> list[Op]:
    """`verify --suite all --samples 200` on VERIFY_SEEDS, in an order set by
    the run's seed.

    The suite's cost moves by up to 40% with its own seed, through the
    random corpus, so a fixed set keeps the run's seed from setting its time.
    """
    ops = [_verify(s) for s in VERIFY_SEEDS]
    random.Random(f"verify-all:{seed}").shuffle(ops)
    return ops


# The first three search seeds, counting from 1, whose power-combo witness
# is convex.  Most seeds (49 of 59 from 1) return a witness just past the
# feasibility edge; see KNOWN_DEFECTS.
SEARCH_SEEDS = (1, 2, 3)


def _search(seed: int) -> Op:
    argv = ("--json", "search-alpha", "--family=power-combo", "--budget=400", f"--seed={seed}")
    return Op(argv, "search", ())


def search_alpha(seed: int) -> list[Op]:
    """Power-combo searches at budget 400 on SEARCH_SEEDS, in an order set by
    the run's seed; a search's cost moves by up to 2x with its own seed."""
    ops = [_search(s) for s in SEARCH_SEEDS]
    random.Random(f"search-alpha:{seed}").shuffle(ops)
    return ops


def known_defects(seed: int) -> list[Op]:
    """One call for each defect that keeps inputs out of the workloads above.

    Every call here fails at the commit that added it.  It is not in
    BENCHMARK.json, whose workloads must answer every call; run it by name
    to see whether a defect is still there.
    """
    means = _adaptive_means()
    return [
        Op(("--json", "means", "--a=1.0", "--b=1000.0", "--enclose=I"), "means",
           (identric_mean(1.0, 1000.0), identric_mean(1.0, 1000.0))),
        _enclose("exp(x)", means["exp(x)"], 0.0, 1.0, "adaptive", 3e-10),
        _enclose("exp(x) + x^2", means["exp(x) + x^2"], -1.0, 1.0, "adaptive", 1e-10),
        _verify(2),
        _verify(772164985),
        _search(4),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "query-mix": query_mix,
    "adaptive-tight": adaptive_tight,
    "verify-all": verify_all,
    "search-alpha": search_alpha,
}

# Run by name only; not part of BENCHMARK.json.
EXTRA_WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "known-defects": known_defects,
}
