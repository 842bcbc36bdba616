"""Command line front end.

Subcommands: enclose, defect, means, ratio, search-alpha, verify.  Every run
emits a report with a fixed shape (command, inputs, outputs, citations,
status) either as an aligned table or, with --json, as deterministic JSON
whose bytes depend only on the arguments.  Exit codes: 0 on success, 1 when
a checked bound or suite is violated, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Any

from . import bounds
from .core import BudgetError, DomainError, Interval, ParseError
from .expr import eval_value, parse
from .means import BRACKETS, all_means
from .quadrature import integrate_mean
from .search import SearchError, best_constant_search, f_ratio
from .verify import SUITE_NAMES, run_suite

_CONTAIN_SLACK = 1e-9


# --- subcommand handlers ------------------------------------------------------


def _run_enclose(args) -> tuple[dict[str, Any], list[str], str]:
    node = parse(args.f)
    iv = Interval(args.a, args.b)
    method = args.method
    tol = args.tol
    citations = ["hermite-hadamard"]
    prof = bounds.convexity_profile(node, iv).certified_convex()
    if method == "classic":
        encl = bounds.classic_hh(node, iv)
    elif method == "n14":
        fm = eval_value(node, iv.mid)
        encl = bounds.Enclosure(fm, bounds.bisected_trapezoid(node, iv))
        citations.append("bisected-trapezoid")
    elif method == "simpson":
        one_sided = bounds.simpson_one_sided_bound(node, iv, prof)
        defect = bounds.simpson_defect_bound(node, iv, prof)
        if one_sided.is_upper:
            encl = bounds.Enclosure(one_sided.value - defect.upper, one_sided.value)
        else:
            encl = bounds.Enclosure(one_sided.value, one_sided.value + defect.upper)
        citations = ["simpson-one-sided", "simpson-defect"]
    else:
        encl = bounds.adaptive_enclosure(node, iv, tol if tol is not None else 1e-6, prof)
        citations.append("adaptive-refinement")
    outputs = {
        "method": method,
        "lower": encl.lower,
        "upper": encl.upper,
        "width": encl.width,
        "f_convex": prof.f_convex,
        "f2_shape": prof.f2_shape,
    }
    return outputs, citations, "ok"


def _run_defect(args) -> tuple[dict[str, Any], list[str], str]:
    node = parse(args.f)
    iv = Interval(args.a, args.b)
    prof = bounds.convexity_profile(node, iv).certified_convex()
    mean = integrate_mean(node, iv, 1e-10).value
    citations, defect = bounds.DEFECTS[args.theorem]
    encl, observed = defect(node, iv, prof, mean)
    contained = encl.contains(observed, slack=_CONTAIN_SLACK * (1.0 + abs(observed)))
    outputs = {
        "theorem": args.theorem,
        "lower": encl.lower,
        "upper": encl.upper,
        "observed": observed,
        "contained": contained,
        "f2_shape": prof.f2_shape,
    }
    status = "ok" if contained else "violated"
    return outputs, list(citations), status


def _run_means(args) -> tuple[dict[str, Any], list[str], str]:
    ms = all_means(args.a, args.b)
    outputs: dict[str, Any] = dict(ms.as_dict())
    citations = ["elementary-means"]
    status = "ok"
    if args.enclose is not None:
        citation, bracket = BRACKETS[args.enclose]
        encl, target = bracket(args.a, args.b, ms, args.printed_constant)
        citations.append(citation)
        contained = encl.contains(target, slack=_CONTAIN_SLACK * (1.0 + abs(target)))
        outputs.update(
            {
                "enclose": args.enclose,
                "lower": encl.lower,
                "upper": encl.upper,
                "width": encl.width,
                "target": target,
                "contained": contained,
            }
        )
        if not contained:
            status = "violated"
    return outputs, citations, status


def _run_ratio(args) -> tuple[dict[str, Any], list[str], str]:
    node = parse(args.f)
    iv = Interval(args.a, args.b)
    report = f_ratio(node, iv)
    outputs = {
        "value": report.value,
        "numerator": report.numerator,
        "denominator": report.denominator,
        "degenerate": report.degenerate,
    }
    return outputs, ["midpoint-ratio"], "ok"


def _run_search_alpha(args) -> tuple[dict[str, Any], list[str], str]:
    result = best_constant_search(args.family, args.budget, args.seed)
    outputs = {
        "family": result.family,
        "best_ratio": result.best_ratio,
        "witness": list(result.witness),
        "evaluations": result.evaluations,
        "seed": result.seed,
    }
    return outputs, ["best-constant-search"], "ok"


def _run_verify(args) -> tuple[dict[str, Any], list[str], str]:
    results = run_suite(args.suite, args.samples, args.seed, args.printed_constant)
    failed = [r for r in results if not r.passed]
    outputs = {
        "suite": args.suite,
        "samples": args.samples,
        "seed": args.seed,
        "printed_constant": args.printed_constant,
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "properties": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    return outputs, ["verification-suite"], "ok" if not failed else "failed"


# --- report rendering ---------------------------------------------------------


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.9g}"
    if value is None:
        return "none"
    return str(value)


def _print_table(report: dict[str, Any]) -> None:
    print(f"command: {report['command']}")
    print(f"status:  {report['status']}")
    for section in ("inputs", "outputs"):
        print(f"{section}:")
        for key, value in report[section].items():
            if key == "properties":
                for prop in value:
                    mark = "PASS" if prop["passed"] else "FAIL"
                    print(f"  {mark}  {prop['name']}: {prop['detail']}")
            else:
                print(f"  {key} = {_fmt_value(value)}")
    print("citations: " + ", ".join(report["citations"]))


def _emit(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2, allow_nan=False) + "\n")
    else:
        _print_table(report)


# --- argument parsing ---------------------------------------------------------


def _finite_float(text: str) -> float:
    """argparse type for --a, --b and --tol: no command can use inf or nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhbounds",
        description="Certified enclosures of mean values of convex integrands.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fab(p):
        p.add_argument("--f", required=True, help="integrand expression in x")
        p.add_argument("--a", type=_finite_float, required=True)
        p.add_argument("--b", type=_finite_float, required=True)

    p = sub.add_parser("enclose", help="two-sided enclosure of the mean value")
    add_fab(p)
    p.add_argument(
        "--method",
        choices=("classic", "n14", "simpson", "adaptive"),
        default="n14",
    )
    p.add_argument("--tol", type=_finite_float, default=None, help="width target for adaptive")
    p.set_defaults(run=_run_enclose)

    p = sub.add_parser("defect", help="defect sandwich check against the oracle")
    add_fab(p)
    p.add_argument("--theorem", type=int, choices=tuple(bounds.DEFECTS), required=True)
    p.set_defaults(run=_run_defect)

    p = sub.add_parser("means", help="elementary means and certified brackets")
    p.add_argument("--a", type=_finite_float, required=True)
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--enclose", choices=tuple(BRACKETS), default=None)
    p.add_argument("--printed-constant", action="store_true")
    p.set_defaults(run=_run_means)

    p = sub.add_parser("ratio", help="midpoint defect ratio of an integrand")
    add_fab(p)
    p.set_defaults(run=_run_ratio)

    p = sub.add_parser("search-alpha", help="seeded search for the largest ratio")
    p.add_argument("--family", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(run=_run_search_alpha)

    p = sub.add_parser("verify", help="run seeded property suites")
    p.add_argument("--suite", choices=(*SUITE_NAMES, "all"), required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--printed-constant", action="store_true")
    p.set_defaults(run=_run_verify)
    return parser


def _inputs_dict(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "json", "run"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    report: dict[str, Any] = {
        "command": args.command,
        "inputs": _inputs_dict(args),
        "outputs": {},
        "citations": [],
        "status": "ok",
    }
    try:
        outputs, citations, status = args.run(args)
        for key, value in outputs.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"output {key!r} is not finite ({value})")
    except (ParseError, DomainError, BudgetError, SearchError, ValueError, OverflowError) as exc:
        report["outputs"] = {"error": str(exc)}
        report["status"] = "error"
        code = 2
    else:
        report["outputs"] = outputs
        report["citations"] = citations
        report["status"] = status
        code = 0 if status == "ok" else 1
    try:
        _emit(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Send what is still buffered to /dev/null so
        # the flush at exit cannot fail again, and keep the command's code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
