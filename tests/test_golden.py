"""Byte-for-byte replay of recorded CLI runs.

Each case runs `hhbounds.cli.main(argv)` in this process, once with
`--json` and once in table form, and compares standard output and the
exit code with what is recorded in tests/golden/.  A refactor must leave
every recorded byte unchanged; a change that alters output on purpose
re-records only the entries it means to change:

    PYTHONPATH=src python tests/test_golden.py --record NAME [NAME ...]
    PYTHONPATH=src python tests/test_golden.py --record          # every case

Numbers are passed as `--a=<v>`, because argparse reads `--a -1` as a flag.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hhbounds import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

BASE_CASES: dict[str, tuple[str, ...]] = {
    # enclose: every --method, both Simpson orientations
    "enclose-n14": ("enclose", "--f=exp(x)", "--a=0", "--b=1"),
    "enclose-negative-a": ("enclose", "--f=exp(x)", "--a=-1", "--b=1", "--method=n14"),
    "enclose-classic": ("enclose", "--f=1/x", "--a=1", "--b=2", "--method=classic"),
    "enclose-simpson-upper": ("enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=simpson"),
    "enclose-simpson-lower": ("enclose", "--f=x^2.5", "--a=1", "--b=2", "--method=simpson"),
    "enclose-adaptive": (
        "enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=adaptive", "--tol=1e-8",
    ),
    "enclose-adaptive-default-tol": (
        "enclose", "--f=x*log(x)", "--a=0.5", "--b=3", "--method=adaptive",
    ),
    "enclose-adaptive-tight": (
        "enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=adaptive", "--tol=3e-10",
    ),
    # defect: both theorems, both f'' orientations
    "defect-theorem2": ("defect", "--f=exp(x)", "--a=0", "--b=1", "--theorem=2"),
    "defect-theorem4": ("defect", "--f=exp(x)", "--a=0", "--b=1", "--theorem=4"),
    "defect-theorem2-concave": ("defect", "--f=x^2.5", "--a=1", "--b=2", "--theorem=2"),
    "defect-theorem4-concave": ("defect", "--f=x^2.5", "--a=1", "--b=2", "--theorem=4"),
    # means: plain, every --enclose kind, the printed constant, range edges
    "means": ("means", "--a=1", "--b=2"),
    "means-L": ("means", "--a=1", "--b=2", "--enclose=L"),
    "means-I": ("means", "--a=2", "--b=1", "--enclose=I"),
    "means-Isq": ("means", "--a=1", "--b=2", "--enclose=Isq"),
    "means-recipL": ("means", "--a=0.3", "--b=7.5", "--enclose=recipL"),
    "means-I-printed": ("means", "--a=1", "--b=2", "--enclose=I", "--printed-constant"),
    "means-L-near-equal": ("means", "--a=1", "--b=1.0000001", "--enclose=L"),
    "means-wide-range": ("means", "--a=1e-300", "--b=1e300"),
    "means-I-overflow": ("means", "--a=1", "--b=600", "--enclose=I"),
    # ratio, search-alpha
    "ratio": ("ratio", "--f=exp(x)", "--a=0", "--b=1"),
    "ratio-degenerate": ("ratio", "--f=x", "--a=0", "--b=1"),
    "search-power": ("search-alpha", "--family=power", "--budget=120", "--seed=4"),
    "search-power-combo": ("search-alpha", "--family=power-combo", "--budget=100", "--seed=1"),
    "search-smoothed-tent": ("search-alpha", "--family=smoothed-tent", "--budget=100", "--seed=1"),
    # verify
    "verify-all": ("verify", "--suite=all", "--samples=40"),
    "verify-inequalities": ("verify", "--suite=inequalities", "--samples=25", "--seed=6"),
    "verify-means-printed": (
        "verify", "--suite=means", "--samples=20", "--seed=4", "--printed-constant",
    ),
    # error paths
    "error-parse": ("enclose", "--f=exp(x", "--a=0", "--b=1"),
    "error-nonconvex": ("enclose", "--f=log(x)", "--a=1", "--b=2"),
    "error-domain": ("enclose", "--f=log(x)", "--a=-1", "--b=1"),
    "error-indeterminate-simpson": (
        "enclose", "--f=x^2 + sin(x)", "--a=-1", "--b=1", "--method=simpson",
    ),
    "error-indeterminate-defect": ("defect", "--f=x^2 + sin(x)", "--a=-1", "--b=1", "--theorem=2"),
    "error-equal-interval": ("enclose", "--f=exp(x)", "--a=1", "--b=1"),
    "error-equal-means": ("means", "--a=2", "--b=2", "--enclose=L"),
    "error-nonpositive-means": ("means", "--a=-1", "--b=2"),
    "error-unknown-family": ("search-alpha", "--family=gauss", "--budget=100", "--seed=1"),
    "error-small-budget": ("search-alpha", "--family=power", "--budget=10", "--seed=1"),
    "error-exponent-overflow": ("enclose", "--f=x^exp(1000)", "--a=1", "--b=2"),
    "error-adaptive-budget": (
        "enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=adaptive", "--tol=1e-13",
    ),
    "error-usage": ("enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=gauss"),
}

CASES: dict[str, list[str]] = {}
for _name, _argv in BASE_CASES.items():
    CASES[f"{_name}.json"] = ["--json", *_argv]
    CASES[f"{_name}.table"] = list(_argv)


def replay(argv: list[str]) -> tuple[str, int]:
    """Standard output and exit code of one in-process CLI run.

    An exception that escapes `main` ends a real process with exit code 1
    and a traceback on standard error, so it is recorded as exit code 1.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
    return out.getvalue(), code


def _out_path(name: str) -> Path:
    return GOLDEN / f"{name}.out"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    stdout, code = replay(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert stdout.encode() == _out_path(name).read_bytes()


def test_golden_set_has_no_stale_entries():
    recorded = {p.name[: -len(".out")] for p in GOLDEN.glob("*.out")}
    assert recorded == set(CASES)
    assert set(json.loads(EXIT_CODES.read_text())) == set(CASES)


def _record(names: list[str]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    for name in names or sorted(CASES):
        for full in ([name] if name in CASES else [f"{name}.json", f"{name}.table"]):
            stdout, code = replay(CASES[full])
            _out_path(full).write_bytes(stdout.encode())
            codes[full] = code
    EXIT_CODES.write_text(json.dumps(dict(sorted(codes.items())), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit(__doc__)
    _record(sys.argv[2:])
