"""hhbounds benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Run from the root of the repository:

    python3 bench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1                 # all four, one process each

Each workload calls `hhbounds.cli.main([...])` in this process, closed loop
with one client, and checks every answer against closed forms computed in
`workloads.py`.  `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer ones from a traced pass (see `spans.py`).  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from workloads import EXTRA_WORKLOADS, WORKLOADS, judge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_ARGV = ["--json", "enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=n14"]
SETUP_RUNS = 31
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import hhbounds, hhbounds.cli
with contextlib.redirect_stdout(io.StringIO()):
    hhbounds.cli.main(sys.argv[2:])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "jets.eval_jet.calls_f2_only": "count",
            "bounds.adaptive_enclosure.evals": "count",
            "bounds.convexity_profile.samples": "count",
            "quadrature.evaluations": "count",
            "search.feasible_ratio": "ratio",
            "trace.overhead": "ratio",
        }
    )
    return units


# --- measurement -------------------------------------------------------------


def _series_kernel() -> tuple:
    """Fixed work shaped like the program's jet arithmetic: small float
    tuples, generator sums and calls.  It must never import hhbounds, so a
    change to the program cannot change it."""
    x = (0.5, 1.0, 0.0, 0.0, 0.0)
    acc = (1.0, 0.0, 0.0, 0.0, 0.0)
    for _ in range(320):
        acc = tuple(sum(acc[i] * x[k - i] for i in range(k + 1)) for k in range(5))
        acc = tuple(v / (1.0 + abs(v)) for v in acc)
    return acc


class SpeedProbe:
    """Tracks the CPU's speed with a fixed kernel while the workload runs.

    On a shared host the CPU's speed drifts, by up to 1.5x for minutes at a
    time, as other tenants come and go; a median over one run cannot hide
    that.  Inside `with probe:` a SIGALRM every PERIOD_S seconds runs
    `_series_kernel` once, in the main thread, and records when and how
    long.  A call's time is then its wall time minus the probes that ran
    inside it, times REF_S / (median probe time during the call, or next
    to it for a short call): seconds at the reference speed.  REF_S is
    about the kernel's time on the 2-vCPU x86-64 VM of the first
    record in README.md when other tenants do not slow it.
    """

    PERIOD_S = 0.05
    REF_S = 0.0013
    NEAR = 3

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        _series_kernel()
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(self.NEAR):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] outside the probe, at reference speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.samples[i:j])
        near = self.samples[i:j] if j - i >= self.NEAR else self.samples[max(0, i - self.NEAR) : j + self.NEAR]
        return busy * self.REF_S / statistics.median(near)


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter until hhbounds is imported
    and one first CLI call has returned."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *SETUP_ARGV],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed with exit code {proc.returncode}")
    return elapsed


def measure_setups() -> tuple[float, float]:
    """Median set-up time, raw and at reference speed, over SETUP_RUNS starts.

    The probe runs just before each start rather than on a timer, so it does
    not compete with the child for the CPU."""
    probe = SpeedProbe()
    raw = []
    for _ in range(SETUP_RUNS):
        for _ in range(10):
            probe.sample()
        raw.append(measure_setup())
    setup = statistics.median(raw)
    return setup, setup * SpeedProbe.REF_S / statistics.median(probe.samples)


def call_cli(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is an answer too: count it
            return -1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_pass(main, ops, tracer=None) -> list[tuple[float, float, str | None]]:
    """One closed-loop pass over ops: [(start, end, failure cause)] per call."""
    gc.collect()
    replies = []
    for i, op in enumerate(ops):
        start = time.perf_counter()
        if tracer is None:
            code, out = call_cli(main, op.argv)
        else:
            code, out = tracer.root(i, call_cli, main, op.argv)
        replies.append((start, time.perf_counter(), code, out))
    return [
        (start, end, "exception" if code == -1 else judge(op, code, out))
        for op, (start, end, code, out) in zip(ops, replies)
    ]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def timed_passes(main, ops, seconds: float):
    """Repeat passes until `seconds` have elapsed; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(main, ops))
    return passes


def wall(results) -> float:
    return sum(end - start for start, end, _ in results)


# --- reporting ---------------------------------------------------------------


def outcome(passes) -> tuple[bool, int, Counter]:
    causes = Counter(cause for results in passes for _, _, cause in results if cause)
    attempted = sum(len(results) for results in passes)
    correct = causes["wrong"] == 0 and causes["exception"] == 0
    return correct, attempted, causes


def end_to_end(main, ops, seconds: float) -> tuple[dict, list]:
    setup_raw, setup = measure_setups()
    with SpeedProbe() as probe:
        passes = timed_passes(main, ops, seconds)
    times = [[probe.scaled(start, end) for start, end, _ in results] for results in passes]
    raw_wall = statistics.median(wall(results) for results in passes)
    # Each call's latency is its median over the passes, which keeps a burst
    # of load from another process out of the percentiles.
    latencies = [1e3 * statistics.median(t[i] for t in times) for i in range(len(ops))]
    metrics = {
        "setup_s": setup,
        "wall_s": statistics.median(sum(t) for t in times),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = len(latencies) - math.ceil(0.99 * len(latencies))
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters; raw {setup_raw:.4g} s",
        "wall_s": f"median of {len(passes)} passes of {len(ops)} calls; raw {raw_wall:.4g} s",
        "latency_p50_ms": f"{len(latencies)} calls, each its median over {len(passes)} passes",
        "latency_p99_ms": f"{len(latencies)} calls, {beyond} beyond",
        "peak_rss_mb": "this process",
    }
    return {k: (v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()}, passes


def per_layer(package, main, ops, seconds: float) -> tuple[dict, list]:
    """Per-layer counts and raw self times, from rounds of one untraced and
    one traced pass.  The probe stays off: its samples would land inside
    the spans.  Each round's traced / untraced wall is one overhead sample;
    the two passes run back to back, so a drift in CPU speed mostly cancels.
    """
    tracer = spans.Tracer(package)
    passes, summaries, ratios = [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        plain = run_pass(main, ops)
        tracer.spans.clear()
        tracer.install()
        try:
            traced = run_pass(main, ops, tracer)
        finally:
            tracer.uninstall()
        passes += [plain, traced]
        summaries.append(tracer.summary())
        ratios.append(wall(traced) / wall(plain))
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    units = per_layer_units()
    metrics = {}
    for name, value in summaries[0].items():
        if name.endswith(".self_s"):
            value = statistics.median(s[name] for s in summaries)
        metrics[name] = (value, units[name], "")
    metrics["trace.overhead"] = (
        statistics.median(ratios),
        "ratio",
        f"median over {len(ratios)} rounds of traced / untraced wall"
        + ("" if all(c == counts[0] for c in counts) else "; COUNTS DIFFER BETWEEN PASSES"),
    )
    return metrics, passes


def print_report(workload: str, seed: int, metrics: dict, passes) -> dict:
    correct, attempted, causes = outcome(passes)
    failed = sum(causes.values())
    print(f"workload {workload}  seed {seed}  passes {len(passes)}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    split = ", ".join(f"{cause} {n}" for cause, n in sorted(causes.items())) or "none"
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ratio  {failed}/{attempted} ({split})")
    print(f"  {'correct':<40} {'yes' if correct else 'NO':>14}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


# --- entry point -------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: int, trace: int) -> int:
    if not (SRC / "hhbounds" / "__init__.py").is_file():
        print(f"error: hhbounds sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import hhbounds
    import hhbounds.cli

    main = hhbounds.cli.main
    ops = {**WORKLOADS, **EXTRA_WORKLOADS}[workload](seed)
    call_cli(main, SETUP_ARGV)  # warm-up, untimed
    if trace:
        metrics, passes = per_layer(hhbounds, main, ops, seconds)
    else:
        metrics, passes = end_to_end(main, ops, seconds)
    result = print_report(workload, seed, metrics, passes)
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in a fresh interpreter, so no peak memory hides another."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, *EXTRA_WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
