"""Self-checks of the benchmark itself.

Run from the root of the repository:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hhbounds  # noqa: E402
import hhbounds.cli  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def traced_summary(ops):
    tracer = spans.Tracer(hhbounds)
    tracer.install()
    try:
        run.run_pass(hhbounds.cli.main, ops, tracer)
    finally:
        tracer.uninstall()
    return tracer


def counts(summary):
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


def simpson_mean(f, a, b, panels=20000):
    h = (b - a) / panels
    total = f(a) + f(b)
    total += 4.0 * sum(f(a + (2 * i + 1) * h / 2.0) for i in range(panels))
    total += 2.0 * sum(f(a + i * h) for i in range(1, panels))
    return total * h / 6.0 / (b - a)


class CountsRepeat(unittest.TestCase):
    # A prefix of each workload keeps the test short; the counters are
    # per call, so a prefix repeats exactly when the whole pass does.
    PREFIX = {"query-mix": 200, "adaptive-tight": 4, "verify-all": 1, "search-alpha": 1}

    def test_two_traced_runs_of_one_seed_agree(self):
        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                ops = build(7)[: self.PREFIX[name]]
                first = counts(traced_summary(ops).summary())
                second = counts(traced_summary(build(7)[: self.PREFIX[name]]).summary())
                self.assertEqual(first, second)
                self.assertEqual(first["cli.main.calls"], len(ops))

    def test_uninstall_restores_every_name(self):
        before = {m: dict(vars(getattr(hhbounds, m))) for m in spans.CALLERS}
        traced_summary(workloads.query_mix(1)[:5])
        after = {m: dict(vars(getattr(hhbounds, m))) for m in spans.CALLERS}
        self.assertEqual(before, after)


class SelfTime(unittest.TestCase):
    def test_self_times_add_up_to_the_root_spans(self):
        tracer = traced_summary(workloads.query_mix(3)[:100])
        summary = tracer.summary()
        total = sum(s.duration for s in tracer.spans if s.name == spans.ROOT)
        self_total = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(self_total, total, delta=1e-9 * len(tracer.spans) + 1e-9)
        for layer in spans.LAYERS:
            self.assertGreaterEqual(summary[f"{layer}.self_s"], -1e-9, layer)


class References(unittest.TestCase):
    def test_closed_form_means_match_simpson(self):
        pool = list(workloads.FIXED_INTEGRANDS)
        pool.append(("x^3.7", workloads._power_mean(3.7)))
        pool.append(("hyp", workloads._hyp_mean(-0.2, 0.1)))
        fns = {
            "exp(x)": math.exp,
            "1/x": lambda t: 1.0 / t,
            "-log(x)": lambda t: -math.log(t),
            "x*log(x)": lambda t: t * math.log(t),
            "exp(x) + x^2": lambda t: math.exp(t) + t * t,
            "x^3.7": lambda t: t ** 3.7,
            "hyp": lambda t: math.hypot(t + 0.2, 0.1),
        }
        for src, mean in pool:
            for a, b in ((0.1, 0.4), (0.7, 4.9), (2.0, 2.05)):
                with self.subTest(src=src, a=a, b=b):
                    ref = simpson_mean(fns[src], a, b)
                    self.assertAlmostEqual(mean(a, b), ref, delta=1e-10 * (1.0 + abs(ref)))

    def test_two_argument_means_match_their_definitions(self):
        for a, b in ((0.5, 3.0), (2.0, 700.0), (1.0, 1.001)):
            with self.subTest(a=a, b=b):
                log_mean = (b - a) / (math.log(b) - math.log(a))
                identric = math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
                squares = math.exp(
                    (b * b * math.log(b * b) - a * a * math.log(a * a)) / (b * b - a * a) - 1.0
                )
                arith, harm = (a + b) / 2.0, 2.0 * a * b / (a + b)
                recip = 0.5 * (1.0 / arith + 1.0 / harm) - 1.0 / log_mean
                self.assertAlmostEqual(workloads.log_mean(a, b) / log_mean, 1.0, delta=1e-9)
                self.assertAlmostEqual(workloads.identric_mean(b, a) / identric, 1.0, delta=1e-9)
                self.assertAlmostEqual(workloads.identric_of_squares(a, b) / squares, 1.0, delta=1e-9)
                self.assertAlmostEqual(workloads.reciprocal_defect(a, b), recip, delta=1e-9 / harm)

    def test_power_combo_ratio_and_convexity(self):
        p, c = 3.0, 0.4
        f = lambda t: t ** p - c * t ** 4
        mean = simpson_mean(f, 0.0, 1.0)
        ratio = (mean - f(0.5)) / (f(0.0) + f(1.0) - 2.0 * f(0.5))
        self.assertAlmostEqual(workloads.power_combo_ratio(p, c), ratio, delta=1e-12)
        self.assertTrue(workloads.power_combo_convex(3.0, 0.5))  # f''(1) = 0
        self.assertFalse(workloads.power_combo_convex(3.0, 0.5 + 1e-9))
        self.assertFalse(workloads.power_combo_convex(4.5, 1e-6))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, build in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual([op.argv for op in build(5)], [op.argv for op in build(5)])

    def test_values_are_attached_to_their_options(self):
        for build in (*workloads.WORKLOADS.values(), *workloads.EXTRA_WORKLOADS.values()):
            for op in build(2):
                for token in op.argv[2:]:
                    self.assertTrue(token.startswith("--") and "=" in token, op.argv)

    def test_means_pairs_stay_below_the_overflow_ratio(self):
        for op in workloads.query_mix(4):
            if op.kind == "means":
                a, b = (float(t.split("=")[1]) for t in op.argv[2:4])
                self.assertLessEqual(max(a, b) / min(a, b), 100.0 * (1 + 1e-12), op.argv)

    def test_query_mix_share_and_size(self):
        ops = workloads.query_mix(9)
        enclose = sum(op.kind == "enclose" for op in ops)
        self.assertEqual(len(ops), 1000)
        self.assertTrue(650 <= enclose <= 750, enclose)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END_UNITS
        )
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())
        self.assertEqual(set(workloads.WORKLOADS), {w["name"] for w in spec["workloads"]})
        self.assertFalse(set(workloads.EXTRA_WORKLOADS) & set(workloads.WORKLOADS))

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "query-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
