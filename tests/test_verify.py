import itertools
from types import SimpleNamespace

import pytest

from hhbounds import SUITE_NAMES, bounds, run_suite, verify
from hhbounds.bounds import IdentityCheck, OneSidedBound, SimpsonEstimate
from hhbounds.core import Enclosure
from hhbounds.means import MeanSet
from hhbounds.quadrature import QuadResult
from hhbounds.search import CounterexampleReport, RatioReport


def test_suite_names():
    assert SUITE_NAMES == ("identities", "inequalities", "means")


def test_all_suites_pass_at_small_sample_count():
    results = run_suite("all", samples=30, seed=2)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    for prefix in SUITE_NAMES:
        assert any(n.startswith(prefix + ":") for n in names)
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.name, r.detail) for r in bad]


def test_single_suite_runs_only_its_properties():
    results = run_suite("means", samples=20, seed=4)
    assert results
    assert all(r.name.startswith("means:") for r in results)


def test_printed_constant_flag_fails_identric_property():
    results = run_suite("means", samples=20, seed=4, printed_constant=True)
    bad = [r for r in results if not r.passed]
    assert bad
    assert any("identric" in r.name for r in bad)
    assert all(r.detail for r in bad)


def test_means_suite_survives_identric_overflow():
    # seed 2 draws pairs whose identric bracket factor exceeds the float range
    results = run_suite("means", samples=200, seed=2)
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.name, r.detail) for r in bad]


def test_identities_pass_at_the_seed_that_broke_the_simpson_oracle():
    # seed 772164985 draws -log(x) on [0.318818443, 4.50592161], whose kernel
    # integral the adaptive-Simpson oracle got wrong by 1.17e-8
    results = run_suite("identities", samples=200, seed=772164985)
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.name, r.detail) for r in bad]


def test_determinism():
    r1 = run_suite("inequalities", samples=25, seed=6)
    r2 = run_suite("inequalities", samples=25, seed=6)
    assert [(r.name, r.passed, r.detail) for r in r1] == [
        (r.name, r.passed, r.detail) for r in r2
    ]


def test_a_single_identity_call_before_a_run_leaves_its_oracle_calls_alone(monkeypatch):
    # the library keeps nothing between calls: the run's integrate_mean calls are
    # the same with or without a check of its first case, at its tol, just before
    calls = []

    def counted(integrate):
        return lambda *args, **kwargs: calls.append(args) or integrate(*args, **kwargs)

    for module in (bounds, verify):
        monkeypatch.setattr(module, "integrate_mean", counted(module.integrate_mean))
    run_suite("identities", 3, 1)
    cold = len(calls)
    case = verify._Context(3, 1, False).cases[0]
    bounds.bisected_trapezoid_identity_residual(case.node, case.iv, tol=1e-9)
    calls.clear()
    run_suite("identities", 3, 1)
    assert len(calls) == cold


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", samples=10, seed=1)


def test_defect_sandwich_fails_with_a_wrong_mid_side_constant(monkeypatch):
    # theorem 2's mid side len^2/48 f''(mid) read as len^2/40 f''(mid): the
    # containment rule's slack must not hide a wrong constant
    sandwich = bounds._sandwich

    def mid_side_over_40(*panel):
        lo, hi = sandwich(*panel)
        return (lo * 48.0 / 40.0, hi) if panel[-1] == "convex" else (lo, hi * 48.0 / 40.0)

    monkeypatch.setattr(bounds, "_sandwich", mid_side_over_40)
    props = [p for p in verify.SUITES["inequalities"] if p[0] == "defect-sandwich"]
    monkeypatch.setitem(verify.SUITES, "inequalities", props)
    [result] = run_suite("inequalities", samples=200, seed=1)
    assert (result.name, result.passed) == ("inequalities:defect-sandwich", False)
    assert result.detail.startswith("defect ") and " outside sandwich for " in result.detail


# --- fault injection ------------------------------------------------------------


def _returns(value):
    return lambda: lambda *args, **kwargs: value


def _each_call(values):
    """A stand-in maker whose stand-in returns values in turn, one per call."""

    def make():
        it = itertools.cycle(values)
        return lambda *args, **kwargs: next(it)

    return make


_AT_1_OVER_X = "for 1/x on [2.60449705, 4.53621212]"
_MEAN_IS_B = lambda: lambda node, iv, tol=1e-10: QuadResult(iv.b, 0.0, 0)
_DEFECT_OUTSIDE = ("x", lambda *args: (Enclosure(0.0, 0.0), 1.0, False))

# (property, module, name, make, detail): with make() in place of module.name,
# the property run alone at samples=3, seed=1 fails with this detail.
_FAULTS = [
    (
        "identities:oracle-cubic-exactness",
        verify,
        "integrate_mean",
        _MEAN_IS_B,
        "cubic mean off by 1.214e+01 at trial 0",
    ),
    (
        "identities:oracle-additivity",
        verify,
        "integrate_mean",
        _MEAN_IS_B,
        f"additivity off by 4.646e-01 {_AT_1_OVER_X}",
    ),
    (
        "identities:oracle-closed-forms",
        verify,
        "integrate_mean",
        _MEAN_IS_B,
        "exp(x) on [2.38322,4.61288] off by -3.572e+01",
    ),
    (
        "identities:bisected-trapezoid-identity",
        bounds,
        "identity_residuals",
        _returns({"bisected-trapezoid": IdentityCheck(0.0, 0.0, 1.0), "simpson": None}),
        f"residual 1.000e+00 {_AT_1_OVER_X}",
    ),
    (
        "identities:simpson-identity",
        bounds,
        "identity_residuals",
        _returns({"bisected-trapezoid": None, "simpson": IdentityCheck(0.0, 0.0, 1.0)}),
        f"residual 1.000e+00 {_AT_1_OVER_X}",
    ),
    (
        "identities:affine-exactness",
        bounds,
        "simpson_value",
        _returns(1e300),
        "affine bound drifted at trial 0",
    ),
    (
        "identities:ratio-affine-invariance",
        verify,
        "f_ratio",
        _each_call([RatioReport.of(1.0, 0.0, 1.0, mean) for mean in (0.1, 0.2)]),
        f"ratio moved under affine map {_AT_1_OVER_X}",
    ),
    (
        "identities:parse-print-roundtrip",
        verify,
        "to_source",
        _each_call(["x", "x+1"]),
        "round-trip changed tree for 'x'",
    ),
    (
        "identities:jet-polynomial-exactness",
        verify,
        "eval_jet",
        _returns(SimpleNamespace(derivatives=(0.0,) * 5)),
        "order-0 derivative off at trial 0",
    ),
    (
        "inequalities:classic-containment",
        bounds,
        "bisected_trapezoid",
        _returns(-1e300),
        f"containment chain broken {_AT_1_OVER_X}",
    ),
    (
        "inequalities:weight-monotonicity",
        bounds,
        "weighted_value",
        lambda: lambda node, iv, w: -w.endpoint_weight,
        f"weight monotonicity broken {_AT_1_OVER_X}",
    ),
    (
        "inequalities:defect-sandwich",
        bounds,
        "DEFECTS",
        lambda: {**bounds.DEFECTS, 2: _DEFECT_OUTSIDE},
        f"defect 1 outside sandwich {_AT_1_OVER_X}",
    ),
    (
        "inequalities:simpson-defect-bound",
        bounds,
        "DEFECTS",
        lambda: {**bounds.DEFECTS, 4: _DEFECT_OUTSIDE},
        f"oriented defect 1 outside bound {_AT_1_OVER_X}",
    ),
    (
        "inequalities:simpson-direction",
        bounds,
        "simpson_one_sided_bound",
        _returns(OneSidedBound(-1e300, True)),
        f"one-sided direction wrong {_AT_1_OVER_X}",
    ),
    (
        "inequalities:simpson-error-bound",
        bounds,
        "simpson_estimate",
        _returns(SimpsonEstimate(1e300, 0.0)),
        f"error exceeds bound {_AT_1_OVER_X}",
    ),
    (
        "inequalities:symmetric-triple",
        bounds,
        "symmetric_point_triple",
        _returns((1.0, 0.0, 2.0)),
        f"triple not ordered at t=0.256542 {_AT_1_OVER_X}",
    ),
    (
        "inequalities:ratio-range",
        verify,
        "RatioReport",
        lambda: SimpleNamespace(of=lambda *args: RatioReport(1.0, 1.0, 1.0, False)),
        f"ratio 1 out of range {_AT_1_OVER_X}",
    ),
    (
        "inequalities:left-counterexample-grid",
        verify,
        "left_counterexample",
        _returns(CounterexampleReport(0.0, 0.0, False)),
        "no violation at gamma=0.0198",
    ),
    (
        "means:means-chain",
        verify,
        "all_means",
        _returns(SimpleNamespace(harmonic=2.0, gini=1.0)),
        "chain inverted for (256.542686722172, 288.05733249553583)",
    ),
    (
        "means:means-symmetry-homogeneity",
        verify,
        "all_means",
        lambda: lambda a, b: MeanSet(*[a] * 6),
        "harmonic not symmetric at (256.543, 288.057)",
    ),
    (
        "means:means-symmetry-homogeneity",
        verify,
        "all_means",
        lambda: lambda a, b: MeanSet(*[min(a, b) ** 2] * 6),
        "harmonic not homogeneous at (256.543, 288.057), k=0.37",
    ),
    (
        "means:log-mean-bracket",
        verify,
        "BRACKETS",
        lambda: {**verify.BRACKETS, "L": ("x", lambda *args: (Enclosure(0.0, 1.0), 2.0))},
        "target 2 escaped [0, 1] at (256.542687, 288.057332)",
    ),
    (
        "means:upper-below-arithmetic",
        verify,
        "all_means",
        _returns(SimpleNamespace(arithmetic=1.0, geometric=2.0)),
        "(A+2G)/3 above A at (256.543, 288.057)",
    ),
    (
        "means:means-cross-module",
        verify,
        "reciprocal_log_mean_defect",
        _returns(Enclosure(0.0, 1.0)),
        "reciprocal defect mismatch at (1.17486, 2.31854)",
    ),
    (
        "means:means-cross-module",
        verify,
        "log_mean_enclosure",
        _returns(Enclosure(0.0, 1.0)),
        "log-mean correction mismatch at (1.17486, 2.31854)",
    ),
    (
        "means:means-cross-module",
        verify,
        "identric_enclosure",
        _returns(Enclosure(1.0, 2.0)),
        "identric exponent mismatch at (1.17486, 2.31854)",
    ),
]


@pytest.mark.parametrize(
    "prop, module, name, make, detail", _FAULTS, ids=[f"{p}-{n}" for p, _, n, _, _ in _FAULTS]
)
def test_a_faulty_function_fails_the_property_that_checks_it(
    monkeypatch, prop, module, name, make, detail
):
    # the suite is cut down to the one property, whose check the stand-in breaks
    suite, _, short = prop.partition(":")
    monkeypatch.setitem(verify.SUITES, suite, [p for p in verify.SUITES[suite] if p[0] == short])
    monkeypatch.setattr(module, name, make())
    [result] = run_suite(suite, samples=3, seed=1)
    assert (result.name, result.passed) == (prop, False)
    assert result.detail == detail
