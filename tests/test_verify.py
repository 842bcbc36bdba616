import pytest

from hhbounds import SUITE_NAMES, run_suite


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


def test_determinism():
    r1 = run_suite("inequalities", samples=25, seed=6)
    r2 = run_suite("inequalities", samples=25, seed=6)
    assert [(r.name, r.passed, r.detail) for r in r1] == [
        (r.name, r.passed, r.detail) for r in r2
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("everything", samples=10, seed=1)
