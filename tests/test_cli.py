import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from hhbounds import bounds, cli


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hhbounds", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def run_json(*args):
    proc = run_cli("--json", *args)
    report = json.loads(proc.stdout)
    return proc.returncode, report


# --- enclose -----------------------------------------------------------------


def test_enclose_default_method():
    rc, rep = run_json("enclose", "--f", "exp(x)", "--a", "0", "--b", "1")
    assert rc == 0
    assert rep["status"] == "ok"
    assert rep["command"] == "enclose"
    out = rep["outputs"]
    assert out["lower"] == pytest.approx(1.6487213, abs=1e-7)
    assert out["upper"] == pytest.approx(1.7539311, abs=1e-7)
    assert out["f_convex"] == "yes"


def test_enclose_classic_method():
    rc, rep = run_json(
        "enclose", "--f", "1/x", "--a", "1", "--b", "2", "--method", "classic"
    )
    assert rc == 0
    assert rep["outputs"]["lower"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep["outputs"]["upper"] == pytest.approx(0.75, rel=1e-12)


def test_enclose_simpson_method():
    rc, rep = run_json(
        "enclose", "--f", "exp(x)", "--a", "0", "--b", "1", "--method", "simpson"
    )
    assert rc == 0
    out = rep["outputs"]
    assert out["lower"] <= 1.718281828459045 <= out["upper"]


def test_enclose_adaptive_method():
    rc, rep = run_json(
        "enclose",
        "--f", "exp(x)", "--a", "0", "--b", "1",
        "--method", "adaptive", "--tol", "1e-8",
    )
    assert rc == 0
    out = rep["outputs"]
    assert out["upper"] - out["lower"] <= 1e-8
    assert out["lower"] <= 1.718281828459045 <= out["upper"]


def test_enclose_rejects_nonconvex():
    proc = run_cli("enclose", "--f", "log(x)", "--a", "1", "--b", "2")
    assert proc.returncode == 2
    assert "error" in proc.stdout


def test_enclose_rejects_bad_expression():
    rc, rep = run_json("enclose", "--f", "exp(x", "--a", "0", "--b", "1")
    assert rc == 2
    assert rep["status"] == "error"
    assert "offset" in rep["outputs"]["error"]


def test_enclose_rejects_unknown_method():
    proc = run_cli("enclose", "--f", "exp(x)", "--a", "0", "--b", "1",
                   "--method", "gauss")
    assert proc.returncode == 2  # argparse rejects the choice


def test_json_output_is_reproducible():
    args = ("--json", "enclose", "--f", "exp(x)", "--a", "0", "--b", "1")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2
    assert out1.endswith("\n")


# --- defect ------------------------------------------------------------------


def test_defect_bisected_trapezoid():
    rc, rep = run_json(
        "defect", "--f", "exp(x)", "--a", "0", "--b", "1", "--theorem", "2"
    )
    assert rc == 0
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["lower"] == pytest.approx(0.0343484, abs=1e-7)
    assert out["upper"] == pytest.approx(0.0387321, abs=1e-7)
    assert out["observed"] == pytest.approx(0.0356493, abs=1e-7)


def test_defect_simpson():
    rc, rep = run_json(
        "defect", "--f", "exp(x)", "--a", "0", "--b", "1", "--theorem", "4"
    )
    assert rc == 0
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["lower"] == 0.0
    assert out["upper"] == pytest.approx(0.0012989, abs=1e-7)
    assert out["observed"] == pytest.approx(0.0005793, abs=1e-7)


@pytest.mark.parametrize("theorem", [2, 4])
@pytest.mark.parametrize("c", ["1e7", "1e12"])
def test_defect_of_a_quadratic_on_a_large_constant_is_contained(c, theorem, capsys):
    # both theorems hold exactly for a quadratic; the observed defect is off by
    # the oracle mean's rounding, which scales with c (an ulp of 1e12 is 1.2e-4),
    # not with the defect: a slack of 1e-9 (1 + |observed|) read "violated"
    argv = ["--json", "defect", f"--f={c} + x^2", "--a=0", "--b=1", f"--theorem={theorem}"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["outputs"]["contained"] is True
    assert err == ""


# --- means -------------------------------------------------------------------


def test_means_table_lists_all_six():
    proc = run_cli("means", "--a", "1", "--b", "2")
    assert proc.returncode == 0
    for token in (
        "harmonic = 1.33333333",
        "geometric = 1.41421356",
        "logarithmic = 1.44269504",
        "identric = 1.47151776",
        "arithmetic = 1.5",
        "gini = 1.58740105",
    ):
        assert token in proc.stdout, token


def test_means_enclose_log_mean():
    rc, rep = run_json("means", "--a", "1", "--b", "2", "--enclose", "L")
    assert rc == 0
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["lower"] <= out["target"] <= out["upper"]


def test_means_enclose_reciprocal_defect():
    rc, rep = run_json("means", "--a", "1", "--b", "2", "--enclose", "recipL")
    assert rc == 0
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["target"] == pytest.approx(0.015186152773388024, rel=1e-9)


def test_means_enclose_identric_squares():
    rc, rep = run_json("means", "--a", "1", "--b", "2", "--enclose", "Isq")
    assert rc == 0
    assert rep["outputs"]["contained"] is True
    assert rep["outputs"]["target"] == pytest.approx(2.3358888476520836, rel=1e-9)


def test_means_printed_constant_flag_flips_exit_code():
    rc, rep = run_json(
        "means", "--a", "1", "--b", "2", "--enclose", "I", "--printed-constant"
    )
    assert rc == 1
    assert rep["status"] == "violated"
    assert rep["outputs"]["contained"] is False
    assert rep["outputs"]["upper"] < rep["outputs"]["target"]


@pytest.mark.parametrize("b, identric", [(600.0, 223.09752407602338), (1000.0, 370.4320210413378)])
def test_means_identric_past_the_exponent_overflow_is_capped_at_the_arithmetic_mean(b, identric):
    # the paper's exponent overflows past b/a of about 480; I <= A always
    rc, rep = run_json("means", "--a=1", f"--b={b!r}", "--enclose=I")
    assert rc == 0
    out = rep["outputs"]
    assert out["upper"] == out["arithmetic"] == (1.0 + b) / 2.0
    assert out["target"] == pytest.approx(identric, rel=1e-14)
    assert out["lower"] < out["target"] < out["upper"]
    assert out["contained"] is True


def test_means_log_mean_across_the_float_range_is_floored_at_the_geometric_mean(capsys):
    # the paper's lower end overflowed: "output 'lower' is not finite (-inf)"
    assert cli.main(["--json", "means", "--a=1", "--b=1e306", "--enclose=L"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["lower"] == out["geometric"] == 1e153
    assert out["lower"] < out["target"] < out["upper"]
    assert out["contained"] is True


def test_means_log_mean_at_the_top_of_the_float_range_is_contained(capsys):
    # A + 2G and A + G overflowed: "enclosure inverted: lower=nan > upper=inf"
    assert cli.main(["--json", "means", "--a=1e308", "--b=1.7e308", "--enclose=L"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["lower"] < out["target"] < out["upper"] < out["arithmetic"]
    assert out["contained"] is True


@pytest.mark.parametrize("enclose", [[], ["--enclose=L"], ["--enclose=I"], ["--enclose=Isq"]])
def test_means_of_the_two_smallest_subnormals_keep_the_chain(enclose, capsys):
    # A was 0.5*a + 0.5*b, and 0.5 * 5e-324 rounds to 0: "mean chain violated: 1e-323 > 5e-324"
    assert cli.main(["--json", "means", "--a=5e-324", "--b=1e-323", *enclose]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert (out["harmonic"], out["arithmetic"]) == (5e-324, 1e-323)
    assert out.get("contained", True) is True


@pytest.mark.parametrize("enclose", ["L", "I", "Isq"])
def test_means_of_a_subnormal_pair_keep_the_chain_and_the_bracket(enclose, capsys):
    # the means were formed from the subnormal pair: "mean chain violated: 2e-323 > 1.5e-323"
    assert cli.main(["--json", "means", "--a=1.5e-323", "--b=2e-323", f"--enclose={enclose}"]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["harmonic"] <= out["geometric"] <= out["identric"] <= out["arithmetic"]
    assert out["contained"] is True


def test_means_reciprocal_defect_below_the_normal_range_is_contained(capsys):
    # read target 5e-324 against the bracket [0, 0], status violated
    argv = ["--a=8.569823552236704e+294", "--b=8.569823552236822e+294", "--enclose=recipL"]
    assert cli.main(["--json", "means", *argv]) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out["contained"] is True


def test_means_identric_of_squares_with_squares_near_the_float_range():
    rc, rep = run_json("means", "--a=1e100", "--b=3e100", "--enclose=Isq")
    assert rc == 0
    assert rep["outputs"]["contained"] is True


def test_means_identric_across_the_float_range_is_capped_at_the_arithmetic_mean():
    # I(a, b) is about b/e here (mpmath: 3.6787944117144232e199), and
    # A^(2/3) G^(1/3) 1.36e133
    rc, rep = run_json("means", "--a=1e-200", "--b=1e200", "--enclose=I")
    assert rc == 0
    out = rep["outputs"]
    assert out["upper"] == out["arithmetic"] == 5e199
    assert out["target"] == pytest.approx(3.6787944117144232e199, rel=1e-15)
    assert out["lower"] < out["target"] < out["upper"]
    assert out["contained"] is True


def test_means_identric_of_squares_across_the_float_range_names_the_infinite_bound():
    # I(a^2, b^2) is about 1e400/e here, past the float range
    rc, rep = run_json("means", "--a=1e-200", "--b=1e200", "--enclose=Isq")
    assert rc == 2
    assert rep["outputs"]["error"] == "output 'upper' is not finite (inf)"


def test_means_identric_of_squares_with_an_underflowing_square():
    rc, rep = run_json("means", "--a=1e-200", "--b=1", "--enclose=Isq")
    assert rc == 0
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["target"] == pytest.approx(0.36787944117144233, rel=1e-13)


def test_means_reciprocal_defect_across_the_float_range_names_the_infinite_bound():
    rc, rep = run_json("means", "--a=1e-200", "--b=1e200", "--enclose=recipL")
    assert rc == 2
    assert rep["outputs"]["error"] == "output 'upper' is not finite (inf)"


@pytest.mark.parametrize("enclose, name", [("L", "logarithmic"), ("I", "identric")])
def test_means_of_a_near_equal_pair_bracket_their_target_without_slack(enclose, name, capsys):
    # the relative gap is 5e-13; L and I are A(1 - O(gap^2)), which rounds to A
    argv = ["--json", "means", "--a=1", "--b=1.0000000000005", f"--enclose={enclose}"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)["outputs"]
    assert out[name] == out["target"] == 1.00000000000025
    assert out["lower"] <= out["target"] <= out["upper"]


def test_means_rejects_nonpositive():
    rc, rep = run_json("means", "--a", "-1", "--b", "2")
    assert rc == 2
    assert rep["status"] == "error"


def _mp_means_and_targets(a, b):
    """The six means and the I and recipL bracket targets, at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        arith, harm = (a + b) / 2, 2 * a * b / (a + b)
        logm = (b - a) / (mpmath.log(b) - mpmath.log(a))
        idm = mpmath.exp((b * mpmath.log(b) - a * mpmath.log(a)) / (b - a) - 1)
        gini = mpmath.exp((a * mpmath.log(a) + b * mpmath.log(b)) / (a + b))
        means = {
            "harmonic": harm,
            "geometric": mpmath.sqrt(a * b),
            "logarithmic": logm,
            "identric": idm,
            "arithmetic": arith,
            "gini": gini,
        }
        targets = {"I": idm, "recipL": (1 / arith + 1 / harm) / 2 - 1 / logm}
        return {k: float(v) for k, v in means.items()}, {k: float(v) for k, v in targets.items()}


def test_means_near_equal_reciprocal_defect_is_contained():
    rc, rep = run_json("means", "--a=1", "--b=1.00001", "--enclose=recipL")
    assert (rc, rep["status"]) == (0, "ok")
    out = rep["outputs"]
    assert out["contained"] is True
    assert out["lower"] <= out["target"] <= out["upper"] < 3.0 * out["target"]


@pytest.mark.parametrize(
    "a,b,enclose",
    [
        # 2ab underflows to a subnormal: H came out 87% high
        ("1.0405208040498133e-161", "1.2722680456207749e-163", None),
        # the same underflow broke the mean chain
        ("6.73877509732814e-163", "2.282316975803574e-162", "I"),
        # A^2 underflows: the recipL bracket came out inverted
        ("1.7620787251869815e-155", "1.7621368686345008e-155", "recipL"),
        # a target formed as (1/A + 1/H)/2 - 1/L cancels most of its digits
        ("1", "1.00003", "recipL"),
    ],
)
def test_means_near_the_underflow_of_products_match_mpmath(a, b, enclose):
    argv = ["means", f"--a={a}", f"--b={b}"]
    if enclose is not None:
        argv.append(f"--enclose={enclose}")
    rc, rep = run_json(*argv)
    assert (rc, rep["status"]) == (0, "ok")
    out = rep["outputs"]
    means, targets = _mp_means_and_targets(float(a), float(b))
    for name, want in means.items():
        assert out[name] == pytest.approx(want, rel=1e-13, abs=0.0), name
    if enclose is not None:
        want = targets[enclose]
        assert out["target"] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert out["lower"] <= want <= out["upper"]


@pytest.mark.parametrize(
    "argv",
    [
        ("means", "--a=inf", "--b=1"),
        ("enclose", "--f=exp(x)", "--a=0", "--b=1", "--tol=nan"),
        ("enclose", "--f=exp(x)", "--a=0", "--b=1", "--method=adaptive", "--tol=nan"),
        ("ratio", "--f=exp(x)", "--a=-inf", "--b=1"),
    ],
)
def test_non_finite_arguments_are_usage_errors(argv):
    # a NaN tol once passed the tol <= 0 check and spun forever, and a
    # non-finite input echoed into the JSON report ended in a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "hhbounds", "--json", *argv],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid finite float value" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_numeric_argument_is_a_usage_error_in_process(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--json", "enclose", "--f=exp(x)", "--a=abc", "--b=1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --a: invalid finite float value: 'abc'" in err


_DEEP = "expression nests deeper than 100 levels at offset "
_REFUSED = {
    "flat sum": ("+".join(["x"] * 992), _DEEP + "199"),
    "parentheses": ("(" * 198 + "x" + ")" * 198, _DEEP + "100"),
    "calls": ("exp(" * 198 + "x" + ")" * 198, _DEEP + "400"),
    "signs": ("-" * 987 + "x", _DEEP + "100"),
    "exponents": ("x" + "^1" * 493, _DEEP + "200"),
    "sin": ("sin(x*1e308*10)", "sin of non-finite value inf"),
    "cos": ("cos(-x*1e308*10)", "cos of non-finite value -inf"),
    "exponent": (
        "x^sin(1e308*10)",
        "constant is undefined: sin of non-finite value inf at offset 2",
    ),
    "exponent log": (
        "x^log(-1)",
        "constant is undefined: log of non-positive value -1.0 at offset 2",
    ),
    "exponent division": ("x^(1/0)", "constant is undefined: division by zero at offset 2"),
    "softness log": (
        "hyp(x, log(-1))",
        "constant is undefined: log of non-positive value -1.0 at offset 7",
    ),
    "softness": ("hyp(x, -1)", "hyp softness must be a positive finite constant at offset 7"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_deep_and_non_finite_expressions_are_errors_not_tracebacks(case, capsys):
    f, message = _REFUSED[case]
    assert cli.main(["--json", "enclose", f"--f={f}", "--a=1", "--b=2"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["outputs"] == {"error": message}
    assert err == ""


@pytest.mark.parametrize("f", ["hyp(x, 1e200)", "hyp(x*1e200, 1)", "hyp(x*1e-200, 1e-200)"])
def test_enclose_hyp_whose_squares_leave_the_float_range(f, capsys):
    argv = ["--json", "enclose", f"--f={f}", "--a=0.5", "--b=1", "--method=simpson"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["outputs"]["f_convex"] == "yes"
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("enclose", "--method=simpson"),
        ("defect", "--theorem=2"),
        ("defect", "--theorem=4"),
    ],
)
def test_abs_kink_gives_no_f2_shape_to_simpson_or_defect(argv, capsys):
    # f'' has a point mass at 0.3 that no sampled jet sees; the mean is 0.29
    command, option = argv
    assert cli.main(["--json", command, "--f=abs(x - 0.3)", "--a=0", "--b=1", option]) == 2
    out, err = capsys.readouterr()
    error = "second derivative has no certified convexity direction"
    assert json.loads(out)["outputs"] == {"error": error}
    assert err == ""


@pytest.mark.parametrize(
    "argv, error",
    [
        # a narrow hyp hides its f'' mass between the samples, which then read
        # f'' as convex; Simpson returned the point bracket [0.3, 0.3] and
        # theorem 2 an inverted sandwich, while the mean is 0.29
        (
            ("enclose", "--f=hyp(x - 0.3, 1e-9)", "--method=simpson"),
            "panel values on [0.0, 1.0] contradict the sampled f'' shape (convex)",
        ),
        (
            ("enclose", "--f=sqrt((x - 0.3)^2 + 1e-18)", "--method=simpson"),
            "panel values on [0.0, 1.0] contradict the sampled f'' shape (convex)",
        ),
        (
            ("defect", "--f=hyp(x - 0.3, 1e-9)", "--theorem=2"),
            "panel values on [0.0, 1.0] contradict the sampled f'' shape (convex)",
        ),
        # jets read the f'' of abs as 0, so a concave kink passes the profile;
        # these ended in "enclosure inverted"
        (
            ("enclose", "--f=-abs(x - 0.3)"),
            "integrand is not certified convex (f(a)-2f(mid)+f(b) < 0 on [0.0, 1.0])",
        ),
        (
            ("enclose", "--f=x^2 - 0.1*abs(x - 0.3)", "--method=adaptive", "--tol=1e-6"),
            "integrand is not certified convex (f(a)-2f(mid)+f(b) < 0 on [0.25, 0.375])",
        ),
        # f''(0) of x^1.5 is +inf, which no row can bound; these ended in
        # "output 'lower' is not finite (-inf)" or "... 'upper' ... (inf)"
        (("enclose", "--f=x^1.5", "--method=simpson"), "f or f'' is not finite on [0.0, 1.0]"),
        (("defect", "--f=x^1.5", "--theorem=2"), "f or f'' is not finite on [0.0, 1.0]"),
        (("defect", "--f=x^1.5", "--theorem=4"), "f or f'' is not finite on [0.0, 1.0]"),
    ],
)
def test_panel_values_that_contradict_the_sampled_f2_are_refused(argv, error, capsys):
    command, f, *options = argv
    assert cli.main(["--json", command, f, "--a=0", "--b=1", *options]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["outputs"] == {"error": error}
    assert err == ""


@pytest.mark.parametrize(
    "f, a, b",
    [
        # f and f'' are finite; len^2 overflows, times an f'' of 0.0 read without a shape
        ("x", "-1e200", "1e200"),
        # |f(a)| + 2|f(mid)| + |f(b)| overflows
        ("1e308", "0", "1"),
    ],
)
def test_a_panel_check_that_overflows_names_the_overflow(f, a, b, capsys):
    argv = ["--json", "enclose", f"--f={f}", f"--a={a}", f"--b={b}", "--method=classic"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    on = f"on [{float(a)!r}, {float(b)!r}]"
    assert json.loads(out)["outputs"] == {"error": f"the panel check's magnitudes overflow {on}"}
    assert err == ""


# --- ratio -------------------------------------------------------------------


def test_ratio_exp():
    rc, rep = run_json("ratio", "--f", "exp(x)", "--a", "0", "--b", "1")
    assert rc == 0
    assert rep["outputs"]["value"] == pytest.approx(0.16529008, abs=1e-7)


def test_ratio_degenerate_is_ok_not_error():
    rc, rep = run_json("ratio", "--f", "x", "--a", "0", "--b", "1")
    assert rc == 0
    assert rep["outputs"]["degenerate"] is True
    assert rep["outputs"]["value"] is None


def test_ratio_power_overflow_names_the_operation():
    rc, rep = run_json("ratio", "--f=x^400", "--a=10", "--b=100")
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["outputs"]["error"] == "^400 overflows at 10"


@pytest.mark.parametrize("command", ["enclose", "ratio"])
@pytest.mark.parametrize(
    "f,a,b",
    [
        ("x^400", "10", "100"),  # the power overflows
        ("x^(-2)", "1e-200", "1e-199"),  # x^2 underflows before the reciprocal
    ],
)
def test_integer_power_overflow_names_the_operation(command, f, a, b):
    # enclose meets it first in the jets of its convexity profile, ratio in
    # the value at a
    rc, rep = run_json(command, f"--f={f}", f"--a={a}", f"--b={b}")
    assert rc == 2
    assert rep["status"] == "error"
    exponent = f.split("^")[1].strip("()")
    assert rep["outputs"]["error"].startswith(f"^{exponent} overflows at ")


def test_enclose_log_of_a_tiny_scale_contains_the_mean():
    # 1/u0^4 overflows at u0 = 2e-200, so the log jets must not form it
    mpmath = pytest.importorskip("mpmath")
    rc, rep = run_json("enclose", "--f=-log(1e-200*x)", "--a=1", "--b=2", "--method=simpson")
    assert rc == 0
    assert rep["status"] == "ok"
    with mpmath.workdps(40):
        mean = 200 * mpmath.log(10) - (2 * mpmath.log(2) - 1)
    assert rep["outputs"]["lower"] <= mean <= rep["outputs"]["upper"]


def test_ratio_exp_overflow_names_the_operation():
    rc, rep = run_json("ratio", "--f=exp(x)", "--a=1000", "--b=1001")
    assert rc == 2
    assert rep["status"] == "error"
    assert rep["outputs"]["error"] == "exp overflows at 1000"


# --- search-alpha ------------------------------------------------------------


def test_search_alpha_report_shape():
    rc, rep = run_json(
        "search-alpha", "--family", "power", "--budget", "120", "--seed", "4"
    )
    assert rc == 0
    out = rep["outputs"]
    assert 1.0 / 6.0 - 1e-9 <= out["best_ratio"] <= 0.25 + 1e-9
    assert isinstance(out["witness"], list) and len(out["witness"]) == 1
    assert out["evaluations"] <= 120


# --- verify ------------------------------------------------------------------


def test_verify_means_suite_quick():
    rc, rep = run_json("verify", "--suite", "means", "--samples", "20", "--seed", "3")
    assert rc == 0
    assert rep["status"] == "ok"
    props = rep["outputs"]["properties"]
    assert props and all(p["passed"] for p in props)


def test_verify_all_invariant():
    rc, rep = run_json("verify", "--suite", "all", "--samples", "200", "--seed", "1")
    assert rc == 0
    assert rep["status"] == "ok"
    names = {p["name"] for p in rep["outputs"]["properties"]}
    assert any(n.startswith("identities:") for n in names)
    assert any(n.startswith("inequalities:") for n in names)
    assert any(n.startswith("means:") for n in names)


def test_verify_all_printed_constant_fails():
    proc = run_cli(
        "verify", "--suite", "all", "--samples", "200", "--seed", "1",
        "--printed-constant",
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


@pytest.mark.parametrize(
    "args,code",
    [
        (("verify", "--suite=means", "--samples=20"), 0),
        (("--json", "enclose", "--f=x^x", "--a=0", "--b=1"), 2),
    ],
)
def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(args, code):
    # the read end is closed before the command starts, so every write to
    # its stdout meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hhbounds", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stderr == ""


# --- parser ------------------------------------------------------------------


def _subparser(parser, command):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def test_theorem_choices_are_the_defect_table():
    defect = _subparser(cli._build_parser(), "defect")
    theorem = next(a for a in defect._actions if a.dest == "theorem")
    assert tuple(theorem.choices) == tuple(bounds.DEFECTS)


def test_parser_is_built_once_and_reused_across_commands():
    assert cli._build_parser() is cli._build_parser()
    golden = os.path.join(os.path.dirname(__file__), "golden")
    runs = [
        ("defect-theorem4.json", ["--json", "defect", "--f=exp(x)", "--a=0", "--b=1", "--theorem=4"]),
        ("means-L.table", ["means", "--a=1", "--b=2", "--enclose=L"]),
        ("defect-theorem2-concave.table", ["defect", "--f=x^2.5", "--a=1", "--b=2", "--theorem=2"]),
        ("means.json", ["--json", "means", "--a=1", "--b=2"]),
    ]
    for name, argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        with open(os.path.join(golden, f"{name}.out"), "rb") as fh:
            assert out.getvalue().encode() == fh.read(), name
