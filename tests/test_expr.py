import math

import pytest

from hhbounds import DomainError, ParseError, eval_jet, eval_value, parse, to_source
from hhbounds.expr import _MAX_DEPTH, BinOp, Const, Hyp, Pow, Unary, Var, contains_var


def test_parse_precedence():
    tree = parse("1 + 2*x")
    assert tree == BinOp("+", Const(1.0), BinOp("*", Const(2.0), Var()))


def test_power_binds_tighter_than_mul():
    tree = parse("2*x^2")
    assert tree == BinOp("*", Const(2.0), Pow(Var(), 2.0))


def test_unary_minus_of_power():
    assert parse("-x^2") == Unary("neg", Pow(Var(), 2.0))


def test_negative_literal_folds():
    assert parse("-3.5") == Const(-3.5)


def test_power_right_associative_exponent_folds():
    # x^3^2 = x^(3^2); the whole exponent must be constant
    assert parse("x^3^2") == Pow(Var(), 9.0)


def test_negative_exponent_forms():
    assert parse("x^-2") == Pow(Var(), -2.0)
    assert parse("x^(-2)") == Pow(Var(), -2.0)


def test_constant_expression_exponent():
    assert parse("x^(1/4 + 1/4)") == Pow(Var(), 0.5)


def test_nonconstant_exponent_rejected_with_offset():
    with pytest.raises(ParseError) as err:
        parse("x^x")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("2^(x+1)")
    assert err.value.position == 2


@pytest.mark.parametrize("src", ["x^(1e400*0)", "x^1e400"])
def test_nonfinite_exponent_rejected_with_offset(src):
    # the exponents fold to NaN and to inf
    with pytest.raises(ParseError, match="exponent must be a finite constant") as err:
        parse(src)
    assert err.value.position == 2


def test_double_caret_reports_offset_2():
    with pytest.raises(ParseError) as err:
        parse("x^^2")
    assert err.value.position == 2
    assert "at offset 2" in str(err.value)


def test_trailing_input_rejected():
    with pytest.raises(ParseError) as err:
        parse("x + 1 )")
    assert err.value.position == 6


def test_unknown_name_rejected():
    with pytest.raises(ParseError) as err:
        parse("3 + tan(x)")
    assert err.value.position == 4


def test_missing_close_paren():
    with pytest.raises(ParseError):
        parse("exp(x")


def test_unexpected_character_offset():
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.position == 4


def test_scientific_notation_literal():
    assert parse("1.5e-3") == Const(0.0015)
    # an 'e' not followed by digits is not an exponent part
    with pytest.raises(ParseError):
        parse("2e")


def test_hyp_two_args():
    tree = parse("hyp(x - 0.5, 0.01)")
    assert tree == Hyp(BinOp("-", Var(), Const(0.5)), 0.01)


def test_hyp_softness_must_be_constant():
    with pytest.raises(ParseError):
        parse("hyp(x, x)")


def test_hyp_softness_must_be_positive():
    with pytest.raises(ValueError):
        Hyp(Var(), -1.0)


@pytest.mark.parametrize("src", ["hyp(x, -1)", "hyp(x, 0)", "hyp(x, 1e308*10)"])
def test_hyp_softness_out_of_range_is_a_parse_error_at_its_offset(src):
    with pytest.raises(ParseError, match="hyp softness must be a positive finite constant") as err:
        parse(src)
    assert err.value.position == 7


# source nested n levels deep, and the offset at which n = _MAX_DEPTH + 1 is refused
_NESTED = {
    "flat sum": (lambda n: "+".join(["x"] * n), 2 * _MAX_DEPTH - 1),
    "parentheses": (lambda n: "(" * (n - 1) + "x" + ")" * (n - 1), _MAX_DEPTH),
    "calls": (lambda n: "abs(" * (n - 1) + "x" + ")" * (n - 1), 4 * _MAX_DEPTH),
    "signs": (lambda n: "-" * (n - 1) + "x", _MAX_DEPTH),
    "exponents": (lambda n: "x" + "^1" * (n - 1), 2 * _MAX_DEPTH),
}


@pytest.mark.parametrize("shape", sorted(_NESTED))
def test_nesting_is_bounded_at_parse_time(shape):
    make, offset = _NESTED[shape]
    # at the bound the tree parses, and its jet, the CLI's deepest walk, evaluates
    tree = parse(make(_MAX_DEPTH))
    assert eval_jet(tree, 0.5).value == eval_value(tree, 0.5)
    with pytest.raises(ParseError, match=f"nests deeper than {_MAX_DEPTH} levels") as err:
        parse(make(_MAX_DEPTH + 1))
    assert err.value.position == offset


@pytest.mark.parametrize("fn", ["sin", "cos"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_sin_and_cos_of_a_non_finite_value_are_named_domain_errors(fn, x):
    node = parse(f"{fn}(x)")
    for evaluate in (eval_value, eval_jet, lambda n, x: eval_jet(n, x, order=2)):
        with pytest.raises(DomainError, match=f"^{fn} of non-finite value {x}$"):
            evaluate(node, x)


def test_non_finite_sin_in_an_exponent_is_a_parse_error():
    with pytest.raises(
        ParseError, match=r"^constant is undefined: sin of non-finite value inf at offset 2$"
    ) as err:
        parse("x^sin(1e308*10)")
    assert err.value.position == 2


@pytest.mark.parametrize(
    "src, message, offset",
    [
        ("x^log(-1)", "log of non-positive value -1.0", 2),
        ("x^(1/0)", "division by zero", 2),
        ("2^sqrt(-4)", "sqrt of negative value -4.0", 2),
        ("hyp(x, log(-1))", "log of non-positive value -1.0", 7),
    ],
)
def test_an_undefined_constant_is_a_parse_error_naming_the_operation(src, message, offset):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == f"constant is undefined: {message} at offset {offset}"
    assert err.value.position == offset


def test_a_lone_dot_is_a_malformed_number():
    with pytest.raises(ParseError, match=r"^malformed number '\.' at offset 0$"):
        parse(".")


def test_eval_basic():
    assert eval_value(parse("2*x^2 + 1"), 3.0) == 19.0
    assert eval_value(parse("exp(log(x))"), 2.5) == pytest.approx(2.5, rel=1e-15)
    assert eval_value(parse("hyp(x, 3)"), 4.0) == pytest.approx(5.0, rel=1e-15)


def test_eval_fractional_power():
    assert eval_value(parse("x^3.5"), 2.0) == pytest.approx(2.0 ** 3.5, rel=1e-15)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_value(parse("log(x)"), 0.0)
    with pytest.raises(DomainError):
        eval_value(parse("sqrt(x)"), -1.0)
    with pytest.raises(DomainError):
        eval_value(parse("1/x"), 0.0)
    with pytest.raises(DomainError):
        eval_value(parse("x^0.5"), -2.0)
    with pytest.raises(DomainError):
        eval_value(parse("x^-1"), 0.0)


def test_negative_base_integer_power_ok():
    assert eval_value(parse("x^3"), -2.0) == -8.0


def test_print_minimal_parens():
    assert to_source(parse("(x + 1) * 2")) == "(x + 1) * 2"
    assert to_source(parse("x + 1 * 2")) == "x + 1 * 2"
    assert to_source(parse("-(x + 1)")) == "-(x + 1)"
    assert to_source(parse("x^-2")) == "x^(-2)"
    assert to_source(parse("(x^2)^3")) == "(x^2)^3"


def test_print_preserves_subtraction_grouping():
    src = "x - (x - 1)"
    assert eval_value(parse(to_source(parse(src))), 7.0) == eval_value(parse(src), 7.0)


def test_roundtrip_fixed_corpus():
    corpus = [
        "x",
        "1 + x",
        "4*x^3.5/35 - x^4/12",
        "exp(x) * (1 - x)",
        "hyp(x - 0.5, 0.01)",
        "1/(1 + x^2)",
        "-log(x)",
        "sqrt(x + 2)/3",
        "x*log(x)",
        "cos(x)^2 + sin(x)^2",
        "2^0.5 * x",
        "x - -2",
    ]
    for src in corpus:
        once = parse(src)
        again = parse(to_source(once))
        assert again == once, src


def test_contains_var():
    assert contains_var(parse("exp(x) + 1"))
    assert not contains_var(parse("exp(1) + 2^0.5"))


def test_eval_matches_math_for_primitives():
    x = 0.7
    for src, want in [
        ("exp(x)", math.exp(x)),
        ("log(x)", math.log(x)),
        ("sqrt(x)", math.sqrt(x)),
        ("abs(x)", abs(x)),
        ("sin(x)", math.sin(x)),
        ("cos(x)", math.cos(x)),
    ]:
        assert eval_value(parse(src), x) == pytest.approx(want, rel=1e-15)


def test_printing_and_dependence_skip_the_domain_checks():
    # both run `evaluate` with a NaN head, so no domain rule can fire
    node = parse("log(0) / (1 - 1) + (-1)^0.5")
    assert to_source(node) == "log(0) / (1 - 1) + (-1)^0.5"
    assert contains_var(node) is False
    assert contains_var(parse("x / 0")) is True
