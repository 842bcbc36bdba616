import math

import pytest

from hhbounds import DomainError, ParseError, eval_value, parse, to_source
from hhbounds.expr import BinOp, Const, Hyp, Pow, Unary, Var, contains_var


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
