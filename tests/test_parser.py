from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partfrac import (
    Constant,
    ParseError,
    Product,
    Sum,
    Symbol,
    parse_expr,
    parse_root_list,
    render_expr,
    symbols,
)
from test_expr import _canonical_or_skip, raw_trees

a, b, c = symbols("a b c")


def test_bare_symbol():
    assert parse_expr("a1") == Symbol("a1")


def test_constant_folding_through_grammar():
    e = parse_expr("-(3*b + 1)/2")
    assert e == Fraction(-3, 2) * b - Fraction(1, 2)


def test_fraction_and_integer_literals():
    assert parse_expr("1/2") == Constant(Fraction(1, 2))
    assert parse_expr("-3") == Constant(-3)
    assert parse_expr("007") == Constant(7)
    assert parse_expr("123456789012345678901234567890") == Constant(
        123456789012345678901234567890
    )


def test_incomplete_input_reports_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("2 +")
    assert err.value.span.start == 3


def test_precedence():
    assert parse_expr("a + b*a") == a + b * a
    assert parse_expr("-a^2") == -(a**2)
    assert parse_expr("(-a)^2") == a**2
    assert parse_expr("a^-2") == a**-2
    assert parse_expr("a - b - a") == -b
    assert parse_expr("a/b/2") == a / b / 2


def test_power_right_associative():
    assert parse_expr("2^3^2") == Constant(512)


def test_power_requires_integer_exponent():
    for src in ("a^b", "a^(1/2)", "a^(b+1)"):
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert "integer" in err.value.message


def test_division_by_literal_zero():
    for src in ("1/0", "a/(2 - 2)", "0^(-1)"):
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert "zero" in err.value.message


def test_unexpected_trailing_token():
    with pytest.raises(ParseError):
        parse_expr("a b")
    with pytest.raises(ParseError):
        parse_expr("(a))")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_expr("(a + b")
    with pytest.raises(ParseError):
        parse_expr(")")


def test_non_ascii_rejected_not_crashing():
    with pytest.raises(ParseError):
        parse_expr("π + 1")


def test_deep_nesting_is_an_error_not_a_crash():
    with pytest.raises(ParseError):
        parse_expr("(" * 5000 + "a" + ")" * 5000)


def test_root_list_basic():
    assert parse_root_list("a1,a2,a3") == [Symbol("a1"), Symbol("a2"), Symbol("a3")]


def test_root_list_literals_and_whitespace():
    assert parse_root_list("1/2, -3") == [Constant(Fraction(1, 2)), Constant(-3)]
    assert parse_root_list(" a ,  b ") == [a, b]


def test_root_list_respects_parentheses():
    assert parse_root_list("(a + b)*2, a") == [2 * a + 2 * b, a]


def test_root_list_empty_entry():
    with pytest.raises(ParseError) as err:
        parse_root_list("a,,b")
    assert "entry 2" in err.value.message


def test_root_list_empty_and_trailing():
    with pytest.raises(ParseError):
        parse_root_list("")
    with pytest.raises(ParseError) as err:
        parse_root_list("a,b,")
    assert "entry 3" in err.value.message


def test_root_list_propagates_entry_errors_with_index():
    with pytest.raises(ParseError) as err:
        parse_root_list("a, 2 +, b")
    assert err.value.message.startswith("entry 2")


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parser_never_panics(src):
    try:
        parse_expr(src)
    except ParseError:
        pass


@settings(max_examples=300)
@given(
    st.text(
        alphabet="ab123+-*/^(), \t.",
        max_size=60,
    )
)
def test_parser_never_panics_on_grammar_like_input(src):
    try:
        parse_expr(src)
    except ParseError:
        pass
    try:
        parse_root_list(src)
    except ParseError:
        pass


# Pinned: a constant followed only by Sum factors, which a pairwise left fold
# of the '*' chain distributes into the first sum.
@settings(max_examples=250)
@given(raw_trees)
@example(Product((Constant(-1), Sum((a, a, b)), Sum((a, b)))))
@example(Product((Constant(-1), Sum((a, c)), Sum((a, b)))))
@example(Product((Constant(2), Sum((a, b)), Sum((a, c)))))
def test_render_parse_round_trip(tree):
    canon = _canonical_or_skip(tree)
    assert parse_expr(render_expr(canon)) == canon


def test_constant_powers_too_long_to_render_are_refused_up_front(monkeypatch):
    # 10^4299 has 4300 digits, the default int-to-text limit; 10^4300 has one more
    assert parse_expr("10^4299") == Constant(10**4299)
    for src, span in (
        ("10^4300", (0, 7)),
        ("a + 2^99999999", (4, 14)),
        ("3^99999999", (0, 10)),  # refused before the power is computed
        ("(3*a)^99999999", (0, 14)),
        ("(2/3)^(-99999)", (0, 14)),
        ("2^3^4^5", (0, 7)),  # the exponent 3^1024 is too large for a float
        ("(2*a)^(3^4^5)", (0, 13)),
    ):
        with pytest.raises(ParseError) as err:
            parse_expr(src)
        assert "digits" in err.value.message, src
        assert (err.value.span.start, err.value.span.end) == span, src
    assert parse_expr("1^99999999") == Constant(1)
    assert parse_expr("1^(3^4^5)") == Constant(1)
    assert parse_expr("(-1)^(3^4^5)") == Constant(-1)
    assert parse_expr("a^99999999") == a**99999999
    with pytest.raises(ParseError) as err:
        parse_root_list("a, " + "7" * 4301)
    assert "entry 2: integer has more than 4300 digits" in err.value.message
    # with the limit switched off, 4300 digits still bound what is accepted
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0, raising=False)
    with pytest.raises(ParseError):
        parse_expr("10^4300")
