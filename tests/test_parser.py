"""Grammar, diagnostics, and totality of the text front end."""

import pytest
from hypothesis import given, settings, strategies as st

from rootsums import (
    MAX_EXPONENT,
    ExactScalar,
    ParseError,
    Polynomial,
    parse_polynomial,
    parse_rational_list,
)

F = ExactScalar


def diagnostic_of(callable_, *args, **kwargs):
    with pytest.raises(ParseError) as info:
        callable_(*args, **kwargs)
    return info.value.diagnostic


def test_full_quintic():
    p = parse_polynomial("x^5 - x^4 + 2x^3 - 3x^2 + 4x - 5")
    assert p == Polynomial([-5, 4, -3, 2, -1, 1])


def test_rational_coefficients_and_gaps():
    assert parse_polynomial("1/2x^2 - 1/3") == Polynomial([F(-1, 3), 0, F(1, 2)])


def test_like_terms_combine():
    assert parse_polynomial("x^2 + x^2 + x") == Polynomial([0, 1, 2])


def test_zero_polynomial_is_rejected():
    diag = diagnostic_of(parse_polynomial, "2x^2 + x^2 - 3x^2")
    assert "zero polynomial" in diag.message


def test_inconsistent_variable_offset():
    diag = diagnostic_of(parse_polynomial, "x + y")
    assert diag.offset == 4
    assert "y" in diag.message


def test_any_single_letter_works():
    assert parse_polynomial("t^2 - 3t + 2") == Polynomial([2, -3, 1])


def test_leading_minus_and_unary_after_plus():
    assert parse_polynomial("-x") == Polynomial([0, -1])
    assert parse_polynomial("x + -2") == Polynomial([-2, 1])


@pytest.mark.parametrize("text", ["--x", "x - -2", "x + --2", "x--2"])
def test_double_minus_rejected(text):
    diag = diagnostic_of(parse_polynomial, text)
    assert '"--"' in diag.message


def test_negative_exponent_rejected():
    diag = diagnostic_of(parse_polynomial, "x^-2")
    assert "nonnegative" in diag.message
    assert diag.offset == 2


def test_oversized_exponent_rejected():
    diag = diagnostic_of(parse_polynomial, "x^99999999")
    assert "maximum" in diag.message
    assert MAX_EXPONENT == 10_000
    assert parse_polynomial("x^10000 + 1").degree == 10_000
    diag = diagnostic_of(parse_polynomial, "x + 3x^10001")
    assert diag.offset == 7
    assert diag.message == "exponent exceeds the supported maximum of 10000"


def test_integer_digit_limit():
    assert parse_polynomial("9" * 4300 + "x") == Polynomial([0, int("9" * 4300)])
    diag = diagnostic_of(parse_polynomial, "x + " + "9" * 4301)
    assert diag.offset == 4
    assert "4300 digits" in diag.message
    diag = diagnostic_of(parse_polynomial, "x^" + "1" * 4301)
    assert diag.offset == 2
    diag = diagnostic_of(parse_rational_list, "1, 2/" + "7" * 4301)
    assert diag.offset == 5


def test_unexpected_character():
    diag = diagnostic_of(parse_polynomial, "x^2 + $")
    assert diag.offset == 6


def test_truncated_input():
    diag = diagnostic_of(parse_polynomial, "x^2 -")
    assert diag.offset == 5  # one past the end
    assert diag.expected


def test_missing_operator():
    diag = diagnostic_of(parse_polynomial, "2 3")
    assert diag.offset == 2


def test_zero_denominator():
    diag = diagnostic_of(parse_polynomial, "1/0x")
    assert diag.offset == 2
    assert "positive" in diag.message


def test_empty_input():
    diag = diagnostic_of(parse_polynomial, "")
    assert diag.offset == 0


def test_whitespace_is_insignificant():
    assert parse_polynomial(" x ^ 2 -  3 x + 2 ") == Polynomial([2, -3, 1])
    assert parse_polynomial("1 / 2 x") == Polynomial([0, F(1, 2)])


def test_rational_list_examples():
    assert parse_rational_list("1,2,1/3") == [1, 2, F(1, 3)]
    assert parse_rational_list(" -4 , 5/10 ") == [-4, F(1, 2)]
    diag = diagnostic_of(parse_rational_list, "1,,2")
    assert diag.offset == 2
    diag = diagnostic_of(parse_rational_list, "")
    assert diag.offset == 0
    diag = diagnostic_of(parse_rational_list, "1,2,")
    assert diag.offset == 4
    diag = diagnostic_of(parse_rational_list, "1 2")
    assert diag.offset == 2
    diag = diagnostic_of(parse_rational_list, "1/0")
    assert diag.offset == 2


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
nonzero_polys = (
    st.lists(rationals, min_size=1, max_size=8)
    .map(Polynomial)
    .filter(lambda p: not p.is_zero)
)


@given(nonzero_polys)
def test_round_trip_through_canonical_rendering(p):
    assert parse_polynomial(str(p)) == p


@given(st.lists(rationals, min_size=1, max_size=6))
def test_rational_list_round_trip(values):
    text = ", ".join(str(v) for v in values)
    assert parse_rational_list(text) == values


@settings(max_examples=300)
@given(st.text(max_size=30))
def test_parse_polynomial_is_total(text):
    try:
        result = parse_polynomial(text)
    except ParseError as err:
        assert 0 <= err.diagnostic.offset <= len(text)
    else:
        assert isinstance(result, Polynomial)


@settings(max_examples=300)
@given(st.text(max_size=30))
def test_parse_rational_list_is_total(text):
    try:
        result = parse_rational_list(text)
    except ParseError as err:
        assert 0 <= err.diagnostic.offset <= len(text)
    else:
        assert result
