"""Grammar, diagnostics, and totality of the text front end."""

import re

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
import rootsums.parser as parser

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
    # Non-ASCII digits, spaces and letters are not tokens either.
    for text, offset in [("\u0663x", 0), ("x\xa0+ 1", 1), ("\xe9", 0)]:
        diag = diagnostic_of(parse_polynomial, text)
        assert diag.offset == offset
        assert diag.message == f"unexpected character {text[offset]!r}"


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


# The exact text of every diagnostic: one input per failure site of either
# entry point, and the sites they share reached through both. The last two
# rows show the whole input is tokenized before the grammar is checked.
DIAGNOSTICS = [
    (parse_polynomial, "x^2 + $", "offset 6: unexpected character '$'"),
    (parse_rational_list, "1, \xe9", "offset 3: unexpected character '\xe9'"),
    (parse_polynomial, "x + " + "9" * 4301, "offset 4: integer has more than 4300 digits"),
    (parse_rational_list, "1, 2/" + "7" * 4301, "offset 5: integer has more than 4300 digits"),
    (parse_polynomial, "--x", 'offset 1: "--" is not allowed'),
    (parse_polynomial, "x--2", 'offset 2: "--" is not allowed'),
    (parse_polynomial, "x + --2", 'offset 5: "--" is not allowed'),
    (parse_polynomial, "2 3", "offset 2: expected an operator (expected '+', '-')"),
    (
        parse_polynomial,
        "1/x",
        "offset 2: expected a positive denominator (expected a positive denominator)",
    ),
    (
        parse_rational_list,
        "1/-2",
        "offset 2: expected a positive denominator (expected a positive denominator)",
    ),
    (parse_polynomial, "1/0x", "offset 2: denominator must be a positive integer"),
    (parse_rational_list, "3, 1/0", "offset 5: denominator must be a positive integer"),
    (parse_polynomial, "x^-2", "offset 2: exponent must be a nonnegative integer"),
    (
        parse_polynomial,
        "x^",
        "offset 2: expected a nonnegative exponent (expected a nonnegative exponent)",
    ),
    (
        parse_polynomial,
        "x + 3x^10001",
        "offset 7: exponent exceeds the supported maximum of 10000",
    ),
    (parse_polynomial, "x^2 -", "offset 5: expected a term (expected an integer, a variable)"),
    (
        parse_polynomial,
        "x + y",
        "offset 4: inconsistent variable 'y', the input already uses 'x'",
    ),
    (parse_polynomial, "2x^2 + x^2 - 3x^2", "offset 0: input combines to the zero polynomial"),
    (parse_rational_list, "1,,2", "offset 2: expected a rational number"),
    (parse_rational_list, "1 2", "offset 2: expected ',' (expected ',')"),
    (parse_polynomial, "2 3 $", "offset 4: unexpected character '$'"),
    (parse_rational_list, "1 2 " + "9" * 4301, "offset 4: integer has more than 4300 digits"),
]


@pytest.mark.parametrize(
    ("entry", "text", "expected"),
    DIAGNOSTICS,
    ids=[f"{entry.__name__}:{text[:12]!r}" for entry, text, _ in DIAGNOSTICS],
)
def test_every_diagnostic_exactly(entry, text, expected):
    assert str(diagnostic_of(entry, text)) == expected


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


# References: the named-group tokenizer and the Fraction-accumulating
# parse loops the front end ran before it split the input with one
# findall pass and built each coefficient as one Fraction. The cursor's
# peek/take/expect are shared; everything that builds tokens or values
# is the old code.
_REFERENCE_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<int>[0-9]+)|(?P<letter>[A-Za-z])|(?P<op>[-+^/,])|(?P<bad>.)",
    re.DOTALL,
)


class ReferenceCursor(parser._Cursor):
    def __init__(self, text):
        self.tokens = []
        self.pos = 0
        for match in _REFERENCE_TOKEN.finditer(text):
            kind, token, offset = match.lastgroup, match.group(), match.start()
            if kind == "bad":
                parser._fail(offset, f"unexpected character {token!r}")
            if kind == "int" and len(token) > parser.MAX_DIGITS:
                parser._fail(offset, f"integer has more than {parser.MAX_DIGITS} digits")
            if kind != "space":
                self.tokens.append((token if kind == "op" else kind, token, offset))
        self.tokens.append(("end", "", len(text)))


def reference_unsigned_rational(cursor, numerator):
    value = F(int(numerator))
    if cursor.take("/"):
        _, digits, offset = cursor.expect("int", "a positive denominator")
        den = int(digits)
        if den == 0:
            parser._fail(offset, "denominator must be a positive integer")
        value /= den
    return value


def reference_parse_polynomial(text):
    cursor = ReferenceCursor(text)
    variable = None
    terms = {}
    sign = 1
    while True:
        if sign == 1 and cursor.take("-"):
            sign = -1
        kind, _, offset = cursor.peek()
        if sign == -1 and kind == "-":
            parser._fail(offset, '"--" is not allowed')
        number = cursor.take("int")
        coeff = F(1)
        if number is not None:
            coeff = reference_unsigned_rational(cursor, number[1])
        exponent = 0
        letter = cursor.take("letter")
        if letter is not None:
            _, name, offset = letter
            if variable is None:
                variable = name
            elif name != variable:
                parser._fail(
                    offset,
                    f"inconsistent variable {name!r}, the input already uses {variable!r}",
                )
            exponent = 1
            if cursor.take("^"):
                kind, _, offset = cursor.peek()
                if kind == "-":
                    parser._fail(offset, "exponent must be a nonnegative integer")
                _, digits, offset = cursor.expect("int", "a nonnegative exponent")
                exponent = int(digits)
                if exponent > MAX_EXPONENT:
                    parser._fail(
                        offset,
                        f"exponent exceeds the supported maximum of {MAX_EXPONENT}",
                    )
        elif number is None:
            parser._fail(cursor.peek()[2], "expected a term", ("an integer", "a variable"))
        terms[exponent] = terms.get(exponent, F(0)) + sign * coeff
        kind, _, offset = cursor.peek()
        if kind == "end":
            break
        if not cursor.take("+") and not cursor.take("-"):
            parser._fail(offset, "expected an operator", ("'+'", "'-'"))
        sign = 1 if kind == "+" else -1
    coeffs = [F(0)] * (max(terms) + 1)
    for exponent, value in terms.items():
        coeffs[exponent] = value
    result = Polynomial(coeffs)
    if result.is_zero:
        parser._fail(0, "input combines to the zero polynomial")
    return result


def reference_parse_rational_list(text):
    cursor = ReferenceCursor(text)
    values = []
    while True:
        negative = cursor.take("-") is not None
        number = cursor.take("int")
        if number is None:
            parser._fail(cursor.peek()[2], "expected a rational number")
        value = reference_unsigned_rational(cursor, number[1])
        values.append(-value if negative else value)
        if cursor.peek()[0] == "end":
            return values
        cursor.expect(",", "','")


def outcome(function, text):
    """The value, or the diagnostic of the ParseError, of function(text)."""
    try:
        return function(text)
    except ParseError as err:
        return err.diagnostic


# Pieces the inputs are drawn from: every token class, every whitespace
# character, the non-ASCII digit, space and letter the tokenizer refuses,
# whole terms so that valid inputs are common, and digit runs on either
# side of MAX_DIGITS.
_PIECES = (
    list("0123456789xyAZ-+^/, \t\r\n\u0663\xa0\xe9")
    + ["x", "x^2", "3x", "1/2", "7/3x^3", "x^0", "10", " + ", " - ", ", ", "\r\n"]
    + ["7" * n for n in range(parser.MAX_DIGITS - 1, parser.MAX_DIGITS + 3)]
)
front_end_inputs = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
list_inputs = st.lists(
    st.sampled_from(["3", "-", "5/10", "4/6", ",", ", ", "/", "0", " ", "\t", "\u0663", "x"]),
    max_size=10,
).map("".join)


@settings(max_examples=400)
@given(front_end_inputs)
def test_tokens_and_offsets_match_the_reference(text):
    def tokens(cursor_class):
        return outcome(lambda t: cursor_class(t).tokens, text)

    assert tokens(parser._Cursor) == tokens(ReferenceCursor)


@settings(max_examples=400)
@given(front_end_inputs)
def test_parse_polynomial_matches_the_reference(text):
    assert outcome(parse_polynomial, text) == outcome(reference_parse_polynomial, text)


@settings(max_examples=400)
@given(st.one_of(front_end_inputs, list_inputs))
def test_parse_rational_list_matches_the_reference(text):
    expected = outcome(reference_parse_rational_list, text)
    assert outcome(parse_rational_list, text) == expected


@pytest.mark.parametrize(
    "text",
    ["-x^2 + 1/2x^2 + 3x - 3x + 2", "3x^2 + x - 1/3x^2 + 1/2", "-x - y", "x +\t\r\n 2 \xe9"],
)
def test_pinned_inputs_match_the_reference(text):
    assert outcome(parse_polynomial, text) == outcome(reference_parse_polynomial, text)
    assert outcome(parse_rational_list, text) == outcome(reference_parse_rational_list, text)


def test_rational_list_entries_are_reduced_and_signed():
    values = parse_rational_list("-5/10, 4/6, 3, -0")
    assert values == reference_parse_rational_list("-5/10, 4/6, 3, -0")
    assert [(v.numerator, v.denominator) for v in values] == [(-1, 2), (2, 3), (3, 1), (0, 1)]
