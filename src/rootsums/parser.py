"""Text front end: polynomial expressions and rational lists.

Polynomial grammar (LL(1) over the token stream):

    expression  = ['-'] term (('+' | '-') term)*
    term        = [coefficient] [variable ['^' exponent]]
    coefficient = integer | integer '/' positive-integer
    variable    = single ASCII letter, consistent within one input
    exponent    = nonnegative integer

Tokens are runs of ASCII digits, single ASCII letters and ``+ - ^ / ,``;
any other character but space, tab, CR and LF is an error. The whole
input is tokenized first, so a bad character or an over-long integer is
reported ahead of an earlier grammar error.

Multiplication between coefficient and variable is implicit ("1/2x"
binds as (1/2)*x), whitespace is insignificant, like terms are combined,
and an input that combines to the zero polynomial is rejected. A unary
minus is allowed at the head and after an operator, but "--" never is.

Every failure raises :class:`ParseError` carrying a diagnostic with the
offset of the offending character; parsing never raises anything else,
whatever bytes come in. That includes integers longer than
``MAX_DIGITS``, which are refused before conversion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NoReturn

from .polynomial import Polynomial

# Exponents are capped so a hostile input cannot demand a gigantic dense
# coefficient table; well above any degree this tool is used at.
MAX_EXPONENT = 10_000

# Integer tokens are refused past CPython's default int-string limit, so
# no input string longer than that ever reaches int() (whose cost is
# quadratic in the length), whatever limit the interpreter has set.
MAX_DIGITS = 4300

# One alternative per token kind. The classes are spelled out in ASCII
# because \d, \s and \w also match non-ASCII digits, spaces and letters,
# which are unexpected characters here.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<int>[0-9]+)|(?P<letter>[A-Za-z])|(?P<op>[-+^/,])|(?P<bad>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    """Where and why an input was rejected.

    ``offset`` indexes the offending character, or is one past the end
    when the input stopped too early.
    """

    offset: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"offset {self.offset}: {self.message}"
        if self.expected:
            text += f" (expected {', '.join(self.expected)})"
        return text


class ParseError(ValueError):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


def _fail(offset: int, message: str, expected: tuple[str, ...] = ()) -> NoReturn:
    raise ParseError(ParseDiagnostic(offset, message, expected))


class _Cursor:
    """The tokens of one input, read left to right.

    A token is a ``(kind, text, offset)`` tuple. The kind of an operator
    is its own character; the others are "int", "letter" and, last of
    all, "end", whose offset is one past the input.
    """

    def __init__(self, text: str):
        self.tokens: list[tuple[str, str, int]] = []
        self.pos = 0
        for match in _TOKEN.finditer(text):
            kind, token, offset = match.lastgroup, match.group(), match.start()
            if kind == "bad":
                _fail(offset, f"unexpected character {token!r}")
            if kind == "int" and len(token) > MAX_DIGITS:
                _fail(offset, f"integer has more than {MAX_DIGITS} digits")
            if kind != "space":
                self.tokens.append((token if kind == "op" else kind, token, offset))
        self.tokens.append(("end", "", len(text)))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int] | None:
        """Consume and return the next token if it has this kind."""
        token = self.tokens[self.pos]
        if token[0] != kind:
            return None
        self.pos += 1
        return token

    def expect(self, kind: str, description: str) -> tuple[str, str, int]:
        token = self.take(kind)
        if token is None:
            _fail(self.peek()[2], f"expected {description}", (description,))
        return token


def _unsigned_rational(cursor: _Cursor, numerator: str) -> Fraction:
    """The rational whose numerator digits the caller has just taken."""
    value = Fraction(int(numerator))
    if cursor.take("/"):
        _, digits, offset = cursor.expect("int", "a positive denominator")
        den = int(digits)
        if den == 0:
            _fail(offset, "denominator must be a positive integer")
        value /= den
    return value


def parse_polynomial(text: str) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    Raises ParseError on malformed input, inconsistent variables,
    negative or oversized exponents, and input that combines to the
    zero polynomial.
    """
    cursor = _Cursor(text)
    variable: str | None = None
    terms: dict[int, Fraction] = {}
    sign = 1  # set by the operator before each term; the head has none
    while True:
        # A unary minus may open the input or follow '+'. Whichever way
        # a '-' was read, the token after it must not be another '-'.
        if sign == 1 and cursor.take("-"):
            sign = -1
        kind, _, offset = cursor.peek()
        if sign == -1 and kind == "-":
            _fail(offset, '"--" is not allowed')

        number = cursor.take("int")
        coeff = Fraction(1)
        if number is not None:
            coeff = _unsigned_rational(cursor, number[1])
        exponent = 0
        letter = cursor.take("letter")
        if letter is not None:
            _, name, offset = letter
            if variable is None:
                variable = name
            elif name != variable:
                _fail(
                    offset,
                    f"inconsistent variable {name!r}, the input already uses {variable!r}",
                )
            exponent = 1
            if cursor.take("^"):
                kind, _, offset = cursor.peek()
                if kind == "-":
                    _fail(offset, "exponent must be a nonnegative integer")
                _, digits, offset = cursor.expect("int", "a nonnegative exponent")
                exponent = int(digits)
                if exponent > MAX_EXPONENT:
                    _fail(
                        offset,
                        f"exponent exceeds the supported maximum of {MAX_EXPONENT}",
                    )
        elif number is None:
            _fail(cursor.peek()[2], "expected a term", ("an integer", "a variable"))
        terms[exponent] = terms.get(exponent, Fraction(0)) + sign * coeff

        kind, _, offset = cursor.peek()
        if kind == "end":
            break
        if not cursor.take("+") and not cursor.take("-"):
            _fail(offset, "expected an operator", ("'+'", "'-'"))
        sign = 1 if kind == "+" else -1

    coeffs = [Fraction(0)] * (max(terms) + 1)
    for exponent, value in terms.items():
        coeffs[exponent] = value
    result = Polynomial(coeffs)
    if result.is_zero:
        _fail(0, "input combines to the zero polynomial")
    return result


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse comma-separated rationals ("1, -4, 5/10") into scalars.

    Entries canonicalize on the way in (5/10 becomes 1/2). An empty
    input, an empty slot, or trailing garbage raises ParseError with the
    offset of the problem.
    """
    cursor = _Cursor(text)
    values: list[Fraction] = []
    while True:
        negative = cursor.take("-") is not None
        number = cursor.take("int")
        if number is None:
            _fail(cursor.peek()[2], "expected a rational number")
        value = _unsigned_rational(cursor, number[1])
        values.append(-value if negative else value)
        if cursor.peek()[0] == "end":
            return values
        cursor.expect(",", "','")
