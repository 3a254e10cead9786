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

The tokenizer splits the input in one ``findall`` pass into runs of
whitespace, runs of ASCII digits and single characters, then classifies
each piece by its first character; a piece's offset is the running sum
of the lengths before it. The trade-off: ``findall`` splits the whole
input before the first failure is reported. That holds one str per
piece, less than the one 3-tuple per token that a valid input of the
same length keeps anyway.

Each coefficient is built as one ``Fraction`` from its sign, numerator
and denominator; like terms are added only when an exponent repeats.

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
from fractions import Fraction
from typing import NoReturn

from .polynomial import Polynomial, Record

# Exponents are capped so a hostile input cannot demand a gigantic dense
# coefficient table; well above any degree this tool is used at.
MAX_EXPONENT = 10_000

# Integer tokens are refused past CPython's default int-string limit, so
# no input string longer than that ever reaches int() (whose cost is
# quadratic in the length), whatever limit the interpreter has set.
MAX_DIGITS = 4300

# Runs of whitespace, runs of digits, and any other single character. The
# classes are spelled out in ASCII because \d, \s and \w, and str.isdigit
# and friends, also match non-ASCII digits, spaces and letters, which are
# unexpected characters here.
_SPACE = " \t\r\n"
_PIECES = re.compile(f"[{_SPACE}]+|[0-9]+|.", re.DOTALL)
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_OPERATORS = frozenset("-+^/,")


class ParseDiagnostic(Record):
    """Where and why an input was rejected.

    ``offset`` indexes the offending character, or is one past the end
    when the input stopped too early.
    """

    offset: int
    message: str
    expected: tuple[str, ...]

    def __init__(self, offset: int, message: str, expected: tuple[str, ...] = ()):
        self.__dict__.update(offset=offset, message=message, expected=expected)

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
        tokens: list[tuple[str, str, int]] = []
        offset = 0
        for piece in _PIECES.findall(text):
            first = piece[0]
            if first in _DIGITS:
                if len(piece) > MAX_DIGITS:
                    _fail(offset, f"integer has more than {MAX_DIGITS} digits")
                tokens.append(("int", piece, offset))
            elif first in _LETTERS:
                tokens.append(("letter", piece, offset))
            elif first in _OPERATORS:
                tokens.append((piece, piece, offset))
            elif first not in _SPACE:
                _fail(offset, f"unexpected character {piece!r}")
            offset += len(piece)
        tokens.append(("end", "", offset))
        self.tokens = tokens
        self.pos = 0

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


def _rational(cursor: _Cursor, sign: int, numerator: str) -> Fraction:
    """sign times the rational whose numerator digits the caller has just taken."""
    if not cursor.take("/"):
        return Fraction(sign * int(numerator))
    _, digits, offset = cursor.expect("int", "a positive denominator")
    den = int(digits)
    if den == 0:
        _fail(offset, "denominator must be a positive integer")
    return Fraction(sign * int(numerator), den)


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
        coeff = Fraction(sign) if number is None else _rational(cursor, sign, number[1])
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
        if exponent in terms:
            coeff += terms[exponent]
        terms[exponent] = coeff

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
        sign = -1 if cursor.take("-") else 1
        number = cursor.take("int")
        if number is None:
            _fail(cursor.peek()[2], "expected a rational number")
        values.append(_rational(cursor, sign, number[1]))
        if cursor.peek()[0] == "end":
            return values
        cursor.expect(",", "','")
