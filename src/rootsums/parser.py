"""Text front end: polynomial expressions and rational lists.

Polynomial grammar (LL(1) over the token stream):

    expression  = ['-'] term (('+' | '-') term)*
    term        = [coefficient] [variable ['^' exponent]]
    coefficient = integer | integer '/' positive-integer
    variable    = single ASCII letter, consistent within one input
    exponent    = nonnegative integer

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

from dataclasses import dataclass
from typing import NoReturn

from .scalar import ONE, ExactScalar
from .polynomial import Polynomial

# Exponents are capped so a hostile input cannot demand a gigantic dense
# coefficient table; well above any degree this tool is used at.
MAX_EXPONENT = 10_000

# Integer tokens are refused past CPython's default int-string limit, so
# no input string longer than that ever reaches int() (whose cost is
# quadratic in the length), whatever limit the interpreter has set.
MAX_DIGITS = 4300

_DIGITS = "0123456789"
_OPERATORS = {"+": "plus", "-": "minus", "^": "caret", "/": "slash", ",": "comma"}


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


@dataclass(frozen=True)
class _Token:
    kind: str  # int | letter | plus | minus | caret | slash | comma | end
    text: str
    offset: int


def _is_ascii_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _DIGITS:
            j = i + 1
            while j < size and text[j] in _DIGITS:
                j += 1
            if j - i > MAX_DIGITS:
                _fail(i, f"integer has more than {MAX_DIGITS} digits")
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if _is_ascii_letter(ch):
            tokens.append(_Token("letter", ch, i))
            i += 1
            continue
        kind = _OPERATORS.get(ch)
        if kind is None:
            _fail(i, f"unexpected character {ch!r}")
        tokens.append(_Token(kind, ch, i))
        i += 1
    tokens.append(_Token("end", "", size))
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token:
        return self._tokens[self._pos]

    def advance(self) -> _Token:
        token = self._tokens[self._pos]
        if token.kind != "end":
            self._pos += 1
        return token

    def expect(self, kind: str, description: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            _fail(token.offset, f"expected {description}", (description,))
        return self.advance()


def _parse_unsigned_rational(stream: _TokenStream) -> ExactScalar:
    num_token = stream.expect("int", "an integer")
    value = ExactScalar(int(num_token.text))
    if stream.peek().kind == "slash":
        stream.advance()
        den_token = stream.expect("int", "a positive denominator")
        den = int(den_token.text)
        if den == 0:
            _fail(den_token.offset, "denominator must be a positive integer")
        value /= den
    return value


class _PolynomialParser:
    def __init__(self, stream: _TokenStream, max_exponent: int):
        self.stream = stream
        self.max_exponent = max_exponent
        self.variable: str | None = None

    def parse(self) -> dict[int, ExactScalar]:
        terms: dict[int, ExactScalar] = {}
        sign = 1
        head = self.stream.peek()
        if head.kind == "minus":
            self.stream.advance()
            sign = -1
            if self.stream.peek().kind == "minus":
                _fail(self.stream.peek().offset, '"--" is not allowed')
        while True:
            coeff, exponent = self._term()
            terms[exponent] = terms.get(exponent, ExactScalar(0)) + sign * coeff
            token = self.stream.peek()
            if token.kind == "end":
                return terms
            if token.kind not in ("plus", "minus"):
                _fail(token.offset, "expected an operator", ("'+'", "'-'"))
            self.stream.advance()
            sign = 1 if token.kind == "plus" else -1
            follower = self.stream.peek()
            if follower.kind == "minus":
                if token.kind == "minus":
                    _fail(follower.offset, '"--" is not allowed')
                self.stream.advance()  # unary minus after '+'
                sign = -1
                if self.stream.peek().kind == "minus":
                    _fail(self.stream.peek().offset, '"--" is not allowed')

    def _term(self) -> tuple[ExactScalar, int]:
        token = self.stream.peek()
        coeff: ExactScalar | None = None
        if token.kind == "int":
            coeff = _parse_unsigned_rational(self.stream)
        saw_variable = False
        exponent = 0
        token = self.stream.peek()
        if token.kind == "letter":
            self.stream.advance()
            self._check_variable(token)
            saw_variable = True
            exponent = 1
            if self.stream.peek().kind == "caret":
                self.stream.advance()
                exp_token = self.stream.peek()
                if exp_token.kind == "minus":
                    _fail(exp_token.offset, "exponent must be a nonnegative integer")
                exp_token = self.stream.expect("int", "a nonnegative exponent")
                exponent = int(exp_token.text)
                if exponent > self.max_exponent:
                    _fail(
                        exp_token.offset,
                        f"exponent exceeds the supported maximum of {self.max_exponent}",
                    )
        if coeff is None and not saw_variable:
            _fail(token.offset, "expected a term", ("an integer", "a variable"))
        return (ONE if coeff is None else coeff), exponent

    def _check_variable(self, token: _Token) -> None:
        if self.variable is None:
            self.variable = token.text
        elif token.text != self.variable:
            _fail(
                token.offset,
                f"inconsistent variable {token.text!r}, the input already uses {self.variable!r}",
            )


def parse_polynomial(text: str, *, max_exponent: int = MAX_EXPONENT) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    Raises ParseError on malformed input, inconsistent variables,
    negative or oversized exponents, and input that combines to the
    zero polynomial.
    """
    stream = _TokenStream(_tokenize(text))
    terms = _PolynomialParser(stream, max_exponent).parse()
    coeffs = [ExactScalar(0)] * (max(terms) + 1)
    for exponent, value in terms.items():
        coeffs[exponent] = value
    result = Polynomial(coeffs)
    if result.is_zero:
        _fail(0, "input combines to the zero polynomial")
    return result


def parse_rational_list(text: str) -> list[ExactScalar]:
    """Parse comma-separated rationals ("1, -4, 5/10") into scalars.

    Entries canonicalize on the way in (5/10 becomes 1/2). An empty
    input, an empty slot, or trailing garbage raises ParseError with the
    offset of the problem.
    """
    stream = _TokenStream(_tokenize(text))
    values: list[ExactScalar] = []
    while True:
        token = stream.peek()
        negative = False
        if token.kind == "minus":
            stream.advance()
            negative = True
        if stream.peek().kind != "int":
            _fail(stream.peek().offset, "expected a rational number")
        value = _parse_unsigned_rational(stream)
        values.append(-value if negative else value)
        token = stream.peek()
        if token.kind == "end":
            return values
        if token.kind != "comma":
            _fail(token.offset, "expected ','", ("','",))
        stream.advance()
