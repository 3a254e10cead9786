"""Formal series in descending powers of x, and the log-derivative route.

Expanding x*p'(x)/p(x) as a series in 1/x gives

    x p'/p = n + p_1/x + p_2/x^2 + ...

with n the degree and p_k the k-th power sum of the roots: each root r
contributes x/(x-r) = 1 + r/x + r^2/x^2 + ..., and the expansion
collects all of them at once. The kernel divides x*p' - n*p by p, which
leaves p_1/x + p_2/x^2 + ..., and sets p_0 = n, as the recurrence does.
The division algorithm below computes that series straight from the
coefficients, so no roots are ever needed. This route is fully
independent of the recurrences in :mod:`rootsums.newton` and serves as
their cross-check. The same values, one power of x down, are the
series of p'/p that the ``series`` command prints.

Series support here is only what the expansion needs: truncated division
in descending powers and truncated multiplication by a polynomial. There
is no general series ring.

The division runs in plain ``int`` after x -> x/s, with an s of its own
(:func:`_scale`: greedy, then the least exponent at every prime below
100 that greedy took more than once), and its kernels return those
integers and s; the public functions reduce them to ``Fraction``. The
multiply-back check reads a series as the (P, s) it was given and
clears p by p's own denominators; it picks no scale of its own. See
README's "Denominator scaling".
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, sub
from typing import Sequence

from .polynomial import _ZERO, InternalError, Polynomial, Record, clear_denominators, exact


class DescendingSeries(Record):
    """Truncated formal series in descending powers of x.

    ``terms[j]`` is the coefficient of x**(start_exponent - j). Exactly
    ``order`` == len(terms) coefficients are represented; everything
    below the truncation is unknown (not zero), while exponents above
    ``start_exponent`` are zero.
    """

    start_exponent: int
    terms: tuple[Fraction, ...]

    def __init__(self, start_exponent: int, terms: Sequence[Fraction | int]):
        coerced = exact(terms)
        if not coerced:
            raise ValueError("a series carries at least one term")
        self.__dict__.update(start_exponent=start_exponent, terms=tuple(coerced))

    @property
    def order(self) -> int:
        return len(self.terms)

    def coefficient(self, exponent: int) -> Fraction:
        """Coefficient of x**exponent; asking below the truncation is an error."""
        j = self.start_exponent - exponent
        if j < 0:
            return Fraction(0)
        if j >= len(self.terms):
            raise ValueError(f"x^{exponent} is below the truncation")
        return self.terms[j]

    def __str__(self) -> str:
        return descending_text(self.start_exponent, self.terms)


def descending_text(start_exponent: int, coefficients: Sequence[Fraction | str]) -> str:
    """Render a descending series from its coefficients or their "num/den" strings.

    ``coefficients[j]`` is the coefficient of x**(start_exponent - j).
    Each goes through ``str()``, which leaves a string unchanged: a
    leading "-" gives the sign, and a "/" puts the magnitude in
    parentheses. Taking strings lets a caller that converts the values
    anyway reuse them.
    """
    parts: list[str] = []
    for j, c in enumerate(map(str, coefficients)):
        exponent = start_exponent - j
        negative = c.startswith("-")
        mag = c[1:] if negative else c
        num = f"({mag})" if "/" in mag else mag
        if exponent < 0:
            den = "x" if exponent == -1 else f"x^{-exponent}"
            body = f"{num}/{den}"
        elif exponent == 0:
            body = num
        else:
            var = "x" if exponent == 1 else f"x^{exponent}"
            body = f"{num}{var}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


# The primes at which _scale looks for a smaller exponent than greedy's: a
# fixed list, since finding larger ones would mean factoring denominators.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _scale(den: Sequence[Fraction], num: Sequence[Fraction]) -> int:
    """A scale s with den(c) dividing s^(n-i) for coefficient i of either list.

    ``den`` holds the n low coefficients of the monic denominator and
    ``num`` at most n numerator coefficients, lowest first. Greedy in
    the exponent e = n - i = 1, 2, ...: s takes on the part of den(c)
    that s^e does not cover yet. No prime's exponent in s ever exceeds
    its exponent in the lcm of the denominators, so s divides that lcm.

    Then each prime q below 100 that greedy took more than once is cut
    to the least exponent that still clears every coefficient, the
    largest ⌈v_q(den c)/e⌉ over both lists; a prime taken once is
    already least, and larger primes keep greedy's exponent. So s
    divides greedy's, and for p = c·Π(x − r) over rational roots r whose
    denominators have only primes below 100, s is their lcm.
    """
    n = len(den)
    lists = [c.denominator for c in den], [c.denominator for c in num]
    s = 1
    for e in range(1, n + 1):
        for dens in lists:
            if n - e < len(dens):
                d = dens[n - e]
                s *= d // math.gcd(d, s**e)
    for q in _SMALL_PRIMES:
        if q * q > s:
            break
        if s % (q * q) == 0:
            need = 0
            for dens in lists:
                for i, d in enumerate(dens):
                    while d % q ** (need * (n - i) + 1) == 0:
                        need += 1
            while s % q == 0:
                s //= q
            s *= q**need
    return s


def scaled_quotient(numerator: Polynomial, denominator: Polynomial, order: int) -> tuple[list[int], int]:
    """C_1..C_order and s, with c_j = C_j / s**j the terms of numerator/denominator.

    The series is c_1/x + c_2/x^2 + ... + c_order/x^order: the unique
    one with numerator/denominator minus the series vanishing to order
    x^(-order-1). Computed by long division that keeps only a remainder
    of n = deg(denominator) coefficients: each step multiplies the
    remainder by x, takes its x^n coefficient as the next c_j, and
    subtracts c_j times the monic denominator, so the terms come out in
    order. Requires deg(numerator) < deg(denominator) so the expansion
    starts at 1/x or lower.

    The division runs on plain ``int``. Both polynomials are first
    divided by the denominator's leading coefficient. With n =
    deg(denominator), substituting x -> x/s and multiplying through by
    s^n turns coefficient i of either into s^(n-i) times itself, so a
    scale s with each such denominator dividing s^(n-i) gives a monic
    integer denominator Q(x) and an integer numerator N'(x). Their
    quotient series has integer coefficients C_j, and c_j = C_j / s^j.
    :func:`_scale` picks s greedily, then cuts each prime below 100
    that greedy took more than once to the least exponent that works.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("series division by the zero polynomial")
    if order < 1:
        raise ValueError("order must be at least 1")
    if not numerator.is_zero and numerator.degree >= denominator.degree:
        raise ValueError(
            "numerator degree must be strictly below denominator degree"
        )
    width = denominator.degree
    lead = denominator.leading_coefficient
    den = denominator.coefficients[:-1]
    num = numerator.coefficients
    if lead != 1:
        den = [d / lead for d in den]
        num = [c / lead for c in num]
    scale = _scale(den, num)
    powers = [scale ** (width - i) for i in range(width)]

    def scaled(coeffs):
        # Coefficient i of Q or N' is s^(n-i) times the monic one.
        out = []
        for c, power in zip(coeffs, powers):
            factor, rest = divmod(power, c.denominator)
            if rest:
                raise InternalError(f"scale {scale} leaves the coefficient {c} fractional")
            out.append(c.numerator * factor)
        return out

    low = scaled(den)
    rem = scaled(num) + [0] * (width - len(num))  # x^i coefficient at i
    quotient = []  # C_1, C_2, ...
    for _ in range(order):
        # x times the remainder: its x^n coefficient is the next C_j.
        rem.insert(0, 0)
        top = rem.pop()
        quotient.append(top)
        if top:
            rem = list(map(sub, rem, map(top.__mul__, low)))
    return quotient, scale


def _reduced(values: list[int], scale: int, power: int) -> list[Fraction]:
    """values[j] / (power * s**j) for j = 0, 1, ..., each a reduced Fraction.

    ``power`` is 1 or s, so s = 1 leaves every value an integer.
    """
    if scale == 1:
        return [Fraction(v) for v in values]
    terms = []
    for v in values:
        terms.append(Fraction(v, power))
        power *= scale
    return terms


def divide_descending(numerator: Polynomial, denominator: Polynomial, order: int) -> DescendingSeries:
    """Expand numerator/denominator as c_1/x + c_2/x^2 + ... + c_order/x^order.

    The terms of :func:`scaled_quotient`, reduced.
    """
    quotient, scale = scaled_quotient(numerator, denominator, order)
    return DescendingSeries(-1, _reduced(quotient, scale, scale))


def scaled_log_derivative(p: Polynomial, k_max: int) -> tuple[list[int], int]:
    """P_0..P_k_max and s, with p_k = P_k / s**k, from x*p'(x)/p(x).

    The quotient (x*p' - n*p)/p is p_1/x + p_2/x^2 + ..., and P_0 = n.
    Coefficient i of x*p' - n*p is (i - n)*c_i, so its degree is below n
    and its denominators divide those of p's at the same exponent: the
    scale is the one p alone asks for. Scaling p by a nonzero constant
    cancels in the quotient, so non-monic input needs no normalization.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("log-derivative expansion needs degree at least 1")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    n = p.degree
    shifted = [Fraction((i - n) * c.numerator, c.denominator) for i, c in enumerate(p.coefficients)]
    quotient, scale = scaled_quotient(Polynomial(shifted), p, max(k_max, 1))
    return [n, *quotient[:k_max]], scale


def log_derivative_power_sums(p: Polynomial, k_max: int) -> list[Fraction]:
    """p_0..p_k_max read off the descending expansion of p'(x)/p(x).

    The values of :func:`scaled_log_derivative`, reduced.
    """
    return _reduced(*scaled_log_derivative(p, k_max), 1)


def _product(terms: list[int], coeffs: list[int]) -> list[int]:
    """Truncated product of integer series terms and ascending coefficients.

    Entry u collects coeffs[j] * terms[u + j - n] over the j that reach a
    known series term, so the product keeps as many terms as the series.
    """
    n = len(coeffs) - 1
    return [
        sum(map(mul, coeffs[max(0, n - u) :], terms[max(0, u - n) : u + 1]))
        for u in range(len(terms))
    ]


def multiply_by_polynomial(series: DescendingSeries, poly: Polynomial) -> DescendingSeries:
    """Truncated product series * poly.

    The product keeps as many terms as the series carries: with K known
    series coefficients, exponents from start+deg(poly) down through
    start+deg(poly)-K+1 are fully determined. It is formed in ``int``
    as (D * series) * (M * poly), with D and M the lcms of the series'
    and poly's denominators, and divided by D*M on the way out.
    """
    terms, d = clear_denominators(series.terms)
    coeffs, m = clear_denominators(poly.coefficients)
    product = [Fraction(v, d * m) for v in _product(terms, coeffs)]
    return DescendingSeries(series.start_exponent + poly.degree, product)


class CrossCheckReport(Record):
    """Residuals of (series for p'/p) * p - p', one per representable exponent."""

    residuals: tuple[tuple[int, Fraction], ...]  # (exponent, value), descending

    def __init__(self, residuals: tuple[tuple[int, Fraction], ...]):
        self.__dict__.update(residuals=residuals)

    @property
    def ok(self) -> bool:
        return all(value == 0 for _, value in self.residuals)

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        for exponent, value in self.residuals:
            if value != 0:
                return exponent, value
        return None


def _residuals(
    p: Polynomial, start_exponent: int, terms: list[int], scale: int, d: int
) -> CrossCheckReport:
    """The residuals of (series) * p - p', computed in ``int``.

    The series' coefficient of x**(start_exponent - i) is
    terms[i] / (d * scale**i). Row u of the product touches terms 0..u
    only, so it is cleared by M * d * scale**u, with M the lcm of p's
    denominators and B_j = M times p's coefficient j: the term
    i = u + j - n then comes with B_j * scale**(n-j), whatever u is.
    The residual's Fraction is built only when it is nonzero.
    """
    coeffs, m = clear_denominators(p.coefficients)
    n = p.degree
    weighted = [b * scale ** (n - j) for j, b in enumerate(coeffs)]
    start = start_exponent + n
    residuals: list[tuple[int, Fraction]] = []
    for u, value in enumerate(_product(terms, weighted)):
        exponent = start - u
        if 0 <= exponent < n:  # the rows that carry p'
            value -= (exponent + 1) * coeffs[exponent + 1] * d * scale**u
        residuals.append((exponent, Fraction(value, m * d * scale**u) if value else _ZERO))
    return CrossCheckReport(tuple(residuals))


def scaled_cross_check(p: Polynomial, quotient: list[int], scale: int) -> CrossCheckReport:
    """The cross-multiplied check on p'/p as :func:`scaled_log_derivative` returns it.

    ``quotient`` and ``scale`` are P_0, P_1, ... and s, the series
    P_0/x + P_1/(s x^2) + P_2/(s^2 x^3) + ...; nothing is reduced.
    """
    return _residuals(p, -1, quotient, scale, 1)


def cross_multiplied_check(
    p: Polynomial, k_max: int, *, series: DescendingSeries | None = None
) -> CrossCheckReport:
    """Check the expansion of p'/p by multiplying it back by p.

    Forms (series) * p as a truncated descending series, subtracts p',
    and reports the residual at every representable exponent; all must
    vanish, coefficient by coefficient. Passing ``series`` overrides the
    computed expansion, which lets a deliberately corrupted series
    demonstrate that the check actually detects errors.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("cross-multiplied check needs degree at least 1")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if series is None:
        return scaled_cross_check(p, *scaled_log_derivative(p, k_max))
    # A given series is cleared by D, the lcm of its terms' denominators.
    terms, d = clear_denominators(series.terms)
    return _residuals(p, series.start_exponent, terms, 1, d)
