"""Formal series in descending powers of x, and the log-derivative route.

Expanding p'(x)/p(x) as a series 1/x-first gives

    p'/p = n/x + p_1/x^2 + p_2/x^3 + ...

with n the degree and p_k the k-th power sum of the roots: each root r
contributes the geometric series 1/(x-r) = 1/x + r/x^2 + r^2/x^3 + ...,
and the expansion collects all of them at once. The division algorithm
below computes that collected series straight from the coefficients, so
no roots are ever needed. This route is fully independent of the
recurrences in :mod:`rootsums.newton` and serves as their cross-check.

Series support here is only what the expansion needs: truncated division
in descending powers and truncated multiplication by a polynomial. There
is no general series ring.

The division clears denominators once (x -> x/L, see
:func:`divide_descending`) and runs in plain ``int``; the series it
returns holds reduced ``Fraction`` coefficients. It computes its own L,
sharing no code with the recurrence. Multiplying the series back by p
in :func:`cross_multiplied_check` stays on unscaled ``Fraction``
arithmetic, so that check does not rely on the scaling it verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .polynomial import Polynomial


@dataclass(frozen=True)
class DescendingSeries:
    """Truncated formal series in descending powers of x.

    ``terms[j]`` is the coefficient of x**(start_exponent - j). Exactly
    ``order`` == len(terms) coefficients are represented; everything
    below the truncation is unknown (not zero), while exponents above
    ``start_exponent`` are zero.
    """

    start_exponent: int
    terms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(Fraction(t) for t in self.terms))
        if not self.terms:
            raise ValueError("a series carries at least one term")

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
        parts: list[str] = []
        for j, c in enumerate(self.terms):
            exponent = self.start_exponent - j
            mag = abs(c)
            num = str(mag) if mag.denominator == 1 else f"({mag})"
            if exponent < 0:
                den = "x" if exponent == -1 else f"x^{-exponent}"
                body = f"{num}/{den}"
            elif exponent == 0:
                body = num
            else:
                var = "x" if exponent == 1 else f"x^{exponent}"
                body = f"{num}{var}"
            if not parts:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c >= 0 else f" - {body}")
        return "".join(parts)


def divide_descending(numerator: Polynomial, denominator: Polynomial, order: int) -> DescendingSeries:
    """Expand numerator/denominator as c_1/x + c_2/x^2 + ... + c_order/x^order.

    The result is the unique series with numerator/denominator minus the
    series vanishing to order x^(-order-1). Computed by iterated long
    division: shift the numerator up by x^order, divide, and read the
    series coefficients off the quotient (quotient exponent order - j
    carries c_j). Requires deg(numerator) < deg(denominator) so the
    expansion starts at 1/x or lower.

    The division runs on plain ``int``. Both polynomials are first
    divided by the denominator's leading coefficient; with L the lcm of
    all remaining denominators and n = deg(denominator), substituting
    x -> x/L and multiplying through by L^n gives a monic integer
    denominator Q(x) and an integer numerator N'(x). Their quotient
    series has integer coefficients C_j, and c_j = C_j / L^j.
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
    den = [d / lead for d in denominator.coefficients[:-1]]
    num = [c / lead for c in numerator.coefficients]
    scale = math.lcm(*(c.denominator for c in den + num))

    def scaled(coeffs):
        # Coefficient i of Q or N' is L^(n-i) times the monic one; every
        # i here is below n, so each is an integer.
        return [
            c.numerator * (scale // c.denominator) * scale ** (width - 1 - i)
            for i, c in enumerate(coeffs)
        ]

    low = scaled(den)
    work = [0] * order + scaled(num)
    quotient = [0] * order
    for exp in range(len(work) - 1, width - 1, -1):
        top = work[exp]
        if top == 0:
            continue
        shift = exp - width
        quotient[shift] = top
        work[shift:exp] = map(sub, work[shift:exp], map(top.__mul__, low))
    if scale == 1:
        return DescendingSeries(-1, tuple(reversed(quotient)))
    terms = []
    power = 1
    for c in reversed(quotient):
        power *= scale
        terms.append(Fraction(c, power))
    return DescendingSeries(-1, tuple(terms))


def log_derivative_power_sums(p: Polynomial, k_max: int) -> list[Fraction]:
    """p_0..p_k_max read off the descending expansion of p'(x)/p(x).

    The 1/x coefficient is the degree and the 1/x^(k+1) coefficient is
    the k-th power sum. Scaling p by a nonzero constant cancels in
    p'/p, so non-monic input needs no normalization.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("log-derivative expansion needs degree at least 1")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    series = divide_descending(p.derivative(), p, k_max + 1)
    return list(series.terms)


def multiply_by_polynomial(series: DescendingSeries, poly: Polynomial) -> DescendingSeries:
    """Truncated product series * poly.

    The product keeps as many terms as the series carries: with K known
    series coefficients, exponents from start+deg(poly) down through
    start+deg(poly)-K+1 are fully determined.
    """
    zero = Fraction(0)
    if poly.is_zero:
        return DescendingSeries(series.start_exponent, (zero,) * series.order)
    n = poly.degree
    out: list[Fraction] = []
    for u in range(series.order):
        acc = zero
        for j, c in enumerate(poly.coefficients):
            if c == 0:
                continue
            idx = u + j - n  # series term index feeding exponent (start+n-u)
            if idx < 0:
                continue  # above the series start, coefficient zero
            acc += c * series.terms[idx]
        out.append(acc)
    return DescendingSeries(series.start_exponent + n, tuple(out))


@dataclass(frozen=True)
class CrossCheckReport:
    """Residuals of (series for p'/p) * p - p', one per representable exponent."""

    residuals: tuple[tuple[int, Fraction], ...]  # (exponent, value), descending

    @property
    def ok(self) -> bool:
        return all(value == 0 for _, value in self.residuals)

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        for exponent, value in self.residuals:
            if value != 0:
                return exponent, value
        return None


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
        series = divide_descending(p.derivative(), p, k_max + 1)
    product = multiply_by_polynomial(series, p)
    deriv = p.derivative()
    residuals: list[tuple[int, Fraction]] = []
    for j, value in enumerate(product.terms):
        exponent = product.start_exponent - j
        expected = (
            deriv.coefficients[exponent] if 0 <= exponent <= deriv.degree else 0
        )
        residuals.append((exponent, value - expected))
    return CrossCheckReport(tuple(residuals))
