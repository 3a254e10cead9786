"""Dense univariate polynomials over exact rationals.

Coefficients are stored in ascending powers: index i holds the
coefficient of x**i. The leading (last) coefficient is nonzero, except
for the canonical zero polynomial, stored as the single entry [0]. The
zero polynomial is a legal value (it is what ``derivative`` returns for
a constant) but every root-related operation rejects it.

``SignedCoefficients`` is the alternating-sign view of a monic
polynomial x^n - a1*x^(n-1) + a2*x^(n-2) - ... ± an, in which entry a_k
equals the k-th elementary symmetric function of the roots. Non-monic
input is accepted everywhere and normalized by dividing through by the
leading coefficient, which leaves the roots unchanged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

# A root multiset is any sequence of exact rationals; repeats allowed,
# order irrelevant (every consumer is a symmetric function of it).
RootMultiset = Sequence[Fraction]


@dataclass(frozen=True, init=False)
class Polynomial:
    """A univariate polynomial with Fraction coefficients; immutable and hashable.

    >>> str(Polynomial([2, -3, 1]))
    'x^2 - 3x + 2'
    """

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coeffs = [Fraction(c) for c in coefficients]
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (Fraction(0),)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1]

    def evaluate(self, point: Fraction | int) -> Fraction:
        """Value at ``point`` by Horner's scheme, exact."""
        point = Fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * point + c
        return acc

    def derivative(self) -> Polynomial:
        """Formal derivative; a constant yields the zero polynomial."""
        if self.degree == 0:
            return Polynomial([Fraction(0)])
        return Polynomial([i * c for i, c in enumerate(self.coefficients)][1:])

    def monic(self) -> Polynomial:
        """Scale so the leading coefficient is 1; roots are unchanged."""
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        lead = self.leading_coefficient
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coefficients])

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coefficients])

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial(
            a + b
            for a, b in itertools.zip_longest(
                self.coefficients, other.coefficients, fillvalue=Fraction(0)
            )
        )

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if isinstance(other, Polynomial):
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return Polynomial(out)
        scale = Fraction(other)
        return Polynomial([c * scale for c in self.coefficients])

    __rmul__ = __mul__

    def __str__(self) -> str:
        """Canonical text: descending powers, explicit signs, "num/den"
        rationals, zero terms omitted. Round-trips through the parser.
        """
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for exp in range(self.degree, -1, -1):
            c = self.coefficients[exp]
            if c == 0:
                continue
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "x" if exp == 1 else f"x^{exp}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


@dataclass(frozen=True)
class SignedCoefficients:
    """Alternating-sign coefficient view of a monic polynomial.

    ``values[k-1]`` is (-1)^k times the coefficient of x^(n-k), i.e. the
    k-th elementary symmetric function of the roots; the last entry is
    the product of all roots.
    """

    degree: int
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        coerced = tuple(Fraction(v) for v in self.values)
        if len(coerced) != self.degree:
            raise ValueError(
                f"expected {self.degree} signed coefficients, got {len(coerced)}"
            )
        object.__setattr__(self, "values", coerced)

    def truncate(self, k: int) -> SignedCoefficients:
        """The degree-k companion made of the first k signed coefficients.

        Keeping the leading coefficients intact is what makes the first
        k power sums of the companion agree with the original's.
        """
        if not 0 <= k <= self.degree:
            raise ValueError(f"truncation degree must be in 0..{self.degree}")
        return SignedCoefficients(k, self.values[:k])


def to_signed(p: Polynomial) -> SignedCoefficients:
    """Signed-coefficient view of ``p`` after monic normalization."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no signed-coefficient view")
    coeffs = p.monic().coefficients
    n = len(coeffs) - 1
    values = [coeffs[n - k] if k % 2 == 0 else -coeffs[n - k] for k in range(1, n + 1)]
    return SignedCoefficients(n, tuple(values))


def from_signed(s: SignedCoefficients) -> Polynomial:
    """Monic polynomial with the given signed coefficients.

    Inverse of :func:`to_signed` on monic polynomials; degree 0 gives
    the constant 1 (empty product).
    """
    n = s.degree
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    for k in range(1, n + 1):
        coeffs[n - k] = s.values[k - 1] if k % 2 == 0 else -s.values[k - 1]
    return Polynomial(coeffs)


def poly_from_roots(roots: RootMultiset) -> Polynomial:
    """Monic polynomial with exactly the given roots: prod of (x - r)."""
    if not roots:
        raise ValueError("at least one root is required")
    coeffs = [Fraction(1)]
    for root in roots:
        r = Fraction(root)
        # Multiply by (x - r) in place: new[i] = old[i-1] - r*old[i].
        coeffs.append(Fraction(0))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i - 1] - r * coeffs[i]
        coeffs[0] = -r * coeffs[0]
    return Polynomial(coeffs)


def elementary_symmetric(roots: RootMultiset, k: int) -> Fraction:
    """Sum of the products of k distinct roots, by direct enumeration.

    Deliberately enumerates all k-subsets rather than reusing the
    product expansion of :func:`poly_from_roots`, so the two stay
    independent cross-checks of each other. Exponential in len(roots);
    callers pass small multisets.
    """
    if not 0 <= k <= len(roots):
        raise ValueError(f"k must be in 0..{len(roots)}")
    values = [Fraction(r) for r in roots]
    total = Fraction(0)
    for combo in itertools.combinations(values, k):
        total += math.prod(combo, start=Fraction(1))
    return total


def reciprocal_poly(p: Polynomial) -> Polynomial:
    """Monic polynomial whose roots are the reciprocals of ``p``'s.

    Constructed by reversing the coefficient list and normalizing; an
    involution (up to monic scaling) on polynomials with nonzero
    constant term. A zero root has no reciprocal, hence the precondition.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no reciprocal")
    if p.coefficients[0] == 0:
        raise ValueError("constant term is zero: a zero root has no reciprocal")
    return Polynomial(list(reversed(p.coefficients))).monic()
