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
leading coefficient, which leaves the roots unchanged. ``_alternate``
is the one place that sign convention is written; ``to_signed`` and
``from_signed`` both go through it.

The records, and every exported function that takes a sequence of
coefficients, roots or power sums, make those values exact with
:func:`exact`, the one place that rule is written. ``InternalError``, what
a kernel raises when one of its self-checks fails, is defined beside it,
so that no route module imports another for it.

``poly_from_roots`` runs in ``int``, scaling each factor (b*x - a) by
its own root's denominator and never by the lcm B of
:func:`clear_denominators`, on which ``from-roots`` sums the roots.

``Record``, the base of the immutable records, is not a dataclass: importing
``dataclasses`` and building eight classes' methods took over half the import.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

# A root multiset is any sequence of exact rationals; repeats allowed,
# order irrelevant (every consumer is a symmetric function of it).
RootMultiset = Sequence[Fraction]


def exact(values: Iterable[Fraction | int]) -> list[Fraction]:
    """The values as a new list of reduced ``Fraction``s.

    A value that is already a ``Fraction`` is kept as it is, not rebuilt: a
    ``Fraction`` is immutable and always reduced, and rebuilding one costs
    about as much as the arithmetic that made it. Anything else (an int, a
    ``Fraction`` subclass) is converted to a reduced ``Fraction``.

    The result is a list because tuples and star-arguments on a request's
    path are built from lists, never from generators. CPython sizes a tuple
    built from a generator by a guess and then resizes it, so the freed
    tuple lands in another size's free list; in a process that serves many
    requests those free lists fill up to their cap, about 2.5 MB held until
    the cyclic garbage collector's next full pass, which may not come for a
    long time.
    """
    return [v if type(v) is Fraction else Fraction(v) for v in values]


class InternalError(RuntimeError):
    """A self-check inside a kernel failed; never expected on correct code."""


class Record:
    """Base of the immutable records: the fields are the class annotations, in order.

    ``==``, ``hash`` and ``repr`` are a frozen dataclass's, and writes raise
    ``FrozenInstanceError``. Each subclass's ``__init__`` sets every field
    with ``self.__dict__.update``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ += tuple(cls.__annotations__)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Polynomial(Record):
    """A univariate polynomial with Fraction coefficients; immutable and hashable.

    >>> str(Polynomial([2, -3, 1]))
    'x^2 - 3x + 2'
    """

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[Fraction | int]):
        coeffs = exact(coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        self.__dict__.update(coefficients=tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coefficients) == 1 and not self.coefficients[0]

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
        return Polynomial(
            [
                Fraction(i * c.numerator, c.denominator)
                for i, c in enumerate(self.coefficients[1:], start=1)
            ]
        )

    def monic(self) -> Polynomial:
        """Scale so the leading coefficient is 1; roots are unchanged."""
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        lead = self.leading_coefficient
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coefficients])

    def __mul__(self, scale: Fraction | int) -> Polynomial:
        scale = Fraction(scale)
        return Polynomial([c * scale for c in self.coefficients])

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


class SignedCoefficients(Record):
    """Alternating-sign coefficient view of a monic polynomial.

    ``values[k-1]`` is (-1)^k times the coefficient of x^(n-k), i.e. the
    k-th elementary symmetric function of the roots; the last entry is
    the product of all roots.
    """

    degree: int
    values: tuple[Fraction, ...]

    def __init__(self, degree: int, values: Sequence[Fraction | int]):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        coerced = tuple(exact(values))
        if len(coerced) != degree:
            raise ValueError(f"expected {degree} signed coefficients, got {len(coerced)}")
        self.__dict__.update(degree=degree, values=coerced)

    def truncate(self, k: int) -> SignedCoefficients:
        """The degree-k companion made of the first k signed coefficients.

        Keeping the leading coefficients intact is what makes the first
        k power sums of the companion agree with the original's.
        """
        if not 0 <= k <= self.degree:
            raise ValueError(f"truncation degree must be in 0..{self.degree}")
        return SignedCoefficients(k, self.values[:k])


def _alternate(values: Sequence[Fraction]) -> list[Fraction]:
    """(-1)^k * v_k for k = 1, 2, ...; its own inverse."""
    return [-v if k % 2 else v for k, v in enumerate(values, start=1)]


def to_signed(p: Polynomial) -> SignedCoefficients:
    """Signed-coefficient view of ``p`` after monic normalization."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no signed-coefficient view")
    return SignedCoefficients(p.degree, _alternate(p.monic().coefficients[-2::-1]))


def from_signed(s: SignedCoefficients) -> Polynomial:
    """Monic polynomial with the given signed coefficients.

    Inverse of :func:`to_signed` on monic polynomials; degree 0 gives
    the constant 1 (empty product).
    """
    return Polynomial([*_alternate(s.values)[::-1], 1])


def clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times S as ints, and S, the lcm of their denominators.

    The checks in :mod:`rootsums.series` and :mod:`rootsums.roots` scale
    each identity by such an S, taken from the values they are handed.
    """
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


# Every zero residual is this one value; a Fraction is built only for a nonzero one.
_ZERO = Fraction(0)


def poly_from_roots(roots: RootMultiset) -> Polynomial:
    """Monic polynomial with exactly the given roots: prod of (x - r).

    Multiplies out prod of (b*x - a) over the roots r = a/b in plain
    ``int``, each factor with its root's own denominator, and divides
    every coefficient by prod of b (the leading coefficient) on the way
    out.
    """
    if not roots:
        raise ValueError("at least one root is required")
    coeffs = [1]
    lead = 1
    for r in exact(roots):
        a, b = r.numerator, r.denominator
        # Multiply by (b*x - a): new[i] = b*old[i-1] - a*old[i].
        coeffs = [b * hi - a * lo for hi, lo in zip([0, *coeffs], [*coeffs, 0])]
        lead *= b
    return Polynomial([Fraction(c, lead) for c in coeffs])


def elementary_symmetric(roots: RootMultiset, k: int) -> Fraction:
    """Sum of the products of k distinct roots, by direct enumeration.

    Deliberately enumerates all k-subsets rather than reusing the
    product expansion of :func:`poly_from_roots`, so the two stay
    independent cross-checks of each other. Exponential in len(roots);
    callers pass small multisets.
    """
    if not 0 <= k <= len(roots):
        raise ValueError(f"k must be in 0..{len(roots)}")
    total = Fraction(0)
    for combo in itertools.combinations(exact(roots), k):
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
    return Polynomial(reversed(p.coefficients)).monic()
