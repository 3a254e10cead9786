"""Polynomial storage, conversions, and root-product construction."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, strategies as st

from rootsums import (
    DescendingSeries,
    ExactScalar,
    Polynomial,
    SignedCoefficients,
    coeffs_from_power_sums,
    elementary_symmetric,
    from_signed,
    poly_from_roots,
    power_sums_direct,
    reciprocal_poly,
    to_signed,
    verify_by_substitution,
)

F = ExactScalar

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
root_sets = st.lists(rationals, min_size=1, max_size=5)
nonzero_polys = (
    st.lists(rationals, min_size=1, max_size=7)
    .map(Polynomial)
    .filter(lambda p: not p.is_zero)
)


def test_storage_is_ascending_and_trimmed():
    p = Polynomial([2, -3, 1, 0, 0])
    assert p.coefficients == (F(2), F(-3), F(1))
    assert p.degree == 2
    assert not p.is_zero
    assert Polynomial([0, 0]).is_zero
    with pytest.raises(ValueError):
        Polynomial([])


def test_to_signed_examples():
    s = to_signed(Polynomial([2, -3, 1]))
    assert (s.degree, s.values) == (2, (F(3), F(2)))
    # scaling does not move the roots
    s2 = to_signed(Polynomial([4, -6, 2]))
    assert s2 == s
    assert to_signed(Polynomial([0, 0, 0, 1])) == SignedCoefficients(3, (0, 0, 0))
    with pytest.raises(ValueError):
        to_signed(Polynomial([0]))


def test_from_signed_examples():
    assert from_signed(SignedCoefficients(2, (3, 2))) == Polynomial([2, -3, 1])
    assert from_signed(SignedCoefficients(1, (F(7, 2),))) == Polynomial([F(-7, 2), 1])
    assert from_signed(SignedCoefficients(0, ())) == Polynomial([1])


@given(nonzero_polys)
def test_signed_round_trip(p):
    s = to_signed(p)
    assert to_signed(from_signed(s)) == s
    assert from_signed(s) == p.monic()


@given(nonzero_polys, rationals.filter(lambda c: c != 0))
def test_scaling_leaves_signed_view_unchanged(p, scale):
    assert to_signed(p * scale) == to_signed(p)


def test_poly_from_roots_examples():
    assert poly_from_roots([1, 2]) == Polynomial([2, -3, 1])
    assert poly_from_roots([0, 0, 0]) == Polynomial([0, 0, 0, 1])
    assert poly_from_roots([F(1, 2), F(1, 3)]) == Polynomial([F(1, 6), F(-5, 6), 1])
    with pytest.raises(ValueError):
        poly_from_roots([])


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1, 2, 3], 2) == 11
    assert elementary_symmetric([1, 2, 3], 0) == 1
    assert elementary_symmetric([1, 2, 3], 3) == 6
    with pytest.raises(ValueError):
        elementary_symmetric([1, 2], 3)


@given(root_sets)
def test_signed_coefficients_are_elementary_symmetric(roots):
    # Product-expansion route against the definitional enumeration route.
    s = to_signed(poly_from_roots(roots))
    for k in range(1, len(roots) + 1):
        assert s.values[k - 1] == elementary_symmetric(roots, k)


def test_elementary_symmetric_brute_force_enumeration():
    # Third, fully spelled-out enumeration for a fixed multiset of size 7.
    roots = [F(1), F(2), F(-1), F(1, 2), F(3), F(-2), F(1, 3)]
    s = to_signed(poly_from_roots(roots))
    for k in range(1, 8):
        expected = sum(
            (math.prod(c, start=F(1)) for c in itertools.combinations(roots, k)),
            start=F(0),
        )
        assert s.values[k - 1] == expected


@given(root_sets)
def test_every_root_evaluates_to_zero(roots):
    p = poly_from_roots(roots)
    for r in roots:
        assert p.evaluate(r) == 0


def test_evaluate_examples():
    p = Polynomial([2, -3, 1])
    assert p.evaluate(1) == 0
    assert p.evaluate(0) == 2
    assert p.evaluate(4) == 6


def test_derivative_examples():
    assert Polynomial([2, -3, 1]).derivative() == Polynomial([-3, 2])
    assert Polynomial([5]).derivative().is_zero
    # x^5 - x^4 -> 5x^4 - 4x^3
    assert Polynomial([0, 0, 0, 0, -1, 1]).derivative() == Polynomial([0, 0, 0, -4, 5])


@given(nonzero_polys)
def test_derivative_matches_the_fraction_products(p):
    # The reference is the i * c form the derivative used before it built
    # each coefficient from i * numerator and the denominator.
    expected = Polynomial([i * c for i, c in enumerate(p.coefficients)][1:] or [0])
    assert p.derivative() == expected
    assert all(type(c) is F for c in p.derivative().coefficients)


class FractionSubclass(F):
    pass


def test_fraction_values_are_kept_and_others_converted():
    # Exact values are kept as the same objects; ints and Fraction
    # subclasses become reduced Fractions.
    kept = (F(2, 3), F(-5), F(1, 7))
    mixed = kept + (4, FractionSubclass(6, 4))
    report = verify_by_substitution(Polynomial([0, 0, 0, 0, 0, 1]), mixed, 5)
    for values in (
        Polynomial(mixed).coefficients,
        SignedCoefficients(5, mixed).values,
        DescendingSeries(-1, mixed).terms,
        tuple([root for root, _ in report.root_residuals]),
    ):
        assert all(value is given for value, given in zip(values, kept))
        assert values[3:] == (F(4), F(3, 2))
        assert all(type(v) is F for v in values)
        assert (values[4].numerator, values[4].denominator) == (3, 2)

    # The functions that only read their values give what the same
    # Fractions give.
    converted = [F(4), F(3, 2)]
    given = [4, FractionSubclass(6, 4)]
    for result, expected in (
        (poly_from_roots(given).coefficients, poly_from_roots(converted).coefficients),
        (power_sums_direct(given, 3), power_sums_direct(converted, 3)),
        (
            coeffs_from_power_sums([2, FractionSubclass(11, 2), F(73, 4)], 2).values,
            [F(11, 2), F(6)],
        ),
        ([elementary_symmetric(given, 2)], [F(6)]),
    ):
        assert list(result) == list(expected)
        assert all(type(v) is F for v in result)


def test_truncate_keeps_leading_signed_coefficients():
    s = SignedCoefficients(5, (1, 2, 3, 4, 5))
    assert s.truncate(2) == SignedCoefficients(2, (1, 2))
    assert s.truncate(4) == SignedCoefficients(4, (1, 2, 3, 4))
    assert s.truncate(5) == s
    assert s.truncate(0) == SignedCoefficients(0, ())
    with pytest.raises(ValueError):
        s.truncate(6)
    with pytest.raises(ValueError):
        s.truncate(-1)


def test_reciprocal_examples():
    assert reciprocal_poly(Polynomial([2, -3, 1])) == Polynomial([F(1, 2), F(-3, 2), 1])
    assert reciprocal_poly(Polynomial([-2, 1])) == Polynomial([F(-1, 2), 1])
    with pytest.raises(ValueError):
        reciprocal_poly(Polynomial([0, -1, 1]))  # x^2 - x has the root 0


@given(nonzero_polys.filter(lambda p: p.coefficients[0] != 0))
def test_reciprocal_is_an_involution_up_to_scaling(p):
    assert reciprocal_poly(reciprocal_poly(p)) == p.monic()


@given(root_sets.filter(lambda rs: all(r != 0 for r in rs)))
def test_reciprocal_roots_are_reciprocals(roots):
    flipped = reciprocal_poly(poly_from_roots(roots))
    assert flipped == poly_from_roots([1 / F(r) for r in roots])


def test_rendering():
    assert str(Polynomial([2, -3, 1])) == "x^2 - 3x + 2"
    assert str(Polynomial([F(1, 6), F(-5, 6), 1])) == "x^2 - 5/6x + 1/6"
    assert str(Polynomial([-5, 4, -3, 2, 0, -1, 1])) == "x^6 - x^5 + 2x^3 - 3x^2 + 4x - 5"
    assert str(Polynomial([0])) == "0"
    assert str(Polynomial([0, 1])) == "x"
    assert str(Polynomial([0, -1])) == "-x"
    assert str(Polynomial([7])) == "7"


def test_polynomial_is_frozen_and_hashable():
    p = Polynomial([2, -3, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.coefficients = (F(1),)
    assert p.coefficients == (2, -3, 1)
    assert hash(p) == hash(Polynomial([2, -3, 1, 0]))
