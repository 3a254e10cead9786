"""Descending-series division and the log-derivative route."""

import contextlib
import sys
from operator import mul

import pytest
from hypothesis import assume, given, strategies as st

from rootsums import (
    DescendingSeries,
    ExactScalar,
    Polynomial,
    cross_multiplied_check,
    divide_descending,
    log_derivative_power_sums,
    multiply_by_polynomial,
    power_sums_from_coeffs,
    to_signed,
)
import rootsums.series as series_module
from rootsums.series import descending_text

F = ExactScalar

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
nonconstant_polys = (
    st.lists(rationals, min_size=2, max_size=9)
    .map(Polynomial)
    .filter(lambda p: p.degree >= 1)
)


def test_divide_descending_hand_example():
    series = divide_descending(Polynomial([-3, 2]), Polynomial([2, -3, 1]), 4)
    assert series.start_exponent == -1
    assert series.terms == (F(2), F(3), F(5), F(9))


def test_divide_descending_geometric():
    series = divide_descending(Polynomial([1]), Polynomial([-1, 1]), 3)
    assert series.terms == (F(1), F(1), F(1))


def test_divide_descending_exact_division():
    series = divide_descending(Polynomial([1]), Polynomial([0, 1]), 2)
    assert series.terms == (F(1), F(0))


def test_divide_descending_degenerate_shapes():
    # A constant denominator leaves an empty remainder; only a zero
    # numerator sits below it.
    assert divide_descending(Polynomial([0]), Polynomial([3]), 2).terms == (F(0), F(0))
    # 1/(x^2 + 1) = 1/x^2 - 1/x^4 + ..., a numerator two degrees below
    series = divide_descending(Polynomial([1]), Polynomial([1, 0, 1]), 5)
    assert series.terms == (F(0), F(1), F(0), F(-1), F(0))


def test_divide_descending_validations():
    with pytest.raises(ZeroDivisionError):
        divide_descending(Polynomial([1]), Polynomial([0]), 2)
    with pytest.raises(ValueError):
        divide_descending(Polynomial([0, 1]), Polynomial([0, 1]), 2)  # degrees equal
    with pytest.raises(ValueError):
        divide_descending(Polynomial([1]), Polynomial([0, 1]), 0)


@given(nonconstant_polys, st.integers(min_value=1, max_value=12))
def test_non_monic_division_equals_the_monic_one(p, order):
    # p'/p is unchanged by scaling p, and the division of the monic form
    # skips dividing through by the leading coefficient.
    assume(p.leading_coefficient != 1)
    monic = p.monic()
    assert divide_descending(p.derivative(), p, order) == divide_descending(
        monic.derivative(), monic, order
    )


@st.composite
def division_instances(draw):
    denominator = draw(nonconstant_polys)
    coeffs = draw(st.lists(rationals, min_size=1, max_size=denominator.degree))
    return Polynomial(coeffs), denominator


@given(division_instances(), st.integers(min_value=1, max_value=12))
def test_multiplying_back_reproduces_the_numerator(instance, order):
    numerator, denominator = instance
    series = divide_descending(numerator, denominator, order)
    product = multiply_by_polynomial(series, denominator)
    # All representable positions of series*den must match the numerator.
    for j, value in enumerate(product.terms):
        exponent = product.start_exponent - j
        expected = (
            numerator.coefficients[exponent]
            if 0 <= exponent <= numerator.degree
            else F(0)
        )
        assert value == expected


@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=1, max_size=5))
def test_collected_series_is_the_sum_of_per_root_geometric_series(roots):
    # Each root r contributes 1/(x-r) = 1/x + r/x^2 + r^2/x^3 + ...; the
    # division algorithm must produce exactly the termwise sum of those.
    from rootsums import poly_from_roots

    p = poly_from_roots(roots)
    order = 2 * len(roots) + 3
    collected = divide_descending(p.derivative(), p, order)
    per_root_sum = [
        sum((F(r) ** j for r in roots), start=F(0)) for j in range(order)
    ]
    assert list(collected.terms) == per_root_sum


def test_log_derivative_examples():
    assert log_derivative_power_sums(Polynomial([2, -3, 1]), 3) == [2, 3, 5, 9]
    assert log_derivative_power_sums(Polynomial([-1, 1]), 4) == [1, 1, 1, 1, 1]
    assert log_derivative_power_sums(Polynomial([0, 0, 0, 1]), 2) == [3, 0, 0]


def test_log_derivative_rejects_constants():
    with pytest.raises(ValueError):
        log_derivative_power_sums(Polynomial([5]), 2)
    with pytest.raises(ValueError):
        log_derivative_power_sums(Polynomial([0]), 2)


@given(nonconstant_polys)
def test_first_coefficient_is_the_degree(p):
    assert log_derivative_power_sums(p, 0) == [p.degree]


@given(nonconstant_polys, st.integers(min_value=0, max_value=21))
def test_series_route_matches_recurrence_route(p, k_max):
    assert log_derivative_power_sums(p, k_max) == power_sums_from_coeffs(
        to_signed(p), k_max
    )


@given(nonconstant_polys, rationals.filter(lambda c: c != 0))
def test_scaling_invariance(p, scale):
    assert log_derivative_power_sums(p * scale, 7) == log_derivative_power_sums(p, 7)


def test_cross_multiplied_check_passes():
    report = cross_multiplied_check(Polynomial([2, -3, 1]), 6)
    assert report.ok
    assert report.first_nonzero() is None
    # No Fraction is built for a zero residual: each is the one shared zero.
    assert all(value is series_module._ZERO for _, value in report.residuals)
    assert cross_multiplied_check(Polynomial([0, 0, 0, 0, 0, 1]), 3).ok


def test_cross_multiplied_check_detects_corruption():
    # Corrupt p2 by 1/3: the first bad residual sits at x^(n-3), and the
    # residual is exactly (1/3)/x^3 times p = x^2 - 3x + 2.
    p = Polynomial([2, -3, 1])
    series = divide_descending(p.derivative(), p, 7)
    terms = list(series.terms)
    terms[2] += F(1, 3)
    corrupted = DescendingSeries(-1, tuple(terms))
    report = cross_multiplied_check(p, 6, series=corrupted)
    assert not report.ok
    exponent, value = report.first_nonzero()
    assert exponent == p.degree - 3
    assert report.residuals == (
        (1, 0), (0, 0), (-1, F(1, 3)), (-2, -1), (-3, F(2, 3)), (-4, 0), (-5, 0)
    )


def test_series_accessors_and_rendering():
    series = DescendingSeries(-1, (F(2), F(3), F(5, 6)))
    assert series.order == 3
    assert series.coefficient(-1) == 2
    assert series.coefficient(0) == 0  # above the start: known zero
    with pytest.raises(ValueError):
        series.coefficient(-4)  # below the truncation: unknown, not zero
    assert str(series) == "2/x + 3/x^2 + (5/6)/x^3"
    zero_product = multiply_by_polynomial(series, Polynomial([0]))
    assert str(zero_product) == "0/x + 0/x^2 + 0/x^3"
    assert str(DescendingSeries(1, (F(5), F(0), F(-2)))) == "5x + 0 - 2/x"


def test_series_keeps_its_fraction_terms():
    # Exact terms are kept as the same objects; others become Fractions.
    terms = (F(2, 3), F(-5), F(0))
    series = DescendingSeries(-1, terms + (7, -1))
    assert all(kept is given for kept, given in zip(series.terms, terms))
    assert series.terms[3:] == (F(7), F(-1))
    assert all(type(t) is F for t in series.terms)


def reference_text(series):
    """The Fraction loop DescendingSeries.__str__ ran before it took strings."""
    parts = []
    for j, c in enumerate(series.terms):
        exponent = series.start_exponent - j
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


@contextlib.contextmanager
def unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


signs = st.sampled_from([1, -1])
# 10**4300 + low has 4,301 digits: past CPython's default int-to-str limit.
huge = st.builds(
    lambda digits, low: 10**digits + low,
    st.integers(min_value=4300, max_value=4400),
    st.integers(min_value=0, max_value=10**6),
)
magnitudes = st.one_of(
    st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=10**6), huge
)
series_terms = st.one_of(
    st.builds(mul, signs, magnitudes),
    st.builds(lambda s, n, d: s * F(n, d), signs, magnitudes, magnitudes.filter(bool)),
)


@given(
    st.integers(min_value=-3, max_value=3),
    st.lists(series_terms, min_size=1, max_size=8),
)
def test_rendering_from_strings_matches_the_fraction_loop(start, terms):
    series = DescendingSeries(start, tuple(terms))
    with unlimited_int_digits():
        expected = reference_text(series)
        assert str(series) == expected
        assert descending_text(start, [str(t) for t in terms]) == expected
