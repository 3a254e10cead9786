"""The integer kernels against unscaled Fraction references, where scaling matters.

Both coefficient-only kernels clear denominators (x -> x/s) and run in
int, each with its own scale s: greedy, then cut to the least exponent
at every prime below 100 that greedy took more than once. These
properties use large denominators and non-monic leading coefficients,
so s is large and every power of it must cancel exactly. Roots that
share one denominator give polynomials whose s is far below L, the lcm
of the coefficient denominators.
"""

import math

import pytest
from hypothesis import given, strategies as st

import rootsums.newton as newton
import rootsums.series as series

from rootsums import (
    DescendingSeries,
    ExactScalar,
    Polynomial,
    divide_descending,
    log_derivative_power_sums,
    negative_power_sums,
    parse_polynomial,
    poly_from_roots,
    power_sums_direct,
    power_sums_from_coeffs,
    to_signed,
)

F = ExactScalar

big_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
shared_denominator_roots = st.builds(
    lambda nums, q: [F(m, q) for m in nums],
    st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=10**4),
)
leading = st.builds(
    lambda sign, p, q: sign * F(p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def reference_divide_descending(numerator, denominator, order):
    """Plain Fraction long division in descending powers, the pre-int loop."""
    den = denominator.coefficients
    width = denominator.degree
    lead = den[-1]
    work = [F(0)] * order + list(numerator.coefficients)
    quotient = [F(0)] * order
    for exp in range(len(work) - 1, width - 1, -1):
        top = work[exp]
        if top == 0:
            continue
        factor = top / lead
        shift = exp - width
        quotient[shift] = factor
        for i, d in enumerate(den):
            work[shift + i] -= factor * d
    return DescendingSeries(-1, tuple(reversed(quotient)))


@st.composite
def scaled_instances(draw):
    roots = draw(st.one_of(st.lists(big_rationals, min_size=1, max_size=10), shared_denominator_roots))
    n = len(roots)
    k_max = draw(st.one_of(st.just(n), st.integers(min_value=0, max_value=3 * n)))
    return roots, poly_from_roots(roots) * draw(leading), k_max


@given(scaled_instances())
def test_three_routes_agree_on_scaled_nonmonic_input(instance):
    roots, p, k_max = instance
    direct = power_sums_direct(roots, k_max)
    assert power_sums_from_coeffs(to_signed(p), k_max) == direct
    assert log_derivative_power_sums(p, k_max) == direct
    if all(r != 0 for r in roots):
        reciprocal = power_sums_direct([1 / r for r in roots], k_max)
        assert negative_power_sums(to_signed(p), k_max) == reciprocal


@st.composite
def division_pairs(draw):
    den = draw(st.lists(big_rationals, max_size=10))
    den.append(draw(leading))
    num_len = draw(st.integers(min_value=0, max_value=len(den) - 1))
    num = draw(st.lists(big_rationals, min_size=num_len, max_size=num_len)) or [0]
    return Polynomial(num), Polynomial(den)


@given(division_pairs(), st.integers(min_value=1, max_value=20))
def test_divide_descending_matches_fraction_long_division(pair, order):
    numerator, denominator = pair
    assert divide_descending(numerator, denominator, order) == reference_divide_descending(
        numerator, denominator, order
    )


def monic_parts(numerator, denominator):
    """The coefficients divide_descending scales: Q's below its leading one, and N'."""
    lead = denominator.leading_coefficient
    den = [c / lead for c in denominator.coefficients[:-1]]
    return den, [c / lead for c in numerator.coefficients]


@st.composite
def rational_polys(draw):
    """A rational polynomial of degree >= 1, or one whose roots share a denominator."""
    if draw(st.booleans()):
        return poly_from_roots(draw(shared_denominator_roots)) * draw(leading)
    return Polynomial([*draw(st.lists(big_rationals, min_size=1, max_size=10)), draw(leading)])


@given(
    st.one_of(
        rational_polys(),
        # x^n times a constant: x*p' - n*p is the zero polynomial.
        st.builds(
            lambda n, a: Polynomial([0] * n + [a]), st.integers(min_value=1, max_value=10), leading
        ),
    ),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=30)),
)
def test_series_kernel_returns_the_recurrence_pair(p, k_max):
    # x*p'/p = n + p_1/x + p_2/x^2 + ...: the same P_k and s as the recurrence.
    assert series.scaled_log_derivative(p, k_max) == newton.scaled_power_sums(to_signed(p), k_max)


@given(rational_polys())
def test_recurrence_scale_clears_every_denominator_and_divides_the_lcm(p):
    values = to_signed(p).values
    s = newton._scale(values)
    assert all(s**i % a.denominator == 0 for i, a in enumerate(values, start=1))
    assert math.lcm(*[a.denominator for a in values]) % s == 0


@given(st.one_of(rational_polys().map(lambda p: (p.derivative(), p)), division_pairs()))
def test_division_scale_clears_every_denominator_and_divides_the_lcm(pair):
    den, num = monic_parts(*pair)
    n = len(den)
    s = series._scale(den, num)
    for coeffs in (den, num):
        assert all(s ** (n - i) % c.denominator == 0 for i, c in enumerate(coeffs))
    assert math.lcm(*[c.denominator for c in den + num]) % s == 0


@pytest.mark.parametrize(
    "p, s, lcm",
    [
        (parse_polynomial("x^2 - 1/2x + 1/16"), 4, 16),
        (poly_from_roots([F(1, 12)] * 6), 12, 12**6),
        (Polynomial([2, -3, 1]), 1, 1),  # integer input runs unscaled
    ],
)
def test_pinned_scales_in_both_kernels(p, s, lcm):
    values = to_signed(p).values
    assert math.lcm(*[a.denominator for a in values]) == lcm
    assert newton._scale(values) == s
    assert series._scale(*monic_parts(p.derivative(), p)) == s


SMALL_PRIMES = [q for q in range(2, 100) if all(q % d for d in range(2, q))]


def reference_recurrence_scale(values):
    """The recurrence's scale without the cut at small primes: greedy alone."""
    s = 1
    for i, a in enumerate(values, start=1):
        d = a.denominator
        s *= d // math.gcd(d, s**i)
    return s


def reference_division_scale(den, num):
    """The division's scale without the cut at small primes: greedy alone."""
    n = len(den)
    s = 1
    for e in range(1, n + 1):
        for coeffs in (den, num):
            if n - e < len(coeffs):
                d = coeffs[n - e].denominator
                s *= d // math.gcd(d, s**e)
    return s


def recurrence_clears(values, s):
    return all(s**i % a.denominator == 0 for i, a in enumerate(values, start=1))


def division_clears(den, num, s):
    n = len(den)
    return all(s ** (n - i) % c.denominator == 0 for coeffs in (den, num) for i, c in enumerate(coeffs))


@given(rational_polys())
def test_recurrence_scale_is_least_at_small_primes_and_divides_greedy(p):
    values = to_signed(p).values
    s = newton._scale(values)
    assert reference_recurrence_scale(values) % s == 0
    for q in SMALL_PRIMES:
        if s % q == 0:
            assert not recurrence_clears(values, s // q)


@given(st.one_of(rational_polys().map(lambda p: (p.derivative(), p)), division_pairs()))
def test_division_scale_is_least_at_small_primes_and_divides_greedy(pair):
    den, num = monic_parts(*pair)
    s = series._scale(den, num)
    assert reference_division_scale(den, num) % s == 0
    for q in SMALL_PRIMES:
        if s % q == 0:
            assert not division_clears(den, num, s // q)


small_denominator_roots = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=99), min_size=1, max_size=10
)


@given(small_denominator_roots, leading)
def test_rational_roots_scale_by_the_lcm_of_their_denominators(roots, lead):
    # Each root's denominator divides s, since s*r is a rational root of a
    # monic integer polynomial; s divides their lcm B, since den(e_i) divides B^i.
    p = poly_from_roots(roots) * lead
    b = math.lcm(*[r.denominator for r in roots])
    assert newton._scale(to_signed(p).values) == b
    assert series._scale(*monic_parts(p.derivative(), p)) == b
