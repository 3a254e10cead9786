"""The int loops of the inverse recurrence and of the product of roots
against their Fraction references.

``coeffs_from_power_sums`` runs on P_i = s^i*p_i and divides
W_k = k!*s^k*a_k by k!*s^k on the way out; ``poly_from_roots``
multiplies out (b*x - a) over the roots a/b and divides by the product
of the b. These properties draw power sums that need not come from
rational roots, denominators with large primes, and root lists with
zeros, repeats, negatives, plain ints and a ``Fraction`` subclass, and
require exactly the values the plain Fraction loops give.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from rootsums import (
    ExactScalar,
    Polynomial,
    SignedCoefficients,
    coeffs_from_power_sums,
    poly_from_roots,
    power_sums_direct,
)

F = ExactScalar


class Ratio(Fraction):
    """A Fraction subclass, which both functions accept as a value."""


big_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
large_prime_rationals = st.builds(
    F,
    st.integers(min_value=-(10**12), max_value=10**12),
    st.sampled_from([2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1]),
)
values = st.one_of(
    big_rationals,
    large_prime_rationals,
    st.integers(min_value=-50, max_value=50),
    big_rationals.map(Ratio),
)


def reference_coeffs_from_power_sums(power_sums, degree):
    """Plain Fraction inverse recurrence, the pre-int loop: divide by k at step k."""
    sums = [F(v) for v in power_sums[: degree + 1]]
    weights = []  # (-1)^(k-1) * a_k
    for k in range(1, degree + 1):
        window = sum((w * sums[k - i] for i, w in enumerate(weights, start=1)), F(0))
        weights.append((sums[k] - window) / k)
    signed = [w if k % 2 else -w for k, w in enumerate(weights, start=1)]
    return SignedCoefficients(degree, tuple(signed))


def reference_poly_from_roots(roots):
    """Plain Fraction product of (x - r), the pre-int loop."""
    coeffs = [F(1)]
    for root in roots:
        r = F(root)
        coeffs.append(F(0))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i - 1] - r * coeffs[i]
        coeffs[0] = -r * coeffs[0]
    return Polynomial(coeffs)


@st.composite
def power_sum_lists(draw):
    """p_0..p_n, arbitrary or from rational roots, and entries past p_n."""
    if draw(st.booleans()):
        tail = draw(st.lists(values, max_size=12))
    else:
        roots = draw(st.lists(values, min_size=1, max_size=8))
        tail = power_sums_direct(roots, len(roots))[1:]
    extra = draw(st.lists(values, max_size=2))
    return [len(tail), *tail, *extra], len(tail)


@given(power_sum_lists())
@example(([2, 1, 0], 2))
@example(([3, F(1, 2**61 - 1), F(-7, 10**9 + 7), F(5, 998244353)], 3))
def test_inverse_recurrence_matches_fraction_loop(instance):
    sums, degree = instance
    got = coeffs_from_power_sums(sums, degree)
    assert got == reference_coeffs_from_power_sums(sums, degree)
    assert all(type(v) is F for v in got.values)


def test_inverse_recurrence_keeps_a_non_integral_coefficient():
    # p = 1, 0 comes from the roots (1 ± i)/2: e_2 = 1/2 needs the 2! in W_2.
    assert coeffs_from_power_sums([2, 1, 0], 2).values == (1, F(1, 2))


@st.composite
def root_lists(draw):
    """Roots with zeros, repeats, negatives, ints and a Fraction subclass."""
    roots = draw(st.lists(st.one_of(values, st.just(0)), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(roots), max_size=4))
    return draw(st.permutations(roots + repeats))


@given(root_lists())
@example([0, 0, -3])
@example([F(1, 2), Ratio(1, 3), F(-2, 3)])
def test_product_of_roots_matches_fraction_loop(roots):
    got = poly_from_roots(roots)
    assert got == reference_poly_from_roots(roots)
    assert all(type(c) is F for c in got.coefficients)
