"""The integer kernels against unscaled Fraction references, where scaling matters.

Both coefficient-only kernels clear denominators (x -> x/L) and run in
int. These properties use large denominators and non-monic leading
coefficients, so L is large and every power of it must cancel exactly.
"""

from hypothesis import given, strategies as st

from rootsums import (
    DescendingSeries,
    ExactScalar,
    Polynomial,
    divide_descending,
    log_derivative_power_sums,
    negative_power_sums,
    poly_from_roots,
    power_sums_direct,
    power_sums_from_coeffs,
    to_signed,
)

F = ExactScalar

big_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
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
    roots = draw(st.lists(big_rationals, min_size=1, max_size=10))
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
