"""The integer oracles against unscaled Fraction references, where scaling matters.

The checks that judge the kernels run in int, each scaled from its own
inputs: the multiply-back by M*s**(u+1) on the kernel's (C, s), or by
D*M on a given series (M and D the lcms of p's and of the series'
denominators), the direct sums by B**k (B the lcm of the root
denominators), the window residuals by B**k and the lcm of the signed
coefficients' denominators, and each root residual p(a/b) by b**n and
the lcm of p's denominators. These properties use large denominators,
non-monic leading coefficients and wrong inputs, so the scales are
large and nonzero residuals must come out exactly as the plain
Fraction loops give them.
"""

import math

from hypothesis import assume, given, strategies as st

from rootsums import (
    CrossCheckReport,
    DescendingSeries,
    ExactScalar,
    Polynomial,
    SubstitutionReport,
    cross_multiplied_check,
    divide_descending,
    multiply_by_polynomial,
    poly_from_roots,
    power_sums_direct,
    to_signed,
    verify_by_substitution,
)
from rootsums.series import scaled_cross_check, scaled_log_derivative

F = ExactScalar

big_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)
nonzero = big_rationals.filter(bool)
leading = st.builds(
    lambda sign, p, q: sign * F(p, q),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def reference_power_sums_direct(roots, k_max):
    """Plain Fraction direct sums, the pre-int loop."""
    values = [F(r) for r in roots]
    sums = [F(len(values))]
    powers = [F(1)] * len(values)
    for _ in range(k_max):
        for i, r in enumerate(values):
            powers[i] *= r
        sums.append(sum(powers, start=F(0)))
    return sums


def reference_multiply_by_polynomial(series, poly):
    """Plain Fraction truncated product, the pre-int loop."""
    n = poly.degree
    out = []
    for u in range(series.order):
        acc = F(0)
        for j, c in enumerate(poly.coefficients):
            idx = u + j - n
            if idx >= 0:
                acc += c * series.terms[idx]
        out.append(acc)
    return DescendingSeries(series.start_exponent + n, tuple(out))


def reference_cross_multiplied_check(p, series):
    product = reference_multiply_by_polynomial(series, p)
    deriv = p.derivative()
    residuals = []
    for j, value in enumerate(product.terms):
        exponent = product.start_exponent - j
        expected = deriv.coefficients[exponent] if 0 <= exponent <= deriv.degree else 0
        residuals.append((exponent, value - expected))
    return CrossCheckReport(tuple(residuals))


def reference_verify_by_substitution(p, roots, k_max):
    """Fraction Horner evaluation and the Fraction window loop."""
    n = p.degree
    signed = to_signed(p)
    direct = reference_power_sums_direct(roots, k_max)
    root_residuals = tuple((F(r), p.evaluate(r)) for r in roots)
    window_residuals = []
    for k in range(n, k_max + 1):
        acc = direct[k]
        for i in range(1, n + 1):
            term = signed.values[i - 1] * direct[k - i]
            acc = acc - term if i % 2 == 1 else acc + term
        window_residuals.append((k, acc))
    return SubstitutionReport(root_residuals, tuple(window_residuals))


@given(st.lists(big_rationals, max_size=10), st.integers(min_value=0, max_value=30))
def test_direct_sums_match_fraction_summation(roots, k_max):
    assert power_sums_direct(roots, k_max) == reference_power_sums_direct(roots, k_max)


@given(
    st.lists(big_rationals, min_size=1, max_size=12),
    st.lists(big_rationals, min_size=1, max_size=8),
    st.integers(min_value=-3, max_value=3),
)
def test_multiply_by_polynomial_matches_fraction_product(terms, coeffs, start):
    series = DescendingSeries(start, tuple(terms))
    poly = Polynomial(coeffs)
    assert multiply_by_polynomial(series, poly) == reference_multiply_by_polynomial(
        series, poly
    )


@st.composite
def corrupted_instances(draw):
    """A non-monic p with rational roots, and its p'/p series with one term off."""
    roots = draw(st.lists(big_rationals, min_size=1, max_size=8))
    p = poly_from_roots(roots) * draw(leading)
    k_max = draw(st.integers(min_value=0, max_value=3 * len(roots)))
    series = divide_descending(p.derivative(), p, k_max + 1)
    terms = list(series.terms)
    j = draw(st.integers(min_value=0, max_value=k_max))
    terms[j] += draw(nonzero)
    return p, k_max, series, DescendingSeries(-1, tuple(terms))


@given(corrupted_instances())
def test_cross_multiplied_check_matches_fraction_residuals(instance):
    p, k_max, series, corrupted = instance
    # D > 1, so the int path divides a nonzero residual by D*M on the way out.
    assume(math.lcm(*(t.denominator for t in corrupted.terms)) > 1)
    report = cross_multiplied_check(p, k_max, series=corrupted)
    assert not report.ok
    assert report == reference_cross_multiplied_check(p, corrupted)
    assert cross_multiplied_check(p, k_max) == reference_cross_multiplied_check(p, series)
    assert cross_multiplied_check(p, k_max).ok


@st.composite
def kernel_series(draw):
    """A non-monic rational p, its kernel's (C, s) with s > 1, and C with one term moved."""
    n = draw(st.integers(min_value=1, max_value=6))
    p = Polynomial([*draw(st.lists(big_rationals, min_size=n, max_size=n)), draw(leading)])
    k_max = draw(st.integers(min_value=0, max_value=3 * n))
    quotient, scale = scaled_log_derivative(p, k_max)
    assume(scale > 1)
    moved = list(quotient)
    moved[draw(st.integers(min_value=0, max_value=k_max))] += draw(st.sampled_from([1, -1]))
    return p, scale, quotient, moved


@given(kernel_series())
def test_cross_check_on_the_kernel_integers_matches_fraction_residuals(instance):
    p, scale, quotient, moved = instance
    for terms in (quotient, moved):
        reduced = DescendingSeries(-1, [F(c, scale ** (j + 1)) for j, c in enumerate(terms)])
        assert scaled_cross_check(p, terms, scale) == reference_cross_multiplied_check(p, reduced)
    assert scaled_cross_check(p, quotient, scale).ok
    assert not scaled_cross_check(p, moved, scale).ok


@st.composite
def claimed_roots(draw):
    """A non-monic p from rational roots, and a claim that may be one root off."""
    roots = draw(st.lists(big_rationals, min_size=1, max_size=8))
    p = poly_from_roots(roots) * draw(leading)
    claim = list(roots)
    if draw(st.booleans()):
        claim[draw(st.integers(min_value=0, max_value=len(roots) - 1))] = draw(big_rationals)
    k_max = draw(st.integers(min_value=len(roots), max_value=3 * len(roots)))
    return p, claim, k_max


@st.composite
def unrelated_claims(draw):
    """A non-monic p with arbitrary rational coefficients, and any n rationals."""
    n = draw(st.integers(min_value=1, max_value=6))
    coeffs = draw(st.lists(big_rationals, min_size=n, max_size=n))
    claim = draw(st.lists(big_rationals, min_size=n, max_size=n))
    k_max = draw(st.integers(min_value=n, max_value=3 * n))
    return Polynomial([*coeffs, draw(leading)]), claim, k_max


@given(st.one_of(claimed_roots(), unrelated_claims()))
def test_substitution_matches_fraction_residuals(instance):
    p, claim, k_max = instance
    report = verify_by_substitution(p, claim, k_max)
    assert report == reference_verify_by_substitution(p, claim, k_max)
