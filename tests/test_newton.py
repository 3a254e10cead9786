"""Recurrence regimes, inversion, and negative power sums."""

import pytest
from hypothesis import assume, given, strategies as st

from rootsums import (
    ExactScalar,
    SignedCoefficients,
    coeffs_from_power_sums,
    from_signed,
    negative_power_sums,
    poly_from_roots,
    power_sums_direct,
    power_sums_from_coeffs,
    reciprocal_poly,
    to_signed,
)

F = ExactScalar

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=4)
signed_coeffs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(*([rationals] * n)).map(lambda v: SignedCoefficients(n, v))
)


def test_roots_one_two():
    # direct summation over {1, 2}: 1+2, 1+4, 1+8
    assert power_sums_from_coeffs(SignedCoefficients(2, (3, 2)), 3) == [2, 3, 5, 9]


def test_all_roots_zero():
    assert power_sums_from_coeffs(SignedCoefficients(3, (0, 0, 0)), 5) == [3, 0, 0, 0, 0, 0]


def test_second_sum_is_square_minus_twice_product():
    # p2 = a1^2 - 2*a2 for any degree >= 2
    s = SignedCoefficients(2, (3, 2))
    assert power_sums_from_coeffs(s, 2)[2] == 3 * 3 - 2 * 2
    s = SignedCoefficients(4, (F(1, 2), F(-5, 3), 7, 0))
    sums = power_sums_from_coeffs(s, 2)
    assert sums[2] == F(1, 2) ** 2 - 2 * F(-5, 3)


def test_single_root_powers():
    a = F(7, 3)
    assert power_sums_from_coeffs(SignedCoefficients(1, (a,)), 4) == [
        1,
        a,
        a**2,
        a**3,
        a**4,
    ]


def test_negative_k_max_rejected():
    with pytest.raises(ValueError):
        power_sums_from_coeffs(SignedCoefficients(1, (1,)), -1)


def test_degenerate_degree_zero():
    # no roots: every sum over the empty multiset is 0
    assert power_sums_from_coeffs(SignedCoefficients(0, ()), 3) == [0, 0, 0, 0]
    assert coeffs_from_power_sums([F(0), F(0)], 0) == SignedCoefficients(0, ())


def test_inversion_examples():
    assert coeffs_from_power_sums([F(2), F(3), F(5)], 2) == SignedCoefficients(2, (3, 2))
    assert coeffs_from_power_sums([F(3), F(0), F(0), F(0)], 3) == SignedCoefficients(
        3, (0, 0, 0)
    )
    # elementary symmetric functions of {1,2,3}
    assert coeffs_from_power_sums([F(3), F(6), F(14), F(36)], 3) == SignedCoefficients(
        3, (6, 11, 6)
    )


def test_inversion_validates_input():
    with pytest.raises(ValueError):
        coeffs_from_power_sums([F(2), F(3)], 2)  # missing p2
    with pytest.raises(ValueError):
        coeffs_from_power_sums([F(5), F(3), F(5)], 2)  # p0 != degree


@given(signed_coeffs)
def test_round_trip_exact(s):
    sums = power_sums_from_coeffs(s, s.degree)
    assert coeffs_from_power_sums(sums, s.degree) == s


@given(signed_coeffs)
def test_p0_is_the_degree_and_regimes_flow_through(s):
    k_max = 2 * s.degree + 3
    sums = power_sums_from_coeffs(s, k_max)
    assert sums[0] == s.degree
    assert len(sums) == k_max + 1


@given(signed_coeffs)
def test_boundary_short_equals_full_window(s):
    # Re-derive both regimes here, independently of the implementation.
    n = s.degree
    sums = power_sums_from_coeffs(s, n)
    short = F(0)
    for i in range(1, n):
        term = s.values[i - 1] * sums[n - i]
        short = short + term if i % 2 == 1 else short - term
    tail = n * s.values[n - 1]
    short = short + tail if n % 2 == 1 else short - tail
    full = F(0)
    for i in range(1, n + 1):
        term = s.values[i - 1] * sums[n - i]
        full = full + term if i % 2 == 1 else full - term
    assert short == full == sums[n]


def test_regime_boundary_check_survives_optimize_flag():
    # Under -O an assert would vanish; the boundary check must still raise.
    import subprocess
    import sys

    script = """
import rootsums.newton as newton
from rootsums import SignedCoefficients
window = newton._window
newton._window = lambda w, s: window(w, s) + 1
try:
    newton.power_sums_from_coeffs(SignedCoefficients(2, (3, 2)), 4)
except newton.InternalError:
    print("raised")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"


def test_truncation_invariant():
    s = to_signed(poly_from_roots([1, 2, 3, F(1, 2), -4]))
    full = power_sums_from_coeffs(s, 5)
    for k in range(1, 6):
        partial = power_sums_from_coeffs(s.truncate(k), k)
        for j in range(1, k + 1):
            assert partial[j] == full[j]


def test_negative_power_sums_examples():
    s = SignedCoefficients(2, (3, 2))  # roots {1, 2}
    assert negative_power_sums(s, 1) == [2, F(3, 2)]
    assert negative_power_sums(s, 3) == [2, F(3, 2), F(5, 4), F(9, 8)]
    all_ones = to_signed(poly_from_roots([1, 1, 1]))
    assert negative_power_sums(all_ones, 4) == [3, 3, 3, 3, 3]
    # no roots, so no reciprocals: every sum is 0
    assert negative_power_sums(SignedCoefficients(0, ()), 3) == [0, 0, 0, 0]


def test_negative_power_sums_need_nonzero_product():
    with pytest.raises(ValueError, match="a zero root has no reciprocal"):
        negative_power_sums(SignedCoefficients(2, (1, 0)), 1)  # x^2 - x


@given(
    st.one_of(st.just(SignedCoefficients(0, ())), signed_coeffs),
    st.integers(min_value=0, max_value=12),
)
def test_negative_sums_match_the_reciprocal_polynomial(s, k_max):
    # Irrational roots too: the signed view read backwards against the
    # reversed, monic polynomial.
    assume(s.degree == 0 or s.values[-1] != 0)
    flipped = to_signed(reciprocal_poly(from_signed(s)))
    assert negative_power_sums(s, k_max) == power_sums_from_coeffs(flipped, k_max)


def test_window_extends_to_minus_one():
    # For roots {1, 2}: p1 = a1*p0 - a2*q1, the window slid one step down.
    s = SignedCoefficients(2, (3, 2))
    sums = power_sums_from_coeffs(s, 1)
    neg = negative_power_sums(s, 1)
    assert sums[1] == s.values[0] * sums[0] - s.values[1] * neg[1]


@given(st.lists(rationals.filter(lambda r: r != 0), min_size=1, max_size=5))
def test_negative_sums_match_direct_reciprocal_summation(roots):
    s = to_signed(poly_from_roots(roots))
    k_max = len(roots) + 3
    expected = power_sums_direct([1 / F(r) for r in roots], k_max)
    assert negative_power_sums(s, k_max) == expected
