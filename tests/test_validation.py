"""Input validation of the public entry points: each bad input, its message."""

import re

import pytest

from rootsums import (
    DescendingSeries,
    Polynomial,
    SignedCoefficients,
    coeffs_from_power_sums,
    cross_multiplied_check,
    log_derivative_power_sums,
    reciprocal_poly,
    to_signed,
    truncation_report,
    verify_by_substitution,
)

ZERO = Polynomial([0])
LINEAR = Polynomial([-1, 1])

BAD_INPUTS = [
    ("coeffs_from_power_sums", lambda: coeffs_from_power_sums([0], -1),
     ValueError, "degree must be nonnegative"),
    ("Polynomial.monic", ZERO.monic,
     ValueError, "the zero polynomial cannot be made monic"),
    ("SignedCoefficients:degree", lambda: SignedCoefficients(-1, []),
     ValueError, "degree must be nonnegative"),
    ("SignedCoefficients:count", lambda: SignedCoefficients(2, [1]),
     ValueError, "expected 2 signed coefficients, got 1"),
    ("reciprocal_poly", lambda: reciprocal_poly(ZERO),
     ValueError, "the zero polynomial has no reciprocal"),
    ("verify_by_substitution", lambda: verify_by_substitution(ZERO, [], 0),
     ValueError, "the zero polynomial has no root multiset"),
    ("TruncationReport.cell", lambda: truncation_report(to_signed(LINEAR), [1], 1).cell(2, 1),
     KeyError, "(2, 1)"),
    ("DescendingSeries", lambda: DescendingSeries(-1, []),
     ValueError, "a series carries at least one term"),
    ("log_derivative_power_sums", lambda: log_derivative_power_sums(LINEAR, -1),
     ValueError, "k_max must be nonnegative"),
    ("cross_multiplied_check:degree", lambda: cross_multiplied_check(Polynomial([5]), 1),
     ValueError, "cross-multiplied check needs degree at least 1"),
    ("cross_multiplied_check:k", lambda: cross_multiplied_check(LINEAR, -1),
     ValueError, "k_max must be nonnegative"),
]


@pytest.mark.parametrize(
    ("call", "error", "message"),
    [case[1:] for case in BAD_INPUTS],
    ids=[case[0] for case in BAD_INPUTS],
)
def test_bad_input_is_rejected_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
