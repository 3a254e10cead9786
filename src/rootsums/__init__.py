"""Exact power sums of polynomial roots, computed three independent ways.

Given a polynomial with rational coefficients, the sums p_k of the k-th
powers of its roots can be computed without ever finding a root:

* by the triangular recurrences tying power sums to the signed
  coefficients (:func:`power_sums_from_coeffs`), invertible back to the
  coefficients (:func:`coeffs_from_power_sums`);
* by expanding the logarithmic derivative p'/p as a formal series in
  descending powers of x (:func:`log_derivative_power_sums`);
* by direct summation when the roots are known
  (:func:`power_sums_direct`).

All arithmetic is exact rational, so the three routes must agree to the
last bit; each one is a working cross-check of the others. Every value
is a ``fractions.Fraction``, always reduced, so equal values are equal
under ``==``; ``ExactScalar`` and ``as_scalar`` are names for that type.
"""

from fractions import Fraction as ExactScalar

from .polynomial import (
    Polynomial,
    RootMultiset,
    SignedCoefficients,
    elementary_symmetric,
    from_signed,
    poly_from_roots,
    reciprocal_poly,
    to_signed,
)
from .newton import (
    coeffs_from_power_sums,
    negative_power_sums,
    power_sums_from_coeffs,
)
from .series import (
    CrossCheckReport,
    DescendingSeries,
    cross_multiplied_check,
    divide_descending,
    log_derivative_power_sums,
    multiply_by_polynomial,
)
from .roots import (
    SubstitutionReport,
    TruncationCell,
    TruncationReport,
    power_sums_direct,
    truncation_report,
    verify_by_substitution,
)
from .parser import (
    MAX_EXPONENT,
    ParseDiagnostic,
    ParseError,
    parse_polynomial,
    parse_rational_list,
)

as_scalar = ExactScalar

__version__ = "0.1.0"

__all__ = [
    "ExactScalar",
    "as_scalar",
    "Polynomial",
    "RootMultiset",
    "SignedCoefficients",
    "elementary_symmetric",
    "from_signed",
    "poly_from_roots",
    "reciprocal_poly",
    "to_signed",
    "coeffs_from_power_sums",
    "negative_power_sums",
    "power_sums_from_coeffs",
    "CrossCheckReport",
    "DescendingSeries",
    "cross_multiplied_check",
    "divide_descending",
    "log_derivative_power_sums",
    "multiply_by_polynomial",
    "SubstitutionReport",
    "TruncationCell",
    "TruncationReport",
    "power_sums_direct",
    "truncation_report",
    "verify_by_substitution",
    "MAX_EXPONENT",
    "ParseDiagnostic",
    "ParseError",
    "parse_polynomial",
    "parse_rational_list",
    "__version__",
]
