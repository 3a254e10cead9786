"""Direct summation and the verification reports."""

import pytest
from hypothesis import given, strategies as st

from rootsums import (
    ExactScalar,
    Polynomial,
    poly_from_roots,
    power_sums_direct,
    to_signed,
    truncation_report,
    verify_by_substitution,
)
import rootsums.roots as roots_module

F = ExactScalar

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)
root_sets = st.lists(rationals, min_size=1, max_size=6)


def test_direct_sums_examples():
    assert power_sums_direct([1, 2], 3) == [2, 3, 5, 9]
    assert power_sums_direct([0, 0], 4) == [2, 0, 0, 0, 0]
    assert power_sums_direct([F(1, 2)], 2) == [1, F(1, 2), F(1, 4)]
    assert power_sums_direct([], 2) == [0, 0, 0]
    with pytest.raises(ValueError):
        power_sums_direct([1], -1)


@given(root_sets, st.randoms(use_true_random=False))
def test_permutation_invariance(roots, rng):
    shuffled = list(roots)
    rng.shuffle(shuffled)
    assert power_sums_direct(shuffled, 6) == power_sums_direct(roots, 6)
    assert poly_from_roots(shuffled) == poly_from_roots(roots)


def test_substitution_report_on_true_roots():
    report = verify_by_substitution(Polynomial([2, -3, 1]), [1, 2], 4)
    assert report.ok
    assert all(v == 0 for _, v in report.root_residuals)
    assert [k for k, _ in report.window_residuals] == [2, 3, 4]


def test_substitution_report_flags_a_wrong_root():
    report = verify_by_substitution(Polynomial([2, -3, 1]), [1, 3], 2)
    assert not report.ok
    residuals = dict(report.root_residuals)
    assert residuals[F(1)] == 0
    assert residuals[F(3)] == 2  # 9 - 9 + 2


def test_substitution_report_zero_residuals_are_one_object():
    report = verify_by_substitution(
        poly_from_roots([F(1, 2), F(-3, 4), 5]), [F(1, 2), F(-3, 4), 5], 7
    )
    assert report.ok
    values = [v for _, v in report.root_residuals + report.window_residuals]
    assert len(values) == 8
    assert all(v is roots_module._ZERO for v in values)


def test_substitution_report_keeps_exact_residuals_of_wrong_roots():
    # x^2 - 1/2x - 1/2 has the roots 1 and -1/2; 2 and -1/2 are wrong.
    p = Polynomial([F(-1, 2), F(-1, 2), 1])
    report = verify_by_substitution(p, [2, F(-1, 2)], 3)
    assert report.root_residuals == ((F(2), F(5, 2)), (F(-1, 2), F(0)))
    assert report.root_residuals[1][1] is roots_module._ZERO
    # p_k of {2, -1/2} against the identity p_k - 1/2 p_(k-1) - 1/2 p_(k-2).
    sums = power_sums_direct([2, F(-1, 2)], 3)
    assert report.window_residuals == tuple(
        (k, sums[k] - F(1, 2) * sums[k - 1] - F(1, 2) * sums[k - 2]) for k in (2, 3)
    )
    assert all(v != 0 for _, v in report.window_residuals)


class FractionSubclass(F):
    pass


def test_fraction_roots_are_kept_and_others_converted(monkeypatch):
    # Exact roots reach the integer sums as the same objects, and the
    # substitution report as they were passed; ints and Fraction
    # subclasses become reduced Fractions.
    seen = []
    clear = roots_module.clear_denominators
    monkeypatch.setattr(
        roots_module, "clear_denominators", lambda values: seen.append(values) or clear(values)
    )
    half = F(1, 2)
    roots = [half, 3, FractionSubclass(4, 6)]
    assert power_sums_direct(roots, 2) == [3, F(25, 6), F(349, 36)]
    assert seen[0][0] is half
    assert seen[0][1:] == [F(3), F(2, 3)]
    assert all(type(r) is F for r in seen[0])
    report = verify_by_substitution(poly_from_roots(roots), roots, 3)
    assert report.ok
    assert report.root_residuals[0][0] is half
    assert all(type(r) is F for r, _ in report.root_residuals)


def test_substitution_report_all_zero_roots():
    report = verify_by_substitution(Polynomial([0, 0, 0, 1]), [0, 0, 0], 5)
    assert report.ok


def test_substitution_validations():
    with pytest.raises(ValueError):
        verify_by_substitution(Polynomial([2, -3, 1]), [1], 4)  # count mismatch
    with pytest.raises(ValueError):
        verify_by_substitution(Polynomial([2, -3, 1]), [1, 2], 1)  # k below degree


@given(root_sets)
def test_substitution_accepts_every_constructed_multiset(roots):
    p = poly_from_roots(roots)
    report = verify_by_substitution(p, roots, len(roots) + 4)
    assert report.ok


def test_truncation_grid_for_one_two_three():
    roots = [1, 2, 3]
    s = to_signed(poly_from_roots(roots))
    report = truncation_report(s, roots, 3)
    assert report.ok
    # the degree-2 companion is x^2 - 6x + 11: p1 = 6, p2 = 14
    assert report.cell(2, 1).truncated == 6
    assert report.cell(2, 2).truncated == 14
    assert report.cell(2, 2).direct == 14
    # every companion shares p1 = 6
    assert all(c.truncated == 6 for c in report.cells if c.index == 1)


def test_truncation_grid_counterexample_beyond_the_diagonal():
    # For roots {1,2} the degree-1 companion x - 3 has p2 = 9, not 5:
    # the agreement genuinely stops at j <= k.
    s = to_signed(poly_from_roots([1, 2]))
    from rootsums import power_sums_from_coeffs

    companion_sums = power_sums_from_coeffs(s.truncate(1), 2)
    assert companion_sums[2] == 9
    assert power_sums_direct([1, 2], 2)[2] == 5
    assert companion_sums[2] != 5


def test_truncation_validations():
    s = to_signed(poly_from_roots([1, 2]))
    with pytest.raises(ValueError):
        truncation_report(s, [1], 2)
    with pytest.raises(ValueError):
        truncation_report(s, [1, 2], 3)  # k_max beyond the degree


@given(root_sets)
def test_truncation_grid_closes_for_every_multiset(roots):
    s = to_signed(poly_from_roots(roots))
    assert truncation_report(s, roots, len(roots)).ok
