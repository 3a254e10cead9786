"""Direct power sums over an explicit root multiset, plus verification.

These operations work from the roots themselves, so they are the
literal-definition route: p_k is summed one root at a time. Verification
returns structured reports rather than raising, because exhibiting the
identities (including their failure on wrong inputs) is the point; the
CLI renders the full table.

Roots are exact rationals only. The identities hold for arbitrary
roots, but exactness of the comparison is what makes this module a
usable cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomial import Polynomial, RootMultiset, SignedCoefficients, to_signed
from .newton import power_sums_from_coeffs


def power_sums_direct(roots: RootMultiset, k_max: int) -> list[Fraction]:
    """p_k = sum of root**k over the multiset, for k = 0..k_max.

    p_0 is the number of roots; the empty multiset gives all zeros.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    values = [Fraction(r) for r in roots]
    sums: list[Fraction] = [Fraction(len(values))]
    powers = [Fraction(1)] * len(values)
    for _ in range(k_max):
        for i, r in enumerate(values):
            powers[i] *= r
        sums.append(sum(powers, start=Fraction(0)))
    return sums


@dataclass(frozen=True)
class SubstitutionReport:
    """Residuals from substituting claimed roots into a polynomial.

    ``root_residuals`` holds (root, p(root)) pairs: every value is zero
    exactly when the multiset is the complete root multiset of p.
    ``window_residuals`` holds, for each k from deg(p) to k_max, the
    collected identity p_k - a_1*p_(k-1) + a_2*p_(k-2) - ... evaluated
    with directly-summed power sums; these too vanish for true roots.
    """

    root_residuals: tuple[tuple[Fraction, Fraction], ...]
    window_residuals: tuple[tuple[int, Fraction], ...]

    @property
    def ok(self) -> bool:
        return all(v == 0 for _, v in self.root_residuals) and all(
            v == 0 for _, v in self.window_residuals
        )


def verify_by_substitution(p: Polynomial, roots: RootMultiset, k_max: int) -> SubstitutionReport:
    """Check a claimed root multiset against p, without failing fast.

    Wrong roots produce nonzero residuals in the report, not an error;
    only a size mismatch (or k_max below the degree) is rejected.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root multiset")
    n = p.degree
    if len(roots) != n:
        raise ValueError(f"expected {n} roots for a degree-{n} polynomial, got {len(roots)}")
    if k_max < n:
        raise ValueError("k_max must be at least the degree")
    signed = to_signed(p)
    direct = power_sums_direct(roots, k_max)
    root_residuals = tuple((Fraction(r), p.evaluate(r)) for r in roots)
    window_residuals = []
    for k in range(n, k_max + 1):
        acc = direct[k]
        for i in range(1, n + 1):
            term = signed.values[i - 1] * direct[k - i]
            acc = acc - term if i % 2 == 1 else acc + term
        window_residuals.append((k, acc))
    return SubstitutionReport(root_residuals, tuple(window_residuals))


@dataclass(frozen=True)
class TruncationCell:
    """One comparison: power sum j of the degree-k companion vs the original."""

    degree: int
    index: int
    truncated: Fraction
    direct: Fraction

    @property
    def equal(self) -> bool:
        return self.truncated == self.direct


@dataclass(frozen=True)
class TruncationReport:
    cells: tuple[TruncationCell, ...]

    @property
    def ok(self) -> bool:
        return all(cell.equal for cell in self.cells)

    def cell(self, degree: int, index: int) -> TruncationCell:
        for c in self.cells:
            if c.degree == degree and c.index == index:
                return c
        raise KeyError((degree, index))


def truncation_report(signed: SignedCoefficients, roots: RootMultiset, k_max: int) -> TruncationReport:
    """Compare power sums of every lower-degree companion with direct sums.

    For each truncation degree k in 1..n and each index j in
    1..min(k, k_max): p_j of the degree-k companion (by recurrence)
    against p_j of the root multiset (by summation). The two agree
    whenever j <= k; j = 0 is excluded since the companion has k roots,
    not n.
    """
    n = signed.degree
    if len(roots) != n:
        raise ValueError(f"expected {n} roots, got {len(roots)}")
    if not 0 <= k_max <= n:
        raise ValueError("k_max must be in 0..degree")
    direct = power_sums_direct(roots, k_max)
    cells = []
    for k in range(1, n + 1):
        bound = min(k, k_max)
        truncated_sums = power_sums_from_coeffs(signed.truncate(k), bound)
        for j in range(1, bound + 1):
            cells.append(TruncationCell(k, j, truncated_sums[j], direct[j]))
    return TruncationReport(tuple(cells))
