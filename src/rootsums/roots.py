"""Direct power sums over an explicit root multiset, plus verification.

These operations work from the roots themselves, so they are the
literal-definition route: p_k is summed one root at a time. Verification
returns structured reports rather than raising, because exhibiting the
identities (including their failure on wrong inputs) is the point; the
CLI renders the full table.

Roots are exact rationals only. The identities hold for arbitrary
roots, but exactness of the comparison is what makes this module a
usable cross-check.

``truncation_report`` is the one function here that runs two routes: it
compares the recurrence of :mod:`rootsums.newton` on each lower-degree
companion with the direct sums, so it is the one import of another
route module.

Every loop here runs in ``int``: each identity is multiplied by a
nonzero integer from its own inputs (B**k for roots a_i/B, b**n for a
root a/b, M for p's denominators), never by the kernels' s. See
README's "Denominator scaling".
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .polynomial import (
    _ZERO,
    Polynomial,
    Record,
    RootMultiset,
    SignedCoefficients,
    clear_denominators,
    exact,
)
from .newton import power_sums_from_coeffs


def scaled_direct_sums(roots: list[Fraction], k_max: int) -> tuple[list[int], int]:
    """S_0..S_k_max with S_k = sum of a_i**k, and B, for exact roots a_i/B.

    B is the lcm of the root denominators, so every a_i is an integer
    and p_k = S_k / B**k.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    numerators, scale = clear_denominators(roots)
    sums = [len(numerators)]
    powers = [1] * len(numerators)
    for _ in range(k_max):
        powers = list(map(mul, powers, numerators))
        sums.append(sum(powers))
    return sums, scale


def power_sums_direct(roots: RootMultiset, k_max: int) -> list[Fraction]:
    """p_k = sum of root**k over the multiset, for k = 0..k_max.

    p_0 is the number of roots; the empty multiset gives all zeros. The
    values of :func:`scaled_direct_sums`, reduced.
    """
    sums, scale = scaled_direct_sums(exact(roots), k_max)
    return [Fraction(s, scale**k) for k, s in enumerate(sums)]


class SubstitutionReport(Record):
    """Residuals from substituting claimed roots into a polynomial.

    ``root_residuals`` holds (root, p(root)) pairs: every value is zero
    exactly when the multiset is the complete root multiset of p.
    ``window_residuals`` holds, for each k from deg(p) to k_max, the
    collected identity: the sum over the claimed roots r of
    r**(k-n) * p(r), divided by p's leading coefficient, which is
    p_k - a_1*p_(k-1) + a_2*p_(k-2) - ... on directly-summed power sums;
    these too vanish for true roots.
    """

    root_residuals: tuple[tuple[Fraction, Fraction], ...]
    window_residuals: tuple[tuple[int, Fraction], ...]

    def __init__(
        self,
        root_residuals: tuple[tuple[Fraction, Fraction], ...],
        window_residuals: tuple[tuple[int, Fraction], ...],
    ):
        self.__dict__.update(root_residuals=root_residuals, window_residuals=window_residuals)

    @property
    def ok(self) -> bool:
        return all(v == 0 for _, v in self.root_residuals) and all(
            v == 0 for _, v in self.window_residuals
        )


def require_root_count(n: int, roots: RootMultiset) -> int:
    """n, after checking that ``roots`` claims exactly n roots."""
    if len(roots) != n:
        raise ValueError(f"expected {n} roots for a degree-{n} polynomial, got {len(roots)}")
    return n


def verify_by_substitution(p: Polynomial, roots: RootMultiset, k_max: int) -> SubstitutionReport:
    """Check a claimed root multiset against p, without failing fast.

    Wrong roots produce nonzero residuals in the report, not an error;
    only the zero polynomial, a size mismatch or k_max below the degree
    is rejected.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no root multiset")
    n = require_root_count(p.degree, roots)
    if k_max < n:
        raise ValueError("k_max must be at least the degree")
    # p(a/b) times M*b**n, with M the lcm of p's denominators: Horner's
    # scheme on the homogenized polynomial, every step an int.
    descending, p_scale = clear_denominators(p.coefficients[::-1])
    roots = exact(roots)
    root_residuals = []
    for r in roots:
        acc, b_power = 0, 1
        for c in descending:
            acc = acc * r.numerator + c * b_power
            b_power *= r.denominator
        residual = Fraction(acc, p_scale * r.denominator**n) if acc else _ZERO
        root_residuals.append((r, residual))
    # Identity k, the sum over the roots r = a_j/B of r**(k-n)*p(r), times
    # B**k and M: C_0*S_k + C_1*B*S_(k-1) + ... + C_n*B**n*S_(k-n), with
    # C_i = descending[i]. Every term is an int; C_0 is M times the lead.
    sums, scale = scaled_direct_sums(roots, k_max)
    weights = [c * scale**i for i, c in enumerate(descending)]
    window_residuals = []
    for k in range(n, k_max + 1):
        acc = sum(map(mul, weights, reversed(sums[k - n : k + 1])))
        window_residuals.append((k, Fraction(acc, descending[0] * scale**k) if acc else _ZERO))
    return SubstitutionReport(tuple(root_residuals), tuple(window_residuals))


class TruncationCell(Record):
    """One comparison: power sum j of the degree-k companion vs the original."""

    degree: int
    index: int
    truncated: Fraction
    direct: Fraction

    def __init__(self, degree: int, index: int, truncated: Fraction, direct: Fraction):
        self.__dict__.update(degree=degree, index=index, truncated=truncated, direct=direct)

    @property
    def equal(self) -> bool:
        return self.truncated == self.direct


class TruncationReport(Record):
    cells: tuple[TruncationCell, ...]

    def __init__(self, cells: tuple[TruncationCell, ...]):
        self.__dict__.update(cells=cells)

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
    n = require_root_count(signed.degree, roots)
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
