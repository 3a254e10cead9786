"""Power sums of roots from signed coefficients, and back.

A power-sum sequence is a plain list ``sums`` with ``sums[k]`` holding
p_k, the sum of the k-th powers of all roots, starting at p_0 = n (every
root contributes 1). All arithmetic is exact, so equality checks between
the routes in this package need no tolerance.

Newton's identities come in two regimes. Writing a_1, a_2, ... for the
signed coefficients (a_i is the i-th elementary symmetric function):

* short regime, k <= n:
    p_k = a_1*p_(k-1) - a_2*p_(k-2) + ... ± k*a_k
  (the window of previous sums stops at p_1 and a bare k*a_k closes it);

* full-window regime, k > n:
    p_k = a_1*p_(k-1) - a_2*p_(k-2) + ... ± a_n*p_(k-n)
  (the full window of n previous sums, no bare term).

At k = n the two coincide because p_0 = n turns a_n*p_0 into n*a_n;
``power_sums_from_coeffs`` evaluates both there and raises
:class:`InternalError` if they differ rather than trusting it.

The recurrence runs on plain ``int``. It clears denominators once: with
L the lcm of the denominators of the a_i, the substitution x -> x/L
turns the polynomial into the monic integer polynomial with signed
coefficients L^i*a_i, whose roots are L times the original roots. Its
power sums P_k are integers, and p_k = P_k / L^k is built as a reduced
``Fraction`` only on the way out. The direct summation over roots and
the substitution checks in :mod:`rootsums.roots` stay on unscaled
``Fraction`` arithmetic, an oracle independent of that scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polynomial import SignedCoefficients, from_signed, reciprocal_poly, to_signed


class InternalError(RuntimeError):
    """A self-check inside a kernel failed; never expected on correct code."""


def _window(weights: Sequence, sums: Sequence, k: int, width: int):
    """weights[0]*sums[k-1] + weights[1]*sums[k-2] + ... over ``width`` terms.

    The weights carry the alternating signs: weights[i-1] = (-1)^(i-1)*a_i.
    Works on ints and on Fractions alike.
    """
    return sum(map(mul, weights[:width], reversed(sums[k - width : k])))


def power_sums_from_coeffs(signed: SignedCoefficients, k_max: int) -> list[Fraction]:
    """p_0..p_k_max of the roots of the polynomial with these coefficients.

    Picks the short regime for k <= n and the full-window regime for
    k > n. Degree 0 (no roots) gives all zeros.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    n = signed.degree
    scale = math.lcm(*(a.denominator for a in signed.values))
    # weights[i-1] = (-1)^(i-1) * L^i * a_i, an integer since den(a_i) divides L.
    weights = [
        (a.numerator if i % 2 else -a.numerator) * (scale // a.denominator) * scale ** (i - 1)
        for i, a in enumerate(signed.values, start=1)
    ]
    sums = [n]
    for k in range(1, k_max + 1):
        if k <= n:
            value = _window(weights, sums, k, k - 1) + k * weights[k - 1]
            if k == n and value != _window(weights, sums, k, n):
                raise InternalError("short and full-window recurrences disagree at k == n")
        else:
            value = _window(weights, sums, k, n)
        sums.append(value)
    if scale == 1:
        return [Fraction(v) for v in sums]
    out = []
    power = 1
    for v in sums:
        out.append(Fraction(v, power))
        power *= scale
    return out


def coeffs_from_power_sums(power_sums: Sequence[Fraction], degree: int) -> SignedCoefficients:
    """Recover the signed coefficients from p_0..p_degree.

    Inverts the short regime one coefficient at a time; step k divides
    by k, which is exact over the rationals:

        a_k = ±(p_k - a_1*p_(k-1) + a_2*p_(k-2) - ...) / k

    ``power_sums[0]`` must equal ``degree`` (it is p_0); entries past
    p_degree are ignored.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(power_sums) < degree + 1:
        raise ValueError(
            f"need power sums p_0..p_{degree}, got only {len(power_sums)} values"
        )
    sums = [Fraction(v) for v in power_sums[: degree + 1]]
    if sums[0] != degree:
        raise ValueError(f"p_0 is {sums[0]} but must equal the degree {degree}")
    weights: list[Fraction] = []  # (-1)^(k-1) * a_k
    for k in range(1, degree + 1):
        weights.append((sums[k] - _window(weights, sums, k, k - 1)) / k)
    values = (w if k % 2 else -w for k, w in enumerate(weights, start=1))
    return SignedCoefficients(degree, tuple(values))


def negative_power_sums(signed: SignedCoefficients, k_max: int) -> list[Fraction]:
    """q_0..q_k_max with q_k the sum of the (-k)-th powers of the roots.

    Realized as the ordinary power sums of the reciprocal polynomial,
    whose roots are the reciprocals of the original's. Requires a
    nonzero product of roots (last signed coefficient), i.e. no zero
    root; q_0 = n as usual.
    """
    flipped = reciprocal_poly(from_signed(signed))
    return power_sums_from_coeffs(to_signed(flipped), k_max)
