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
``scaled_power_sums`` evaluates both there and raises
:class:`InternalError` if they differ rather than trusting it.

Both directions run on plain ``int``, scaled by an s from :func:`_scale`
(den(v_i) divides s^i, v_i = a_i or p_i); the checks in
:mod:`rootsums.roots` never use s. The recurrence's kernels return the
scaled integers and s, which the CLI prints without reducing; the
public functions reduce them to ``Fraction``. See README's
"Denominator scaling".
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

from .polynomial import InternalError, SignedCoefficients, exact


def _window(weights: Sequence, sums: Sequence, k: int, width: int):
    """weights[0]*sums[k-1] + weights[1]*sums[k-2] + ... over ``width`` terms.

    The weights carry the alternating signs: weights[i-1] = (-1)^(i-1)*a_i.
    """
    return sum(map(mul, weights[:width], reversed(sums[k - width : k])))


def _scale(values: Sequence[Fraction]) -> int:
    """A scale s with den(v_i) dividing s^i for every value v_i.

    The values are signed coefficients a_i, or power sums p_i for the
    inverse direction. Greedy in i = 1, 2, ...: s takes on the part of
    den(v_i) that s^i does not cover yet. No prime's exponent in s ever
    exceeds its exponent in the lcm of the denominators, so s divides
    that lcm.
    """
    s = 1
    for i, a in enumerate(values, start=1):
        d = a.denominator
        s *= d // math.gcd(d, s**i)
    return s


def _alternating_scaled(values: Sequence[Fraction], scale: int, symbol: str) -> list[int]:
    """(-1)^(i-1) * s^i * v_i for i = 1, 2, ..., as ints.

    Raises :class:`InternalError` if s^i leaves some v_i fractional,
    naming it ``symbol``_i.
    """
    out = []
    power = 1
    for i, v in enumerate(values, start=1):
        power *= scale
        factor, rest = divmod(power, v.denominator)
        if rest:
            raise InternalError(f"scale {scale} leaves {symbol}_{i} = {v} fractional")
        out.append(v.numerator * factor if i % 2 else -v.numerator * factor)
    return out


def scaled_power_sums(signed: SignedCoefficients, k_max: int) -> tuple[list[int], int]:
    """P_0..P_k_max and s, with p_k = P_k / s**k the power sums of these roots.

    Picks the short regime for k <= n and the full-window regime for
    k > n. Degree 0 (no roots) gives all zeros.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    n = signed.degree
    scale = _scale(signed.values)
    weights = _alternating_scaled(signed.values, scale, "a")
    sums = [n]
    for k in range(1, k_max + 1):
        if k <= n:
            value = _window(weights, sums, k, k - 1) + k * weights[k - 1]
            if k == n and value != _window(weights, sums, k, n):
                raise InternalError("short and full-window recurrences disagree at k == n")
        else:
            value = _window(weights, sums, k, n)
        sums.append(value)
    return sums, scale


def _reduced(sums: list[int], scale: int) -> list[Fraction]:
    """P_k / s**k for every k, each a reduced Fraction."""
    if scale == 1:
        return [Fraction(v) for v in sums]
    out = []
    power = 1
    for v in sums:
        out.append(Fraction(v, power))
        power *= scale
    return out


def power_sums_from_coeffs(signed: SignedCoefficients, k_max: int) -> list[Fraction]:
    """p_0..p_k_max of the roots of the polynomial with these coefficients.

    The values of :func:`scaled_power_sums`, reduced.
    """
    return _reduced(*scaled_power_sums(signed, k_max))


def coeffs_from_power_sums(power_sums: Sequence[Fraction], degree: int) -> SignedCoefficients:
    """Recover the signed coefficients from p_0..p_degree.

    Inverts the short regime one coefficient at a time. Over the
    rationals, step k divides by k:

        a_k = ±(p_k - a_1*p_(k-1) + a_2*p_(k-2) - ...) / k

    The loop runs on plain ``int`` instead and never divides. With s
    from :func:`_scale` (den(p_i) divides s^i) and P_i = s^i*p_i, it
    computes W_k = k! * s^k * a_k by

        W_0 = 1,  W_k = sum_(i=1..k) (-1)^(i-1) * (k-1)!/(k-i)! * W_(k-i) * P_i,

    an integer combination of integers, for any rational p_i (p = 1, 0
    gives a_2 = 1/2). Then a_k = W_k / (k! * s^k), reduced on the way
    out. ``power_sums[0]`` must equal ``degree`` (it is p_0); entries
    past p_degree are ignored.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if len(power_sums) < degree + 1:
        raise ValueError(
            f"need power sums p_0..p_{degree}, got only {len(power_sums)} values"
        )
    sums = exact(power_sums[: degree + 1])
    if sums[0] != degree:
        raise ValueError(f"p_0 is {sums[0]} but must equal the degree {degree}")
    scale = _scale(sums[1:])
    signed = _alternating_scaled(sums[1:], scale, "p")  # (-1)^(i-1) * P_i
    scaled = [1]  # W_0..W_(k-1)
    values = []
    denominator = 1  # k! * s^k
    for k in range(1, degree + 1):
        # Horner in the falling factorial: with j = k - i, the weight
        # (k-1)!/(k-i)! of the j-th term is the product (j+1)*...*(k-1).
        acc = 0
        for j in range(k):
            acc = j * acc + scaled[j] * signed[k - 1 - j]
        scaled.append(acc)
        denominator *= k * scale
        values.append(Fraction(acc, denominator))
    return SignedCoefficients(degree, values)


def scaled_negative_power_sums(signed: SignedCoefficients, k_max: int) -> tuple[list[int], int]:
    """Q_0..Q_k_max and s, with q_k = Q_k / s**k the sum of the (-k)-th powers of the roots.

    Realized as the ordinary power sums of the reciprocal roots, read
    off the signed view: with e_0 = 1, the reciprocals' k-th elementary
    symmetric function is e_(n-k)/e_n, so their signed coefficients are
    v_(n-1)/v_n, ..., v_1/v_n, 1/v_n. Requires a nonzero product of
    roots v_n (last signed coefficient), i.e. no zero root; q_0 = n as
    usual, and degree 0 gives all zeros.
    """
    *rest, last = 1, *signed.values
    if last == 0:
        raise ValueError("constant term is zero: a zero root has no reciprocal")
    flipped = SignedCoefficients(signed.degree, [e / last for e in reversed(rest)])
    return scaled_power_sums(flipped, k_max)


def negative_power_sums(signed: SignedCoefficients, k_max: int) -> list[Fraction]:
    """q_0..q_k_max with q_k the sum of the (-k)-th powers of the roots.

    The values of :func:`scaled_negative_power_sums`, reduced.
    """
    return _reduced(*scaled_negative_power_sums(signed, k_max))
