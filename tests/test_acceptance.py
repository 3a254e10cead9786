"""Acceptance suite: one test per criterion, all exact (no tolerances).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion. Every expected value is either computed by an
independent route inside the test or frozen from a hand derivation.
"""

import json
import random
import time

from rootsums import (
    ExactScalar,
    Polynomial,
    SignedCoefficients,
    ParseError,
    coeffs_from_power_sums,
    cross_multiplied_check,
    log_derivative_power_sums,
    negative_power_sums,
    parse_polynomial,
    parse_rational_list,
    poly_from_roots,
    power_sums_direct,
    power_sums_from_coeffs,
    to_signed,
)
from rootsums.cli import main

F = ExactScalar
CASES = 200


def _passed(number: int, name: str) -> None:
    print(f"criterion {number} ({name}): PASS")


def _random_scalar(rng, max_num, max_den, nonzero=False):
    lo = 1 if nonzero else 0
    magnitude = rng.randint(lo, max_num)
    sign = rng.choice((-1, 1))
    return F(sign * magnitude, rng.randint(1, max_den))


def _random_multiset(rng, max_size=7, max_num=6, max_den=3, nonzero=False):
    size = rng.randint(1, max_size)
    return [_random_scalar(rng, max_num, max_den, nonzero=nonzero) for _ in range(size)]


def _random_monic(rng, max_degree=8, max_num=9, max_den=4):
    degree = rng.randint(1, max_degree)
    coeffs = [_random_scalar(rng, max_num, max_den) for _ in range(degree)]
    return Polynomial(coeffs + [F(1)])


def test_criterion_1_three_route_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(CASES):
        roots = _random_multiset(rng)
        k_max = 2 * len(roots) + 5
        direct = power_sums_direct(roots, k_max)
        poly = poly_from_roots(roots)
        recurrence = power_sums_from_coeffs(to_signed(poly), k_max)
        series = log_derivative_power_sums(poly, k_max)
        assert direct == recurrence == series
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"
    _passed(1, "three-route equivalence")


def test_criterion_2_coefficient_only_equivalence():
    rng = random.Random(102)
    for _ in range(CASES):
        poly = _random_monic(rng)
        k_max = 2 * poly.degree + 5
        recurrence = power_sums_from_coeffs(to_signed(poly), k_max)
        series = log_derivative_power_sums(poly, k_max)
        assert recurrence == series
        assert cross_multiplied_check(poly, k_max).ok
    _passed(2, "coefficient-only route equivalence")


def test_criterion_3_round_trip():
    rng = random.Random(103)
    for _ in range(CASES):
        degree = rng.randint(1, 8)
        signed = SignedCoefficients(
            degree, tuple(_random_scalar(rng, 9, 4) for _ in range(degree))
        )
        sums = power_sums_from_coeffs(signed, degree)
        assert coeffs_from_power_sums(sums, degree) == signed
    _passed(3, "coefficients round trip through power sums")


def test_criterion_4_regime_boundary():
    rng = random.Random(104)
    for _ in range(CASES):
        poly = _random_monic(rng)
        n = poly.degree
        signed = to_signed(poly)
        sums = power_sums_from_coeffs(signed, n)
        assert sums[0] == n
        # Evaluate both regimes at k = n straight from their definitions.
        short = F(0)
        for i in range(1, n):
            term = signed.values[i - 1] * sums[n - i]
            short = short + term if i % 2 == 1 else short - term
        tail = n * signed.values[n - 1]
        short = short + tail if n % 2 == 1 else short - tail
        full = F(0)
        for i in range(1, n + 1):
            term = signed.values[i - 1] * sums[n - i]
            full = full + term if i % 2 == 1 else full - term
        assert short == full == sums[n]
    _passed(4, "regime boundary at k = n, p0 = n")


def test_criterion_5_truncation_grid():
    rng = random.Random(105)
    for _ in range(CASES):
        roots = _random_multiset(rng)
        n = len(roots)
        signed = to_signed(poly_from_roots(roots))
        direct = power_sums_direct(roots, n)
        for k in range(1, n + 1):
            companion = power_sums_from_coeffs(signed.truncate(k), k)
            for j in range(1, k + 1):
                assert companion[j] == direct[j]
    # Documented counterexample: agreement stops beyond j <= k.
    signed = to_signed(poly_from_roots([1, 2]))
    beyond = power_sums_from_coeffs(signed.truncate(1), 2)
    assert beyond[2] == 9
    assert power_sums_direct([1, 2], 2)[2] == 5
    assert beyond[2] != 5
    _passed(5, "truncation grid with counterexample beyond the diagonal")


def test_criterion_6_worked_quintic_identities():
    rng = random.Random(106)
    for _ in range(CASES):
        a, b, c, d, e = (_random_scalar(rng, 9, 4) for _ in range(5))
        sums = power_sums_from_coeffs(SignedCoefficients(5, (a, b, c, d, e)), 5)
        p = sums
        assert p[1] == a
        assert p[2] == a * p[1] - 2 * b
        assert p[3] == a * p[2] - b * p[1] + 3 * c
        assert p[4] == a * p[3] - b * p[2] + c * p[1] - 4 * d
        assert p[5] == a * p[4] - b * p[3] + c * p[2] - d * p[1] + 5 * e
    _passed(6, "worked quintic identities")


def test_criterion_7_negative_powers():
    rng = random.Random(107)
    for _ in range(CASES):
        roots = _random_multiset(rng, nonzero=True)
        n = len(roots)
        signed = to_signed(poly_from_roots(roots))
        k_max = n + 4
        negative = negative_power_sums(signed, k_max)
        assert negative == power_sums_direct([1 / r for r in roots], k_max)
        # The window recurrence slid one step down (the m = -1 instance):
        # p_(n-1) = a1*p_(n-2) - a2*p_(n-3) + ... ± a_n*q_1.
        sums = power_sums_from_coeffs(signed, n)
        acc = F(0)
        for i in range(1, n + 1):
            previous = sums[n - 1 - i] if i <= n - 1 else negative[1]
            term = signed.values[i - 1] * previous
            acc = acc + term if i % 2 == 1 else acc - term
        assert sums[n - 1] == acc
    _passed(7, "negative power sums and the m = -1 window")


def test_criterion_8_parser_round_trip_and_fuzz():
    rng = random.Random(108)
    for _ in range(CASES):
        degree = rng.randint(0, 8)
        coeffs = [_random_scalar(rng, 9, 6) for _ in range(degree)]
        coeffs.append(_random_scalar(rng, 9, 6, nonzero=True))
        poly = Polynomial(coeffs)
        assert parse_polynomial(str(poly)) == poly

    grammar_alphabet = "0123456789xXy+-^/ ,.$()*"
    # Long digit runs straddle the 4,300-digit integer limit.
    long_tokens = ["x", "^", "+", "-", "/", " ", "0", "7"]
    fuzz_count = 100_000
    for i in range(fuzz_count):
        if i % 1000 == 1:
            raw = "".join(
                "9" * rng.randint(4295, 4305) if rng.random() < 0.3 else rng.choice(long_tokens)
                for _ in range(rng.randint(1, 6))
            )
        elif i % 2 == 0:
            raw = rng.randbytes(rng.randint(0, 12)).decode("latin-1")
        else:
            raw = "".join(
                rng.choice(grammar_alphabet) for _ in range(rng.randint(0, 12))
            )
        for entry in (parse_polynomial, parse_rational_list):
            try:
                entry(raw)
            except ParseError as err:
                assert 0 <= err.diagnostic.offset <= len(raw)
    _passed(8, f"parser round trip and {fuzz_count} fuzz inputs")


def test_criterion_9_scale_bench(capsys):
    start = time.perf_counter()
    code = main(["bench", "--degree", "64", "--k", "512", "--seed", "7", "--json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["checks"] == [
        {"name": "route agreement", "pass": True, "residual": None}
    ]
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    bits_full = payload["max_numerator_bits"]
    assert bits_full > 0

    # Numerator growth is expected to be roughly linear in k: halving k
    # should roughly halve the bit length.
    code = main(["bench", "--degree", "64", "--k", "256", "--seed", "7", "--json"])
    assert code == 0
    bits_half = json.loads(capsys.readouterr().out)["max_numerator_bits"]
    ratio = bits_full / bits_half
    assert 1.2 <= ratio <= 3.0, f"bit growth ratio {ratio:.2f} is not roughly linear"
    with capsys.disabled():
        print(
            f"\ncriterion 9 (scale bench): PASS "
            f"({elapsed:.2f}s, max numerator bits {bits_full}, "
            f"growth ratio {ratio:.2f})"
        )
