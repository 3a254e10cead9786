"""Printing and comparing from the kernels' scaled integers.

``powersums``, ``series``, ``negpowers`` and ``from-roots`` never reduce
a value to a ``Fraction``: the CLI writes "num/den" straight from a
kernel's (P_k, s), and ``from-roots`` compares its three routes on their
integers. These properties hold both against ``Fraction``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import rootsums.cli as cli
from rootsums import poly_from_roots, to_signed
from rootsums.newton import scaled_power_sums
from rootsums.roots import scaled_direct_sums
from rootsums.series import scaled_log_derivative

# s = 840 leaves most numerators coprime to it, s = 22680 = 2^3*3^4*5*7 few.
SCALES = (1, 2, 840, 2310, 22680)

# B = 404 = 2^2*101, both coefficient kernels' s is 40804 = 2^2*101^2:
# a_2 = -1/101^2 makes greedy take 101 twice, and the kernels cut only
# primes below 100 back to their least exponent.
UNEQUAL_SCALES = "1/101, -1/101, 3/4"

# B and both kernels' s are 6: equal scales above 1.
EQUAL_SCALES = "1/2, 1/3, 2"

# perfbench/workloads.py's _roots(random.Random(3), 16): B and both kernels'
# s are 12.
POOL_ROOTS = "-9/2, 8, -8/3, -1, 7/2, -3/4, -1, -5, 2, 7/4, -6, -3/4, -5/4, 7/4, 9/4, -6"


@st.composite
def scaled_values(draw):
    """(P, s, k): P often a multiple of a power of s or of one prime of s.

    So reduction has work: some values need more peels than _ratio's
    bound allows, and some share only one prime with s.
    """
    s = draw(st.sampled_from(SCALES))
    base = draw(st.sampled_from([s] + [q for q in (2, 3, 5, 7, 11) if s % q == 0]))
    k = draw(st.integers(min_value=0, max_value=30))
    m = draw(st.one_of(st.just(0), st.integers(min_value=-(10**30), max_value=10**30)))
    return m * base ** draw(st.integers(min_value=0, max_value=2 * k + 2)), s, k


@given(scaled_values())
def test_formatter_writes_what_fraction_writes(value):
    numerator, scale, k = value
    assert cli._ratio(numerator, scale, scale**k) == str(Fraction(numerator, scale**k))


@st.composite
def scaled_pairs(draw):
    """Two (ints, scale) routes over the same values u_k/g^k, one maybe nudged by 1 or cut short."""
    u = draw(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=12))
    g, a, b = (draw(st.sampled_from((1, 2, 3, 6, 12))) for _ in range(3))
    x = [v * a**k for k, v in enumerate(u)]
    y = [v * b**k for k, v in enumerate(u)]
    if draw(st.booleans()):
        y[draw(st.integers(min_value=0, max_value=len(y) - 1))] += draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):
        del y[-1]
    return (x, g * a), (y, g * b)


@given(scaled_pairs())
def test_integer_comparison_is_fraction_equality(pair):
    (x, s), (y, t) = pair
    as_fractions = [Fraction(v, s**k) for k, v in enumerate(x)] == [
        Fraction(v, t**k) for k, v in enumerate(y)
    ]
    assert cli._same_sums((x, s), (y, t)) == as_fractions


def routes(text, k):
    """The three kernels' (ints, scale) on the roots written in text."""
    roots = [Fraction(r) for r in text.split(",")]
    poly = poly_from_roots(roots)
    recurrence = scaled_power_sums(to_signed(poly), k)
    return scaled_direct_sums(roots, k), recurrence, scaled_log_derivative(poly, k)


def test_routes_with_unequal_scales_compare_equal():
    direct, recurrence, series = routes(UNEQUAL_SCALES, 40)
    assert (direct[1], recurrence[1], series[1]) == (404, 40804, 40804)
    assert cli._same_sums(direct, recurrence)
    assert cli._same_sums(recurrence, direct)
    assert cli._same_sums(direct, series)
    assert series == recurrence


def test_routes_with_equal_scales_compare_equal():
    direct, recurrence, series = routes(EQUAL_SCALES, 40)
    assert (direct[1], recurrence[1], series[1]) == (6, 6, 6)
    assert cli._same_sums(direct, recurrence)
    assert cli._same_sums(direct, series)
    assert series == recurrence


def test_pool_roots_give_every_route_the_scale_b():
    direct, recurrence, series = routes(POOL_ROOTS, 40)
    assert (direct[1], recurrence[1], series[1]) == (12, 12, 12)
    assert direct == recurrence == series


def off_by_one(kernel, index):
    """The kernel, with one of its scaled integers one unit off."""

    def wrong(*args):
        ints, scale = kernel(*args)
        ints[index] += 1
        return ints, scale

    return wrong


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("kernel", ["scaled_log_derivative", "scaled_power_sums", "scaled_direct_sums"])
@pytest.mark.parametrize(
    "roots",
    ["1, 2, -3", EQUAL_SCALES, UNEQUAL_SCALES],
    ids=["unit-scales", "equal-scales", "unequal-scales"],
)
def test_a_kernel_off_by_one_unit_makes_from_roots_exit_three(
    capsys, monkeypatch, roots, kernel, index
):
    monkeypatch.setattr(cli, kernel, off_by_one(getattr(cli, kernel), index))
    code = cli.main(["from-roots", "--k", "6", "--", roots])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "internal error: the three power-sum routes disagree\n"
