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

# perfbench/workloads.py's _roots(random.Random(3), 16): the direct route's
# B is 12, both coefficient kernels' s is 48.
UNEQUAL_SCALES = "-9/2, 8, -8/3, -1, 7/2, -3/4, -1, -5, 2, 7/4, -6, -3/4, -5/4, 7/4, 9/4, -6"


@st.composite
def scaled_values(draw):
    """(P, s, k): P often a multiple of a power of s, so reduction has work."""
    s = draw(st.sampled_from(SCALES))
    k = draw(st.integers(min_value=0, max_value=30))
    m = draw(st.one_of(st.just(0), st.integers(min_value=-(10**30), max_value=10**30)))
    return m * s ** draw(st.integers(min_value=0, max_value=k + 2)), s, k


@given(scaled_values())
def test_formatter_writes_what_fraction_writes(value):
    numerator, scale, k = value
    assert cli._ratio(numerator, scale, scale**k) == str(Fraction(numerator, scale**k))


@st.composite
def scaled_pairs(draw):
    """Two (ints, scale) routes over the same values u_k/g^k, one maybe nudged by 1 or cut short."""
    u = draw(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=12))
    g, a, b = (draw(st.sampled_from((1, 2, 3, 6, 12))) for _ in range(3))
    shift = draw(st.sampled_from((0, 1)))
    x = [v * a**k for k, v in enumerate(u)]
    y = [v * g**shift * b ** (k + shift) for k, v in enumerate(u)]
    if draw(st.booleans()):
        y[draw(st.integers(min_value=0, max_value=len(y) - 1))] += draw(st.sampled_from((-1, 1)))
    if draw(st.booleans()):
        del y[-1]
    return (x, g * a), (y, g * b), shift


@given(scaled_pairs())
def test_integer_comparison_is_fraction_equality(pair):
    (x, s), (y, t), shift = pair
    as_fractions = [Fraction(v, s**k) for k, v in enumerate(x)] == [
        Fraction(v, t ** (k + shift)) for k, v in enumerate(y)
    ]
    assert cli._same_sums((x, s), (y, t), shift) == as_fractions


def test_routes_with_unequal_scales_compare_equal():
    roots = [Fraction(r) for r in UNEQUAL_SCALES.split(",")]
    poly = poly_from_roots(roots)
    direct = scaled_direct_sums(roots, 40)
    recurrence = scaled_power_sums(to_signed(poly), 40)
    series = scaled_log_derivative(poly, 40)
    assert (direct[1], recurrence[1], series[1]) == (12, 48, 48)
    assert cli._same_sums(direct, recurrence)
    assert cli._same_sums(direct, series, shift=1)
    assert not cli._same_sums(direct, series)


def off_by_one(kernel, index):
    """The kernel, with one of its scaled integers one unit off."""

    def wrong(*args):
        ints, scale = kernel(*args)
        ints[index] += 1
        return ints, scale

    return wrong


@pytest.mark.parametrize("index", [0, -1])
@pytest.mark.parametrize("kernel", ["scaled_log_derivative", "scaled_power_sums", "scaled_direct_sums"])
@pytest.mark.parametrize("roots", ["1, 2, -3", UNEQUAL_SCALES], ids=["equal-scales", "unequal-scales"])
def test_a_kernel_off_by_one_unit_makes_from_roots_exit_three(
    capsys, monkeypatch, roots, kernel, index
):
    monkeypatch.setattr(cli, kernel, off_by_one(getattr(cli, kernel), index))
    code = cli.main(["from-roots", "--k", "6", "--", roots])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == "internal error: the three power-sum routes disagree\n"
