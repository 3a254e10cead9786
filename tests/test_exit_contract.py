"""The exit-code contract over argv, on seeded random requests.

Every subcommand with each of its options, at small sizes: degree at
most 6, ``--k``, ``--n`` and ``--degree`` in -1..13, root lists with
zeros, repeats and rationals, ``--json`` on and off. An option may be
missing, a list or polynomial malformed, and a leading "-" may come
without the "--" terminator or the "--opt=value" form. Whatever the
request, the exit code is 0, 1 or 2, stderr holds no traceback, and an
exit 1 prints nothing on stdout.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, seed, settings, strategies as st

from rootsums import Polynomial, poly_from_roots
from rootsums.cli import main

small_ints = st.integers(min_value=-1, max_value=13)
rationals = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)
# Few distinct values, so that repeats and zeros are common.
roots = st.lists(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2)]) | rationals,
    min_size=1,
    max_size=6,
)
malformed = st.sampled_from(["", "1,", ",2", "1/0", "x^2 -", "x + y", "2x^", "1/2/3", "x^99999"])


def rational_list(values) -> str:
    return ",".join(str(v) for v in values)


@st.composite
def polynomial_text(draw) -> str:
    kind = draw(st.sampled_from(["coefficients", "roots", "malformed"]))
    if kind == "coefficients":  # the zero polynomial and constants included
        return str(Polynomial(draw(st.lists(rationals, min_size=1, max_size=7))))
    if kind == "roots":
        return str(poly_from_roots(draw(roots)))
    return draw(malformed)


@st.composite
def requests(draw) -> list[str]:
    command = draw(
        st.sampled_from(
            ["powersums", "coeffs", "series", "from-roots", "verify", "truncate", "negpowers", "bench"]
        )
    )
    positional = None
    options = [["--json"]] if draw(st.booleans()) else []

    def option(name: str, value: str, required: bool = True) -> None:
        # A required option is left out one time in ten, for argparse's own error.
        if draw(st.integers(min_value=0, max_value=9)) >= (1 if required else 5):
            options.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])

    if command in ("powersums", "series", "negpowers"):
        positional = draw(polynomial_text())
        option("--k", str(draw(small_ints)))
    elif command == "coeffs":
        option("--n", str(draw(small_ints)))
        option("--powersums", draw(roots.map(rational_list) | malformed))
    elif command == "from-roots":
        positional = draw(roots.map(rational_list) | malformed)
        option("--k", str(draw(small_ints)))
    elif command == "verify":
        claimed = draw(roots)
        positional = draw(polynomial_text() | st.just(str(poly_from_roots(claimed))))
        option("--roots", draw(st.just(rational_list(claimed)) | malformed), required=False)
        option("--k", str(draw(small_ints)))
    elif command == "truncate":
        positional = draw(polynomial_text())
        option("--degree", str(draw(small_ints)))
    else:
        option("--degree", str(draw(small_ints)))
        option("--k", str(draw(small_ints)))
        option("--seed", str(draw(st.integers(min_value=0, max_value=3))), required=False)
    argv = [command, *[token for tokens in draw(st.permutations(options)) for token in tokens]]
    if positional is not None:
        argv += (["--"] if draw(st.booleans()) else []) + [positional]
    return argv


@seed(2007)
@settings(max_examples=600, database=None, deadline=None)
@given(requests())
def test_every_request_exits_zero_one_or_two_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "", argv
