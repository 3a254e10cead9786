"""Command-line surface.

Subcommands: powersums, coeffs, series, from-roots, verify, truncate,
negpowers, bench. Each command builds one payload. ``--json`` prints it
as a JSON object in which every rational is a "num/den" string (JSON
numbers would be lossy); otherwise it is rendered as a human-readable
table.

``powersums``, ``series``, ``negpowers`` and ``from-roots`` print every
value in both modes. They take each route's scaled integers P_k and its
scale s from the route's kernel, write each value's "num/den" straight
from (P_k, s^k), and build no ``Fraction``; ``from-roots`` compares its
three routes on those integers before writing any. Their payloads hold
the strings. ``bench`` times the two coefficient-only kernels and
compares their integers too.

Only ``verify`` and ``coeffs`` hold their power sums as exact
``Fraction``s, which the encoder converts only where it prints them:
``verify``'s text mode prints none of its power sums, so it converts
none. ``verify`` reads the series from its kernel and runs both series
checks on those integers. Its recurrence is the one route still read
through a reducing public function; ROADMAP's "Settled" says why.

Exit codes: 1 usage or parse error, a request too large to hold in
memory, or output that could not be written (a closed pipe, a full
disk), 2 mathematical domain error, 3 internal cross-route
disagreement (never expected). Otherwise the exit code comes from the
payload's ``checks``: 2 if any verification check failed, 0 if all
passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Sequence

from .polynomial import InternalError, Polynomial, from_signed, poly_from_roots, to_signed
# verify alone calls power_sums_from_coeffs. perfbench's tracer looks up
# every name in its BOUNDARY here, so negative_power_sums, power_sums_direct,
# log_derivative_power_sums and cross_multiplied_check stay imported though
# no command calls them. See ROADMAP "Settled: verify reads the recurrence
# through power_sums_from_coeffs".
from .newton import (
    coeffs_from_power_sums,
    negative_power_sums,
    power_sums_from_coeffs,
    scaled_negative_power_sums,
    scaled_power_sums,
)
from .series import (
    cross_multiplied_check,
    descending_text,
    log_derivative_power_sums,
    scaled_cross_check,
    scaled_log_derivative,
)
from .roots import (
    power_sums_direct,
    require_root_count,
    scaled_direct_sums,
    truncation_report,
    verify_by_substitution,
)
from .parser import MAX_EXPONENT, ParseError, parse_polynomial, parse_rational_list

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_INTERNAL = 3

# The highest power sum index a command computes, checked before any work
# starts. It bounds how many values are computed, not their size: the bits
# per value also grow with the coefficients and have no budget.
MAX_K = 100_000

_GRAMMAR_HELP = """\
polynomial grammar:
  expression  = ['-'] term (('+' | '-') term)*
  term        = [coefficient] [variable ['^' exponent]]
  coefficient = integer | integer '/' positive-integer
  variable    = single ASCII letter, consistent within one input
  exponent    = nonnegative integer

"1/2x" binds as (1/2)*x (coefficient first, then variable); whitespace
is insignificant; like terms are combined. Rational lists are
comma-separated "num/den" or integer entries, e.g. "1, -4, 5/10".

An argument starting with "-" (a negative leading term, a negative
first root) must follow a "--" terminator or carry a leading space:
rootsums powersums --k 3 -- "-x^2 + 3x"
"""


# How many times _ratio divides out a common factor of the scale before it
# falls back to a full gcd.
_PEELS = 4

# What a command returns: its payload (the --json object, every rational a
# "num/den" string that _texts writes from scaled integers or, in verify and
# coeffs, an exact Fraction that the encoder writes as that string) and the
# function that renders it as text.
_Result = tuple[dict, Callable[[dict], str]]


class _UsageError(Exception):
    """An option value out of range; exits with EXIT_USAGE."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _require_k(args: argparse.Namespace) -> None:
    _require(args.k >= 0, "--k must be nonnegative")
    _require(args.k <= MAX_K, f"--k must be at most {MAX_K}")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    # One invalid-choice message for every Python, as build_parser pins the
    # usage text: 3.13.13's argparse writes the choices unquoted.
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _check(name: str, residual: str | None) -> dict:
    """A check passes exactly when it has no residual to report."""
    return {"name": name, "pass": residual is None, "residual": residual}


def _ratio(numerator: int, scale: int, denominator: int) -> str:
    """numerator/denominator in lowest terms, as str(Fraction) writes it.

    The denominator divides a power of scale, so every prime it has
    divides scale, and the pair is reduced exactly when
    g = gcd(gcd(numerator, scale), denominator) is 1. Each peel divides
    both by g, a divisor of scale, which costs a small-by-big division
    where a full gcd of the two big ints would cost far more. A pair
    that still shares a prime after _PEELS peels is divided by its full
    gcd, the one Fraction would compute.
    """
    for _ in range(_PEELS):
        common = math.gcd(numerator, scale)
        if common != 1:
            common = math.gcd(common, denominator)
        if common == 1:
            break
        numerator //= common
        denominator //= common
    else:
        common = math.gcd(numerator, denominator)
        numerator //= common
        denominator //= common
    return f"{numerator}/{denominator}" if denominator != 1 else str(numerator)


def _texts(sums: list[int], scale: int) -> list[str]:
    """The strings of sums[k]/scale**k, k = 0, 1, ...

    The kernels take the least exponent of s at every prime below 100,
    so P_k and s^k share little, and most values leave _ratio at once
    or after one peel.
    """
    out = []
    power = 1
    for v in sums:
        out.append(_ratio(v, scale, power))
        power *= scale
    return out


def _same_sums(a: tuple[list[int], int], b: tuple[list[int], int]) -> bool:
    """Whether x_k/s**k == y_k/t**k for every k, with a = (x, s), b = (y, t).

    Cross-multiplied, the k-th equation is x_k*t**k == y_k*s**k, which
    holds exactly when the two reduced values are equal. With
    g = gcd(s, t), g**k divides both t**k and s**k, so dividing it out
    leaves the equivalent x_k*(t/g)**k == y_k*(s/g)**k. Equal scales
    give s/g = t/g = 1: the integers are compared as they are.
    """
    (x, s), (y, t) = a, b
    if len(x) != len(y):
        return False
    g = math.gcd(s, t)
    x_factor = y_factor = 1
    for u, v in zip(x, y):
        if u * x_factor != v * y_factor:
            return False
        x_factor *= t // g
        y_factor *= s // g
    return True


def _disagreements(sums: list[Fraction], scaled: list[int], scale: int) -> Iterator[str]:
    """Failure texts "p{k}: a != b", with a = sums[k] and b = scaled[k]/scale**k.

    a = c/d equals P/s**k exactly when c*s**k == P*d, so the test
    reduces nothing; only a failure writes b, through _ratio.
    """
    power = 1
    for k, (a, v) in enumerate(zip(sums, scaled)):
        if a.numerator * power != v * a.denominator:
            yield f"p{k}: {a} != {_ratio(v, scale, power)}"
        power *= scale


def _table(rows: list[tuple[str, str]], separator: str, indent: str = "") -> list[str]:
    """Two aligned columns: keys to the left, values to the right."""
    key_width = max(len(k) for k, _ in rows)
    value_width = max(len(v) for _, v in rows)
    return [f"{indent}{k:<{key_width}}{separator}{v:>{value_width}}" for k, v in rows]


def _sums_text(payload: dict, symbol: str = "p") -> str:
    rows = [(f"{symbol}{k}", v) for k, v in enumerate(payload["power_sums"])]
    return "\n".join(_table(rows, " = "))


def _cmd_powersums(args: argparse.Namespace) -> _Result:
    _require_k(args)
    poly = parse_polynomial(args.poly)
    sums = _texts(*scaled_power_sums(to_signed(poly), args.k))
    return {"degree": poly.degree, "power_sums": sums, "checks": []}, _sums_text


def _cmd_coeffs(args: argparse.Namespace) -> _Result:
    _require(args.n >= 0, "--n must be nonnegative")
    _require(args.n <= MAX_EXPONENT, f"--n must be at most {MAX_EXPONENT}")
    entries = parse_rational_list(args.powersums)
    if len(entries) < args.n:
        raise ValueError(
            f"need at least {args.n} power sums p1..p{args.n}, got {len(entries)}"
        )
    sums = [Fraction(args.n)] + entries[: args.n]
    poly = from_signed(coeffs_from_power_sums(sums, args.n))
    payload = {"degree": args.n, "power_sums": sums, "checks": [], "polynomial": str(poly)}
    return payload, itemgetter("polynomial")


def _cmd_series(args: argparse.Namespace) -> _Result:
    _require_k(args)
    poly = parse_polynomial(args.poly)
    # p_k is the coefficient of x^(-k-1) in p'/p. Both modes print every
    # value: convert each once, for both fields.
    strings = _texts(*scaled_log_derivative(poly, args.k))
    series = descending_text(-1, strings)
    payload = {"degree": poly.degree, "power_sums": strings, "checks": [], "series": series}
    return payload, itemgetter("series")


def _cmd_from_roots(args: argparse.Namespace) -> _Result:
    _require_k(args)
    roots = parse_rational_list(args.roots)
    _require(len(roots) <= MAX_EXPONENT, f"from-roots takes at most {MAX_EXPONENT} roots")
    poly = poly_from_roots(roots)
    direct = scaled_direct_sums(roots, args.k)
    recurrence = scaled_power_sums(to_signed(poly), args.k)
    series = scaled_log_derivative(poly, args.k)
    if not (_same_sums(direct, recurrence) and _same_sums(direct, series)):
        raise InternalError("the three power-sum routes disagree")
    checks = [_check("three-route agreement", None)]
    sums = _texts(*direct)
    payload = {"degree": poly.degree, "power_sums": sums, "checks": checks, "polynomial": str(poly)}
    return payload, lambda p: p["polynomial"] + "\n" + _sums_text(p)


def _grid_lines(grid) -> list[str]:
    # Aligned equality marks: one row per truncation degree k = 1..n, in
    # the report's order, with a column for each p_j, j <= k.
    n = grid.cells[-1].degree
    width = len(f"p{n}")
    lines = ["  deg  " + "  ".join(f"{f'p{j}':>{width}}" for j in range(1, n + 1))]
    for degree, row in itertools.groupby(grid.cells, attrgetter("degree")):
        marks = ("=" if cell.equal else "!" for cell in row)
        lines.append(f"  {degree:<3}  " + "  ".join(f"{m:>{width}}" for m in marks))
    return lines


def _cmd_verify(args: argparse.Namespace) -> _Result:
    _require_k(args)
    poly = parse_polynomial(args.poly)
    if args.roots is not None:
        roots = parse_rational_list(args.roots)
        _require(
            args.k >= poly.degree,
            "--k must be at least the polynomial degree when --roots is given",
        )
        require_root_count(poly.degree, roots)

    signed = to_signed(poly)
    recurrence = power_sums_from_coeffs(signed, args.k)
    series = scaled_log_derivative(poly, args.k)
    cross = scaled_cross_check(poly, *series)
    # Each check: name, failures (the first is its residual), lazy text table.
    checks = [
        ("recurrence-series agreement", _disagreements(recurrence, *series), list),
        (
            "cross-multiplied identity",
            (f"x^{e}: residual {v}" for e, v in cross.residuals if v != 0),
            list,
        ),
    ]
    if args.roots is not None:
        subst = verify_by_substitution(poly, roots, args.k)
        # k >= degree >= 1 here (degree 0 fails the root count, as the
        # parser returns at least one root), so the grid covers every
        # truncation degree and is never empty.
        grid = truncation_report(signed, roots, poly.degree)
        checks += [
            (
                "root substitution",
                (f"p({r}) = {v}" for r, v in subst.root_residuals if v != 0),
                lambda: _table(
                    [(f"p({r})", str(v)) for r, v in subst.root_residuals], "  ", "  "
                ),
            ),
            (
                "collected window identities",
                (f"k={k}: residual {v}" for k, v in subst.window_residuals if v != 0),
                lambda: _table(
                    [(f"k={k}", str(v)) for k, v in subst.window_residuals], "  ", "  "
                ),
            ),
            (
                "truncation grid",
                (
                    f"degree {c.degree}, p{c.index}: {c.truncated} != {c.direct}"
                    for c in grid.cells
                    if not c.equal
                ),
                partial(_grid_lines, grid),
            ),
        ]

    def render(payload: dict) -> str:
        width = max(len(c["name"]) for c in payload["checks"])
        lines = []
        for c, (_, _, table) in zip(payload["checks"], checks):
            status = "pass" if c["pass"] else "FAIL"
            residual = f"  {c['residual']}" if c["residual"] else ""
            lines += [f"{c['name']:<{width}}  {status}{residual}", *table()]
        return "\n".join(lines)

    results = [_check(name, next(failures, None)) for name, failures, _ in checks]
    return {"degree": poly.degree, "power_sums": recurrence, "checks": results}, render


def _cmd_truncate(args: argparse.Namespace) -> _Result:
    poly = parse_polynomial(args.poly)
    _require(
        0 <= args.degree <= poly.degree,
        f"--degree must be in 0..{poly.degree}",
    )
    result = from_signed(to_signed(poly).truncate(args.degree))
    payload = {"degree": args.degree, "polynomial": str(result), "checks": []}
    return payload, itemgetter("polynomial")


def _cmd_negpowers(args: argparse.Namespace) -> _Result:
    _require_k(args)
    poly = parse_polynomial(args.poly)
    sums = _texts(*scaled_negative_power_sums(to_signed(poly), args.k))
    payload = {"degree": poly.degree, "power_sums": sums, "checks": []}
    return payload, partial(_sums_text, symbol="q")


def _bench_text(payload: dict) -> str:
    return "\n".join(
        [
            f"degree {payload['degree']}, k {payload['k']}, seed {payload['seed']}",
            f"recurrence route: {payload['recurrence_seconds']:.3f} s",
            f"series route:     {payload['series_seconds']:.3f} s",
            f"routes agree exactly on {payload['k'] + 1} power sums",
            f"max numerator bit length: {payload['max_numerator_bits']}",
        ]
    )


def _cmd_bench(args: argparse.Namespace) -> _Result:
    _require(args.degree >= 1, "--degree must be at least 1")
    _require(args.k >= 1, "--k must be at least 1")
    _require(args.degree <= MAX_EXPONENT, f"--degree must be at most {MAX_EXPONENT}")
    _require_k(args)
    rng = random.Random(args.seed)
    coefficients = [rng.randint(-9, 9) for _ in range(args.degree)] + [1]
    poly = Polynomial(coefficients)
    signed = to_signed(poly)

    start = time.perf_counter()
    recurrence = scaled_power_sums(signed, args.k)
    mid = time.perf_counter()
    series = scaled_log_derivative(poly, args.k)
    end = time.perf_counter()

    if not _same_sums(recurrence, series):
        raise InternalError("recurrence and series routes disagree")
    # A monic integer polynomial: its scale is 1, so P_k is p_k itself.
    assert recurrence[1] == 1
    payload = {
        "degree": args.degree,
        "k": args.k,
        "seed": args.seed,
        "max_numerator_bits": max(abs(v).bit_length() for v in recurrence[0]),
        "recurrence_seconds": mid - start,
        "series_seconds": end - mid,
        "checks": [_check("route agreement", None)],
    }
    return payload, _bench_text


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="rootsums",
        description="Exact power sums of polynomial roots, three independent ways.",
        epilog=_GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        return sub

    sub = command("powersums", _cmd_powersums, "power sums p0..pk from coefficients")
    sub.add_argument("poly", help="polynomial expression")
    sub.add_argument("--k", type=int, required=True, help="highest power sum index")

    sub = command("coeffs", _cmd_coeffs, "recover the monic polynomial from p1..pn")
    sub.add_argument("--n", type=int, required=True, help="degree of the polynomial")
    sub.add_argument(
        "--powersums",
        required=True,
        help="comma-separated p1..pn (p0 is implied by --n; entries past pn are ignored)",
    )

    sub = command("series", _cmd_series, "descending expansion of p'(x)/p(x)")
    sub.add_argument("poly", help="polynomial expression")
    sub.add_argument("--k", type=int, required=True, help="highest power sum index")

    sub = command(
        "from-roots", _cmd_from_roots, "polynomial and power sums of given roots"
    )
    sub.add_argument("roots", help="comma-separated rational roots")
    sub.add_argument("--k", type=int, required=True, help="highest power sum index")

    sub = command("verify", _cmd_verify, "run the identity checks on a polynomial")
    sub.add_argument("poly", help="polynomial expression")
    sub.add_argument("--roots", help="comma-separated rational roots to check")
    sub.add_argument("--k", type=int, required=True, help="highest power sum index")

    sub = command("truncate", _cmd_truncate, "lower-degree companion equation")
    sub.add_argument("poly", help="polynomial expression")
    sub.add_argument("--degree", type=int, required=True, help="truncation degree")

    sub = command("negpowers", _cmd_negpowers, "power sums of reciprocal roots")
    sub.add_argument("poly", help="polynomial expression")
    sub.add_argument("--k", type=int, required=True, help="highest reciprocal power")

    sub = command("bench", _cmd_bench, "time recurrence vs series on a random input")
    sub.add_argument("--degree", type=int, required=True, help="polynomial degree")
    sub.add_argument("--k", type=int, required=True, help="highest power sum index")
    sub.add_argument("--seed", type=int, default=0, help="random seed")

    # A fixed usage text: argparse 3.13 wraps the generated one differently
    # from 3.10-3.12. Set after add_subparsers, which builds each
    # subcommand's prog from the generated usage.
    indent = "\n" + " " * len("usage: rootsums ")
    parser.usage = f"%(prog)s [-h]{indent}{{{','.join(commands.choices)}}}{indent}..."
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # Lift CPython's int-to-str digit limit while the command runs: exact
    # results legitimately grow past the default 4,300 digits and must
    # still print. The limit guards int() against huge strings, and no
    # such string reaches int() here: argparse has converted the integer
    # options above, and the parser refuses longer literals before
    # converting them.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload, render = args.handler(args)
        text = json.dumps(payload, default=str) if args.json else render(payload)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # The caps bound how many values a request computes, not their bits.
        print("error: not enough memory for this request", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:
        print(f"parse error: {err.diagnostic}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)
    try:
        print(text)
        sys.stdout.flush()
    except OSError as err:
        # A closed pipe or a full disk. Point fd 1 at the null device, so
        # that the interpreter's flush of the rest at exit fails silently.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the output: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(c["pass"] for c in payload["checks"]) else EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
