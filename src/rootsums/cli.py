"""Command-line surface.

Subcommands: powersums, coeffs, series, from-roots, verify, truncate,
negpowers, bench. Each command builds one payload; ``--json`` prints it
as a JSON object in which every rational is a "num/den" string (JSON
numbers would be lossy), otherwise it is rendered as a human-readable
table.

Exit codes: 1 usage or parse error, 2 mathematical domain error,
3 internal cross-route disagreement (never expected). Otherwise the
exit code comes from the payload's ``checks``: 2 if any verification
check failed, 0 if all passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

from .polynomial import Polynomial, from_signed, poly_from_roots, to_signed
from .newton import (
    InternalError,
    coeffs_from_power_sums,
    negative_power_sums,
    power_sums_from_coeffs,
)
from .series import DescendingSeries, cross_multiplied_check, log_derivative_power_sums
from .roots import power_sums_direct, truncation_report, verify_by_substitution
from .parser import ParseError, parse_polynomial, parse_rational_list

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2
EXIT_INTERNAL = 3

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


# What a command returns: its payload (the --json object, every rational
# already a "num/den" string) and the function that renders it as text.
_Result = tuple[dict, Callable[[dict], str]]


class _UsageError(Exception):
    """An option value out of range; exits with EXIT_USAGE."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check(name: str, residual: str | None) -> dict:
    """A check passes exactly when it has no residual to report."""
    return {"name": name, "pass": residual is None, "residual": residual}


def _sums_payload(
    degree: int, sums: Sequence[Fraction], checks: list[dict], **extra: str
) -> dict:
    return {
        "degree": degree,
        "power_sums": [str(v) for v in sums],
        "checks": checks,
        **extra,
    }


def _sums_text(payload: dict, symbol: str = "p") -> str:
    values = payload["power_sums"]
    index_width = len(str(len(values) - 1))
    value_width = max(map(len, values))
    return "\n".join(
        f"{symbol}{k:<{index_width}} = {v:>{value_width}}" for k, v in enumerate(values)
    )


def _cmd_powersums(args: argparse.Namespace) -> _Result:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = power_sums_from_coeffs(to_signed(poly), args.k)
    return _sums_payload(poly.degree, sums, []), _sums_text


def _cmd_coeffs(args: argparse.Namespace) -> _Result:
    _require(args.n >= 0, "--n must be nonnegative")
    entries = parse_rational_list(args.powersums)
    if len(entries) < args.n:
        raise ValueError(
            f"need at least {args.n} power sums p1..p{args.n}, got {len(entries)}"
        )
    sums = [Fraction(args.n)] + entries[: args.n]
    poly = from_signed(coeffs_from_power_sums(sums, args.n))
    return _sums_payload(args.n, sums, [], polynomial=str(poly)), itemgetter("polynomial")


def _cmd_series(args: argparse.Namespace) -> _Result:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = log_derivative_power_sums(poly, args.k)
    series = str(DescendingSeries(-1, tuple(sums)))
    return _sums_payload(poly.degree, sums, [], series=series), itemgetter("series")


def _cmd_from_roots(args: argparse.Namespace) -> _Result:
    _require(args.k >= 0, "--k must be nonnegative")
    roots = parse_rational_list(args.roots)
    poly = poly_from_roots(roots)
    direct = power_sums_direct(roots, args.k)
    recurrence = power_sums_from_coeffs(to_signed(poly), args.k)
    series = log_derivative_power_sums(poly, args.k)
    if not (direct == recurrence == series):
        raise InternalError("the three power-sum routes disagree")
    checks = [_check("three-route agreement", None)]
    payload = _sums_payload(poly.degree, direct, checks, polynomial=str(poly))
    return payload, lambda p: p["polynomial"] + "\n" + _sums_text(p)


def _residual_table(rows: list[tuple[str, str]]) -> list[str]:
    key_width = max(len(k) for k, _ in rows)
    value_width = max(len(v) for _, v in rows)
    return [f"  {k:<{key_width}}  {v:>{value_width}}" for k, v in rows]


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
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    if args.roots is not None:
        roots = parse_rational_list(args.roots)
        _require(
            args.k >= poly.degree,
            "--k must be at least the polynomial degree when --roots is given",
        )

    recurrence = power_sums_from_coeffs(to_signed(poly), args.k)
    series_sums = log_derivative_power_sums(poly, args.k)
    cross = cross_multiplied_check(
        poly, args.k, series=DescendingSeries(-1, tuple(series_sums))
    )
    # Each residual is the first failure found, or None when the check passes.
    bad_sum = next(
        (
            f"p{k}: {a} != {b}"
            for k, (a, b) in enumerate(zip(recurrence, series_sums))
            if a != b
        ),
        None,
    )
    bad = cross.first_nonzero()
    checks = [
        _check("recurrence-series agreement", bad_sum),
        _check(
            "cross-multiplied identity",
            None if bad is None else f"x^{bad[0]}: residual {bad[1]}",
        ),
    ]

    if args.roots is not None:
        substitution = verify_by_substitution(poly, roots, args.k)
        bad_root = next(
            (f"p({r}) = {v}" for r, v in substitution.root_residuals if v != 0), None
        )
        bad_window = next(
            (f"k={k}: residual {v}" for k, v in substitution.window_residuals if v != 0),
            None,
        )
        # k >= degree >= 1 here (degree 0 fails in the series route), so
        # the grid covers every truncation degree and is never empty.
        grid = truncation_report(to_signed(poly), roots, poly.degree)
        bad_cell = next(
            (
                f"degree {c.degree}, p{c.index}: {c.truncated} != {c.direct}"
                for c in grid.cells
                if not c.equal
            ),
            None,
        )
        checks += [
            _check("root substitution", bad_root),
            _check("collected window identities", bad_window),
            _check("truncation grid", bad_cell),
        ]

    def render(payload: dict) -> str:
        details = {}
        if args.roots is not None:
            details = {
                "root substitution": _residual_table(
                    [(f"p({r})", str(v)) for r, v in substitution.root_residuals]
                ),
                "collected window identities": _residual_table(
                    [(f"k={k}", str(v)) for k, v in substitution.window_residuals]
                ),
                "truncation grid": _grid_lines(grid),
            }
        width = max(len(c["name"]) for c in payload["checks"])
        lines = []
        for c in payload["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            line = f"{c['name']:<{width}}  {status}"
            if c["residual"]:
                line += f"  {c['residual']}"
            lines.append(line)
            lines.extend(details.get(c["name"], ()))
        return "\n".join(lines)

    return _sums_payload(poly.degree, recurrence, checks), render


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
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = negative_power_sums(to_signed(poly), args.k)
    return _sums_payload(poly.degree, sums, []), partial(_sums_text, symbol="q")


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
    rng = random.Random(args.seed)
    coefficients = [rng.randint(-9, 9) for _ in range(args.degree)] + [1]
    poly = Polynomial(coefficients)
    signed = to_signed(poly)

    start = time.perf_counter()
    recurrence = power_sums_from_coeffs(signed, args.k)
    mid = time.perf_counter()
    series = log_derivative_power_sums(poly, args.k)
    end = time.perf_counter()

    if recurrence != series:
        raise InternalError("recurrence and series routes disagree")
    payload = {
        "degree": args.degree,
        "k": args.k,
        "seed": args.seed,
        "max_numerator_bits": max(abs(v.numerator).bit_length() for v in recurrence),
        "recurrence_seconds": mid - start,
        "series_seconds": end - mid,
        "checks": [_check("route agreement", None)],
    }
    return payload, _bench_text


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's int-to-str digit limit while a command runs.

    Exact results legitimately grow past the default 4,300 digits and
    must still print. The limit guards int() against huge strings, and
    no such string reaches int() here: argparse converts the integer
    options before the limit is lifted, and the parser refuses longer
    literals before converting them.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


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
        help="comma-separated p1..pn (p0 is implied by --n)",
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

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with _unlimited_int_digits():
            payload, render = args.handler(args)
            print(json.dumps(payload) if args.json else render(payload))
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
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
    return EXIT_OK if all(c["pass"] for c in payload["checks"]) else EXIT_MATH


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
