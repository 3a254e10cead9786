"""Command-line surface.

Subcommands: powersums, coeffs, series, from-roots, verify, truncate,
negpowers, bench. Human-readable tables by default; ``--json`` switches
to a machine format in which every rational is a "num/den" string (JSON
numbers would be lossy).

Exit codes: 0 success / everything verified, 1 usage or parse error,
2 mathematical domain error or failed verification, 3 internal
cross-route disagreement (never expected).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time
from typing import Sequence

from .scalar import ExactScalar
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


class _CommandError(Exception):
    """Carries an exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _CommandError(EXIT_USAGE, message)


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the contract here says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _check(name: str, passed: bool, residual: str | None) -> dict:
    return {"name": name, "pass": passed, "residual": None if passed else residual}


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload))


def _sums_lines(sums: Sequence[ExactScalar], symbol: str = "p") -> list[str]:
    index_width = len(str(len(sums) - 1))
    value_width = max(len(str(v)) for v in sums)
    return [
        f"{symbol}{k:<{index_width}} = {str(v):>{value_width}}"
        for k, v in enumerate(sums)
    ]


def _sums_payload(degree: int, sums: Sequence[ExactScalar], checks: list[dict]) -> dict:
    return {
        "degree": degree,
        "power_sums": [str(v) for v in sums],
        "checks": checks,
    }


def _cmd_powersums(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = power_sums_from_coeffs(to_signed(poly), args.k)
    if args.json:
        _emit_json(_sums_payload(poly.degree, sums, []))
    else:
        print("\n".join(_sums_lines(sums)))
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    _require(args.n >= 0, "--n must be nonnegative")
    entries = parse_rational_list(args.powersums)
    if len(entries) < args.n:
        raise _CommandError(
            EXIT_MATH,
            f"need at least {args.n} power sums p1..p{args.n}, got {len(entries)}",
        )
    sums = [ExactScalar(args.n)] + entries[: args.n]
    poly = from_signed(coeffs_from_power_sums(sums, args.n))
    if args.json:
        payload = _sums_payload(args.n, sums, [])
        payload["polynomial"] = str(poly)
        _emit_json(payload)
    else:
        print(poly)
    return EXIT_OK


def _cmd_series(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = log_derivative_power_sums(poly, args.k)
    series = DescendingSeries(-1, tuple(sums))
    if args.json:
        payload = _sums_payload(poly.degree, sums, [])
        payload["series"] = str(series)
        _emit_json(payload)
    else:
        print(series)
    return EXIT_OK


def _cmd_from_roots(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "--k must be nonnegative")
    roots = parse_rational_list(args.roots)
    poly = poly_from_roots(roots)
    direct = power_sums_direct(roots, args.k)
    recurrence = power_sums_from_coeffs(to_signed(poly), args.k)
    series = log_derivative_power_sums(poly, args.k)
    if not (direct == recurrence == series):
        print(
            "internal error: the three power-sum routes disagree", file=sys.stderr
        )
        return EXIT_INTERNAL
    checks = [_check("three-route agreement", True, None)]
    if args.json:
        payload = _sums_payload(poly.degree, direct, checks)
        payload["polynomial"] = str(poly)
        _emit_json(payload)
    else:
        print(poly)
        print("\n".join(_sums_lines(direct)))
    return EXIT_OK


def _first_difference(
    left: Sequence[ExactScalar], right: Sequence[ExactScalar]
) -> str | None:
    for k, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return f"p{k}: {a} != {b}"
    return None


def _residual_table(rows: list[tuple[str, str]]) -> list[str]:
    key_width = max(len(k) for k, _ in rows)
    value_width = max(len(v) for _, v in rows)
    return [f"  {k:<{key_width}}  {v:>{value_width}}" for k, v in rows]


def _grid_lines(grid) -> list[str]:
    # Aligned equality marks: rows are truncation degrees, columns are j.
    degrees = sorted({c.degree for c in grid.cells})
    indices = sorted({c.index for c in grid.cells})
    cells = {(c.degree, c.index): c for c in grid.cells}
    width = max(len(f"p{j}") for j in indices)
    header = "  deg  " + "  ".join(f"{f'p{j}':>{width}}" for j in indices)
    lines = [header]
    for degree in degrees:
        marks = []
        for j in indices:
            cell = cells.get((degree, j))
            mark = "" if cell is None else ("=" if cell.equal else "!")
            marks.append(f"{mark:>{width}}")
        lines.append(f"  {degree:<3}  " + "  ".join(marks).rstrip())
    return lines


def _cmd_verify(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    checks: list[dict] = []
    details: dict[str, list[str]] = {}

    recurrence = power_sums_from_coeffs(to_signed(poly), args.k)
    series_sums = log_derivative_power_sums(poly, args.k)
    checks.append(
        _check(
            "recurrence-series agreement",
            recurrence == series_sums,
            _first_difference(recurrence, series_sums),
        )
    )

    cross = cross_multiplied_check(
        poly, args.k, series=DescendingSeries(-1, tuple(series_sums))
    )
    bad = cross.first_nonzero()
    checks.append(
        _check(
            "cross-multiplied identity",
            cross.ok,
            None if bad is None else f"x^{bad[0]}: residual {bad[1]}",
        )
    )

    if args.roots is not None:
        roots = parse_rational_list(args.roots)
        _require(
            args.k >= poly.degree,
            "--k must be at least the polynomial degree when --roots is given",
        )
        substitution = verify_by_substitution(poly, roots, args.k)
        bad_root = next(
            ((r, v) for r, v in substitution.root_residuals if v != 0), None
        )
        checks.append(
            _check(
                "root substitution",
                bad_root is None,
                None if bad_root is None else f"p({bad_root[0]}) = {bad_root[1]}",
            )
        )
        details["root substitution"] = _residual_table(
            [(f"p({r})", str(v)) for r, v in substitution.root_residuals]
        )
        bad_window = next(
            ((k, v) for k, v in substitution.window_residuals if v != 0), None
        )
        checks.append(
            _check(
                "collected window identities",
                bad_window is None,
                None
                if bad_window is None
                else f"k={bad_window[0]}: residual {bad_window[1]}",
            )
        )
        details["collected window identities"] = _residual_table(
            [(f"k={k}", str(v)) for k, v in substitution.window_residuals]
        )
        grid = truncation_report(to_signed(poly), roots, min(args.k, poly.degree))
        bad_cell = next((c for c in grid.cells if not c.equal), None)
        checks.append(
            _check(
                "truncation grid",
                bad_cell is None,
                None
                if bad_cell is None
                else (
                    f"degree {bad_cell.degree}, p{bad_cell.index}: "
                    f"{bad_cell.truncated} != {bad_cell.direct}"
                ),
            )
        )
        if grid.cells:
            details["truncation grid"] = _grid_lines(grid)

    all_ok = all(c["pass"] for c in checks)
    if args.json:
        _emit_json(_sums_payload(poly.degree, recurrence, checks))
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            status = "pass" if c["pass"] else "FAIL"
            line = f"{c['name']:<{width}}  {status}"
            if c["residual"]:
                line += f"  {c['residual']}"
            print(line)
            for detail in details.get(c["name"], ()):
                print(detail)
    return EXIT_OK if all_ok else EXIT_MATH


def _cmd_truncate(args: argparse.Namespace) -> int:
    poly = parse_polynomial(args.poly)
    _require(
        0 <= args.degree <= poly.degree,
        f"--degree must be in 0..{poly.degree}",
    )
    result = from_signed(to_signed(poly).truncate(args.degree))
    if args.json:
        _emit_json(
            {"degree": args.degree, "polynomial": str(result), "checks": []}
        )
    else:
        print(result)
    return EXIT_OK


def _cmd_negpowers(args: argparse.Namespace) -> int:
    _require(args.k >= 0, "--k must be nonnegative")
    poly = parse_polynomial(args.poly)
    sums = negative_power_sums(to_signed(poly), args.k)
    if args.json:
        _emit_json(_sums_payload(poly.degree, sums, []))
    else:
        print("\n".join(_sums_lines(sums, symbol="q")))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
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
        print(
            "internal error: recurrence and series routes disagree", file=sys.stderr
        )
        return EXIT_INTERNAL
    max_bits = max(abs(v.numerator).bit_length() for v in recurrence)
    recurrence_seconds = mid - start
    series_seconds = end - mid
    if args.json:
        _emit_json(
            {
                "degree": args.degree,
                "k": args.k,
                "seed": args.seed,
                "max_numerator_bits": max_bits,
                "recurrence_seconds": recurrence_seconds,
                "series_seconds": series_seconds,
                "checks": [_check("route agreement", True, None)],
            }
        )
    else:
        print(f"degree {args.degree}, k {args.k}, seed {args.seed}")
        print(f"recurrence route: {recurrence_seconds:.3f} s")
        print(f"series route:     {series_seconds:.3f} s")
        print(f"routes agree exactly on {len(recurrence)} power sums")
        print(f"max numerator bit length: {max_bits}")
    return EXIT_OK


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
            return args.handler(args)
    except _CommandError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except ParseError as err:
        print(f"parse error: {err.diagnostic}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
