"""Print each route's scale on every benchmark pool request, to compare scales across changes.

    python tests/scales.py                       # every workload, seed 0
    python tests/scales.py rational_roots 1      # one workload, another seed

For each request of perfbench/workloads.py's pools that must succeed,
prints its command, the degree n and the highest index k, the scale of
every route the command runs (s of a coefficient kernel, B of the direct
sums, s of the inverse recurrence for ``coeffs``), and, for the commands
that print their values from a kernel's (P_k, s), how many of the
printed values have gcd(P_k, s) = 1: those are reduced as they stand.
Information only, and read-only: it imports ``rootsums`` from this
checkout and writes nothing, not even bytecode for the benchmark's
modules.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def coprime(pair: tuple[list[int], int]) -> str:
    values, scale = pair
    return f"coprime {sum(math.gcd(v, scale) == 1 for v in values)}/{len(values)}"


def describe(args) -> str:
    from rootsums import newton, parse_polynomial, parse_rational_list, poly_from_roots, to_signed
    from rootsums.roots import scaled_direct_sums
    from rootsums.series import scaled_log_derivative

    if args.command == "coeffs":
        entries = parse_rational_list(args.powersums)[: args.n]
        return f"{args.n:>4}{'-':>5}  inverse {newton._scale(entries)}"
    if args.command == "from-roots":
        roots = parse_rational_list(args.roots)
        poly = poly_from_roots(roots)
    else:
        poly = parse_polynomial(args.poly)
    k, signed = args.k, to_signed(poly)
    if args.command == "negpowers":
        routes = [("reciprocal", newton.scaled_negative_power_sums(signed, k))]
    elif args.command == "series":
        routes = [("series", scaled_log_derivative(poly, k))]
    else:
        routes = [("recurrence", newton.scaled_power_sums(signed, k))]
        if args.command != "powersums":
            routes.append(("series", scaled_log_derivative(poly, k)))
        if args.command == "from-roots":
            routes.insert(0, ("direct", scaled_direct_sums(roots, k)))
    scales = "  ".join(f"{name} {pair[1]}" for name, pair in routes)
    # verify prints its recurrence as Fractions; the others print routes[0].
    share = "" if args.command == "verify" else "  " + coprime(routes[0][1])
    return f"{poly.degree:>4}{k:>5}  {scales}{share}"


def main(names: list[str], seed: int) -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from rootsums.cli import build_parser
    from workloads import WORKLOADS, make_pool

    parser = build_parser()
    for name in names or WORKLOADS:
        print(f"{name}, seed {seed}: command, n, k, each route's scale, reduced printed values")
        for request in make_pool(name, seed):
            if request["spec"]["exit"] != 0 or request["argv"][0] == "truncate":
                continue
            args = parser.parse_args(request["argv"])
            print(f"{args.command:<11}{describe(args)}")


if __name__ == "__main__":
    words = sys.argv[1:]
    seeds = [int(w) for w in words if w.isdigit()]
    main([w for w in words if not w.isdigit()], seeds[0] if seeds else 0)
