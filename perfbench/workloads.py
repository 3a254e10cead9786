"""Seeded request pools for the benchmark workloads.

A request is the argv that ``rootsums.cli.main`` receives plus a spec
the oracle checks the response against. The same seed gives the same
pool, byte for byte. Every polynomial or root list is passed after
``--`` (or as ``--opt=value``) so that a leading ``-`` is never read as
an option. Sizes are fixed per workload and only the numbers vary with
the seed, so one seed costs about as much as another.

Every value any request prints stays far below CPython's 4,300-digit
int-to-str limit (the largest has about 730 digits, in deep_k), so that
known defect never shows here.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import direct_sums, expand_roots, newton_int

# deep_k: (degree, k) cells of the degree x k grid that fit the run time.
DEEP_CELLS = ((8, 512), (8, 1024), (64, 256))
DEEP_POLYS_PER_CELL = 4
# Bits per index of p_0..p_k, about log2 of the largest root modulus.
# Random coefficients spread it from about 0.9 to 3.3, which spreads a
# request's cost threefold; deep_k keeps polynomials inside this band so
# that one seed costs about as much as another.
DEEP_GROWTH_BAND = (2.0, 2.4)
# rational_roots: (degree, k) shapes, each used once per command and
# twice for the cheap coeffs, so that the median latency falls inside the
# negpowers requests instead of on the gap between two command groups.
RATIONAL_SHAPES = ((8, 256), (10, 224), (12, 192), (14, 176), (16, 160), (18, 144), (20, 128), (22, 128), (24, 128))
# small_many: each command in both formats this many times per pool.
SMALL_REPEATS = 14
SMALL_MAX_DEGREE = 8
SMALL_MAX_K = 16


def poly_text(coeffs) -> str:
    """Parser-grammar text of ascending coefficients: "x^2 - 3/2x + 1"."""
    parts = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[exp])
        if c == 0:
            continue
        mag = abs(c)
        var = "" if exp == 0 else "x" if exp == 1 else f"x^{exp}"
        body = str(mag) if exp == 0 else ("" if mag == 1 else str(mag)) + var
        if parts:
            parts.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return " ".join(parts)


def _int_poly(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(-9, 9) for _ in range(n)] + [1]


def _roots(rng: random.Random, n: int) -> list[Fraction]:
    """Nonzero rationals with numerators +-1..9 and denominators 1..4."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]


def _request(argv: list[str], **spec) -> dict:
    spec.setdefault("exit", 0)
    return {"argv": argv, "spec": {"cmd": argv[0], "json": "--json" in argv, **spec}}


def _sums_request(cmd: str, poly: list[int], k: int, as_json: bool) -> dict:
    flags = ["--json"] if as_json else []
    return _request([cmd, *flags, "--k", str(k), "--", poly_text(poly)], poly=poly, k=k)


def _root_request(cmd: str, roots: list[Fraction], k: int, as_json: bool) -> dict:
    """from-roots, verify --roots, negpowers or coeffs on one root multiset."""
    flags = ["--json"] if as_json else []
    names = [str(r) for r in roots]
    listed = ", ".join(names)
    if cmd == "from-roots":
        argv = [cmd, *flags, "--k", str(k), "--", listed]
    elif cmd == "verify":
        argv = [cmd, *flags, "--k", str(k), f"--roots={listed}", "--", poly_text(expand_roots(roots))]
    elif cmd == "negpowers":
        argv = [cmd, *flags, "--k", str(k), "--", poly_text(expand_roots(roots))]
    else:
        sums = direct_sums(roots, len(roots))[1:]
        argv = [cmd, *flags, "--n", str(len(roots)), f"--powersums={', '.join(map(str, sums))}"]
    return _request(argv, roots=names, k=k)


def _banded_int_poly(rng: random.Random, n: int, k: int) -> list[int]:
    low, high = DEEP_GROWTH_BAND
    while True:
        poly = _int_poly(rng, n)
        growth = max(abs(p).bit_length() for p in newton_int(poly, k)) / k
        if low <= growth <= high:
            return poly


def deep_k(rng: random.Random) -> list[dict]:
    pool = []
    for n, k in DEEP_CELLS:
        for _ in range(DEEP_POLYS_PER_CELL):
            poly = _banded_int_poly(rng, n, k)
            for cmd in ("powersums", "series", "verify"):
                pool.append(_sums_request(cmd, poly, k, True))
    return pool


def rational_roots(rng: random.Random) -> list[dict]:
    pool = []
    for n, k in RATIONAL_SHAPES:
        for cmd in ("from-roots", "verify", "negpowers", "coeffs", "coeffs"):
            pool.append(_root_request(cmd, _roots(rng, n), k, True))
    return pool


def _malformed(rng: random.Random, as_json: bool) -> dict:
    """A request that must exit 1: bad syntax or a bad option value."""
    flags = ["--json"] if as_json else []
    text = poly_text(_int_poly(rng, rng.randint(1, SMALL_MAX_DEGREE)))
    broken = rng.choice((text + " +", text + " + y", "2x^", text.replace("x", "x^^", 1), "1/0x + 1"))
    if rng.random() < 0.25:
        return _request(["powersums", *flags, "--k", "-1", "--", text], exit=1)
    return _request([rng.choice(("powersums", "series", "verify")), *flags, "--k", "3", "--", broken], exit=1)


def _out_of_domain(rng: random.Random, as_json: bool) -> dict:
    """A request that must exit 2: a zero root for negpowers, or too few power sums."""
    flags = ["--json"] if as_json else []
    roots = _roots(rng, rng.randint(1, SMALL_MAX_DEGREE - 1))
    if rng.random() < 0.5:
        roots.insert(rng.randint(0, len(roots)), Fraction(0))
        return _request(["negpowers", *flags, "--k", "3", "--", poly_text(expand_roots(roots))], exit=2)
    sums = direct_sums(roots, len(roots))[1:]
    argv = ["coeffs", *flags, "--n", str(len(roots) + 1), f"--powersums={', '.join(map(str, sums))}"]
    return _request(argv, exit=2)


def small_many(rng: random.Random) -> list[dict]:
    """Eight good requests and one bad one per format and repeat."""
    pool = []
    for repeat in range(SMALL_REPEATS):
        for as_json in (False, True):
            flags = ["--json"] if as_json else []
            for cmd in ("powersums", "series", "verify", "truncate"):
                n = rng.randint(1, SMALL_MAX_DEGREE)
                poly = _int_poly(rng, n)
                if cmd == "truncate":
                    degree = rng.randint(0, n)
                    argv = [cmd, *flags, "--degree", str(degree), "--", poly_text(poly)]
                    pool.append(_request(argv, poly=poly, degree=degree))
                else:
                    pool.append(_sums_request(cmd, poly, rng.randint(1, SMALL_MAX_K), as_json))
            for cmd in ("from-roots", "verify", "negpowers", "coeffs"):
                roots = _roots(rng, rng.randint(1, SMALL_MAX_DEGREE))
                pool.append(_root_request(cmd, roots, rng.randint(len(roots), SMALL_MAX_K), as_json))
            bad = _malformed if (repeat + as_json) % 2 == 0 else _out_of_domain
            pool.append(bad(rng, as_json))
    return pool


WORKLOADS = {"deep_k": deep_k, "rational_roots": rational_roots, "small_many": small_many}


def make_pool(name: str, seed: int) -> list[dict]:
    """The workload's requests for this seed, in a fixed order."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
