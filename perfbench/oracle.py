"""Independent oracle for rootsums responses.

Nothing here imports rootsums: the expected values come from plain-int
Newton recurrences, direct Fraction sums over the roots and the
oracle's own expansion of prod(x - r). Output text is parsed back into
numbers with small regular expressions, so a change in padding does not
count as a wrong answer but a change in any value does.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_SUM_LINE = re.compile(r"([pq])(\d+)\s*=\s*(-?\d+(?:/\d+)?)")
_POLY_TERM = re.compile(r"(\d+(?:/\d+)?)?(?:x(?:\^(\d+))?)?")
_SERIES_TERM = re.compile(r"(?:\((\d+/\d+)\)|(\d+))/x(?:\^(\d+))?")


def expand_roots(roots: list[Fraction]) -> list[Fraction]:
    """Ascending coefficients of prod(x - r) over the multiset."""
    coeffs = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= r * c
        coeffs = shifted
    return coeffs


def newton_int(coeffs: list[int], k_max: int) -> list[int]:
    """p_0..p_k_max of a monic integer polynomial (ascending coefficients)."""
    n = len(coeffs) - 1
    c = [coeffs[n - i] for i in range(n + 1)]  # c[i] multiplies x^(n-i)
    sums = [n]
    for k in range(1, k_max + 1):
        acc = k * c[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += c[i] * sums[k - i]
        sums.append(-acc)
    return sums


def direct_sums(roots: list[Fraction], k_max: int, sign: int = 1) -> list[Fraction]:
    """sum of r**(sign*k) over the roots for k = 0..k_max."""
    return [sum((r ** (sign * k) for r in roots), Fraction(0)) for k in range(k_max + 1)]


def truncated(coeffs: list[Fraction], degree: int) -> list[Fraction]:
    """The degree-d companion: the top d+1 coefficients of the monic form."""
    lead = coeffs[-1]
    return [Fraction(c) / lead for c in coeffs[len(coeffs) - 1 - degree:]]


def parse_poly(text: str) -> dict[int, Fraction]:
    """Exponent -> coefficient from the canonical "x^2 - 3/2x + 1" form."""
    terms: dict[int, Fraction] = {}
    if text == "0":
        return terms
    tokens = text.split(" ")
    signs = ["+"] + tokens[1::2]
    for sign, term in zip(signs, tokens[::2]):
        if term.startswith("-"):
            sign, term = "-", term[1:]
        match = _POLY_TERM.fullmatch(term)
        if not term or match is None or sign not in "+-":
            raise ValueError(f"bad polynomial term {term!r}")
        coeff, exp = match.group(1), match.group(2)
        has_x = "x" in term
        value = Fraction(coeff) if coeff else Fraction(1)
        exponent = (int(exp) if exp else 1) if has_x else 0
        if exponent in terms or value == 0:
            raise ValueError(f"repeated or zero term {term!r}")
        terms[exponent] = -value if sign == "-" else value
    return terms


def parse_series(text: str) -> list[Fraction]:
    """Coefficients c_1, c_2, ... of "c_1/x + c_2/x^2 + ..." in order."""
    tokens = text.split(" ")
    signs = ["+"] + tokens[1::2]
    values = []
    for j, (sign, term) in enumerate(zip(signs, tokens[::2]), start=1):
        if term.startswith("-"):
            sign, term = "-", term[1:]
        match = _SERIES_TERM.fullmatch(term)
        if match is None or int(match.group(3) or 1) != j or sign not in "+-":
            raise ValueError(f"bad series term {term!r} at 1/x^{j}")
        value = Fraction(match.group(1) or match.group(2))
        values.append(-value if sign == "-" else value)
    return values


def _poly_dict(coeffs: list[Fraction]) -> dict[int, Fraction]:
    return {i: Fraction(c) for i, c in enumerate(coeffs) if c != 0}


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _sum_lines(lines: list[str], symbol: str) -> list[str]:
    values = []
    for k, line in enumerate(lines):
        match = _SUM_LINE.fullmatch(line.strip())
        if match is None or match.group(1) != symbol or int(match.group(2)) != k:
            raise ValueError(f"bad power-sum line {line!r}")
        values.append(match.group(3))
    return values


def _verify_text(lines: list[str], names: list[str]) -> None:
    """Every check line passes, every residual is 0, no grid cell is '!'."""
    seen = []
    for line in lines:
        if line.startswith("  "):
            cells = line.split()
            if "!" in cells or (cells[0].startswith(("p(", "k=")) and cells[-1] != "0"):
                raise ValueError(f"nonzero residual line {line!r}")
            continue
        name, _, status = line.rpartition("  ")
        if status != "pass":
            raise ValueError(f"check line {line!r} did not pass")
        seen.append(name.strip())
    if seen != names:
        raise ValueError(f"checks {seen} != {names}")


def _checks(names: list[str]) -> list[dict]:
    return [{"name": n, "pass": True, "residual": None} for n in names]


_VERIFY_CHECKS = ["recurrence-series agreement", "cross-multiplied identity"]
_ROOT_CHECKS = _VERIFY_CHECKS + [
    "root substitution",
    "collected window identities",
    "truncation grid",
]


def _expected_sums(spec: dict) -> list:
    if "roots" in spec:
        roots = [Fraction(r) for r in spec["roots"]]
        return direct_sums(roots, spec["k"], -1 if spec["cmd"] == "negpowers" else 1)
    return newton_int(spec["poly"], spec["k"])


def check(spec: dict, code: int, out: str, err: str) -> str | None:
    """None when the response is right, else a one-line reason."""
    try:
        _check(spec, code, out, err)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{spec['cmd']}: {exc}"
    return None


def _check(spec: dict, code: int, out: str, err: str) -> None:
    if code != spec["exit"]:
        raise ValueError(f"exit {code}, expected {spec['exit']}: {err.strip()[:200]}")
    if spec["exit"] != 0:
        if out or not err:
            raise ValueError("an error must print nothing to stdout and a message to stderr")
        return
    if err:
        raise ValueError(f"unexpected stderr {err.strip()[:200]!r}")
    cmd, as_json = spec["cmd"], spec["json"]
    lines = out.splitlines()
    payload = json.loads(out) if as_json else None

    if cmd in ("powersums", "negpowers", "series", "verify", "from-roots"):
        sums = _strs(_expected_sums(spec))
        degree = len(spec["roots"]) if "roots" in spec else len(spec["poly"]) - 1
    if cmd in ("powersums", "negpowers"):
        if as_json:
            _same(payload, {"degree": degree, "power_sums": sums, "checks": []})
        else:
            _same(_sum_lines(lines, "p" if cmd == "powersums" else "q"), sums)
    elif cmd == "series":
        text = payload.pop("series") if as_json else out.rstrip("\n")
        _same(_strs(parse_series(text)), sums)
        if as_json:
            _same(payload, {"degree": degree, "power_sums": sums, "checks": []})
    elif cmd == "verify":
        names = _ROOT_CHECKS if "roots" in spec else _VERIFY_CHECKS
        if as_json:
            _same(payload, {"degree": degree, "power_sums": sums, "checks": _checks(names)})
        else:
            _verify_text(lines, names)
    elif cmd == "from-roots":
        poly = _poly_dict(expand_roots([Fraction(r) for r in spec["roots"]]))
        if as_json:
            _same(parse_poly(payload.pop("polynomial")), poly)
            expected = {
                "degree": degree,
                "power_sums": sums,
                "checks": _checks(["three-route agreement"]),
            }
            _same(payload, expected)
        else:
            _same(parse_poly(lines[0]), poly)
            _same(_sum_lines(lines[1:], "p"), sums)
    elif cmd == "coeffs":
        roots = [Fraction(r) for r in spec["roots"]]
        poly = _poly_dict(expand_roots(roots))
        text = payload.pop("polynomial") if as_json else out.rstrip("\n")
        _same(parse_poly(text), poly)
        if as_json:
            given = [str(len(roots))] + _strs(direct_sums(roots, len(roots))[1:])
            _same(payload, {"degree": len(roots), "power_sums": given, "checks": []})
    elif cmd == "truncate":
        poly = _poly_dict(truncated([Fraction(c) for c in spec["poly"]], spec["degree"]))
        text = payload.pop("polynomial") if as_json else out.rstrip("\n")
        _same(parse_poly(text), poly)
        if as_json:
            _same(payload, {"degree": spec["degree"], "checks": []})
    else:
        raise ValueError(f"no oracle for command {cmd!r}")


def _same(got, expected) -> None:
    if got != expected:
        raise ValueError(f"output differs from the oracle: {_first_diff(got, expected)}")


def _first_diff(got, expected) -> str:
    if isinstance(got, list) and isinstance(expected, list):
        if len(got) != len(expected):
            return f"{len(got)} values, expected {len(expected)}"
        for i, (a, b) in enumerate(zip(got, expected)):
            if a != b:
                return f"item {i}: {str(a)[:60]} != {str(b)[:60]}"
    return f"{str(got)[:120]} != {str(expected)[:120]}"
