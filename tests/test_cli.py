"""Command behavior, exit codes, and the JSON contract."""

import json
import sys
from operator import itemgetter

import pytest

from rootsums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def exhausted(*args):
    raise MemoryError


def disagreeing_scaled(p, k):
    """A stand-in series kernel whose sums no other route gives, at scale 1."""
    return [p.degree + 1] * (k + 1), 1


def test_powersums_table(capsys):
    code, out, _ = run(capsys, "powersums", "x^2 - 3x + 2", "--k", "3")
    assert code == 0
    assert [line.split("=")[1].strip() for line in out.splitlines()] == ["2", "3", "5", "9"]


def test_powersums_json_schema(capsys):
    code, payload, _ = run_json(capsys, "powersums", "x^2 - 3x + 2", "--k", "3")
    assert code == 0
    assert payload == {"degree": 2, "power_sums": ["2", "3", "5", "9"], "checks": []}


def test_powersums_parse_error_exits_one(capsys):
    code, out, err = run(capsys, "powersums", "x^2 -", "--k", "1")
    assert code == 1
    assert out == ""
    assert "offset 5" in err


def test_powersums_rejects_negative_k(capsys):
    code, _, err = run(capsys, "powersums", "x^2", "--k", "-1")
    assert code == 1
    assert "--k" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_coeffs(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--powersums", "3,5")
    assert (code, out.strip()) == (0, "x^2 - 3x + 2")
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--powersums", "0,0,0")
    assert (code, out.strip()) == (0, "x^3")
    code, out, _ = run(capsys, "coeffs", "--n", "3", "--powersums", "6,14,36")
    assert (code, out.strip()) == (0, "x^3 - 6x^2 + 11x - 6")


def test_coeffs_insufficient_entries_exits_two(capsys):
    code, _, err = run(capsys, "coeffs", "--n", "3", "--powersums", "6,14")
    assert code == 2
    assert "at least 3" in err


def test_series(capsys):
    code, out, _ = run(capsys, "series", "x^2 - 3x + 2", "--k", "3")
    assert (code, out.strip()) == (0, "2/x + 3/x^2 + 5/x^3 + 9/x^4")
    code, out, _ = run(capsys, "series", "x - 1", "--k", "2")
    assert (code, out.strip()) == (0, "1/x + 1/x^2 + 1/x^3")


def test_series_constant_is_a_math_error(capsys):
    code, _, err = run(capsys, "series", "5", "--k", "1")
    assert code == 2


def test_from_roots(capsys):
    code, out, _ = run(capsys, "from-roots", "1,2", "--k", "3")
    assert code == 0
    assert out.splitlines()[0] == "x^2 - 3x + 2"
    code, out, _ = run(capsys, "from-roots", "0,0,0", "--k", "2")
    assert code == 0
    assert out.splitlines()[0] == "x^3"


def test_from_roots_json(capsys):
    code, payload, _ = run_json(capsys, "from-roots", "1/2,1/3", "--k", "2")
    assert code == 0
    assert payload["polynomial"] == "x^2 - 5/6x + 1/6"
    assert payload["power_sums"] == ["2", "5/6", "13/36"]
    assert payload["checks"] == [
        {"name": "three-route agreement", "pass": True, "residual": None}
    ]


def test_verify_passes_with_true_roots(capsys):
    code, out, _ = run(capsys, "verify", "x^2 - 3x + 2", "--roots", "1,2", "--k", "6")
    assert code == 0
    assert "FAIL" not in out


def test_verify_flags_wrong_roots(capsys):
    code, out, _ = run(capsys, "verify", "x^2 - 3x + 2", "--roots", "1,3", "--k", "4")
    assert code == 2
    assert "p(3) = 2" in out


def test_verify_without_roots(capsys):
    code, out, _ = run(capsys, "verify", "x^5", "--k", "7")
    assert code == 0
    assert "truncation" not in out


def test_verify_json_check_names(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "x^2 - 3x + 2", "--roots", "1,2", "--k", "4"
    )
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == [
        "recurrence-series agreement",
        "cross-multiplied identity",
        "root substitution",
        "collected window identities",
        "truncation grid",
    ]
    assert all(c["pass"] for c in payload["checks"])


def test_truncate(capsys):
    poly = "x^5 - x^4 + 2x^3 - 3x^2 + 4x - 5"
    code, out, _ = run(capsys, "truncate", poly, "--degree", "2")
    assert (code, out.strip()) == (0, "x^2 - x + 2")
    code, out, _ = run(capsys, "truncate", poly, "--degree", "5")
    assert (code, out.strip()) == (0, poly)
    code, _, err = run(capsys, "truncate", poly, "--degree", "6")
    assert code == 1


def test_negpowers(capsys):
    code, out, _ = run(capsys, "negpowers", "x^2 - 3x + 2", "--k", "2")
    assert code == 0
    assert [line.split("=")[1].strip() for line in out.splitlines()] == ["2", "3/2", "5/4"]
    code, out, _ = run(capsys, "negpowers", "x - 2", "--k", "3")
    assert [line.split("=")[1].strip() for line in out.splitlines()] == [
        "1",
        "1/2",
        "1/4",
        "1/8",
    ]


def test_negpowers_zero_constant_term(capsys):
    code, _, err = run(capsys, "negpowers", "x^2 - x", "--k", "1")
    assert code == 2


def test_bench_small(capsys):
    code, out, _ = run(capsys, "bench", "--degree", "1", "--k", "1", "--seed", "0")
    assert code == 0
    assert "max numerator bit length" in out


def test_bench_rejects_degree_zero(capsys):
    code, _, err = run(capsys, "bench", "--degree", "0", "--k", "1")
    assert code == 1


def test_bench_json_is_deterministic_apart_from_timings(capsys):
    code, first, _ = run_json(capsys, "bench", "--degree", "6", "--k", "24", "--seed", "3")
    assert code == 0
    code, second, _ = run_json(capsys, "bench", "--degree", "6", "--k", "24", "--seed", "3")
    assert code == 0
    for payload in (first, second):
        payload.pop("recurrence_seconds")
        payload.pop("series_seconds")
    assert first == second
    assert first["checks"] == [{"name": "route agreement", "pass": True, "residual": None}]


def test_json_rationals_are_strings(capsys):
    # The encoder writes each Fraction as a string; a plain int left in a
    # payload would print as a JSON number, so p0 is checked too.
    for argv in [
        ("powersums", "1/2x^2 - 1/3", "--k", "2"),
        ("coeffs", "--n", "2", "--powersums", "1/2, 1/8"),
        ("series", "1/2x^2 - 1/3", "--k", "2"),
        ("from-roots", "1/2, 3", "--k", "2"),
        ("verify", "1/2x^2 - 1/3", "--k", "2"),
        ("negpowers", "x^2 - 3x + 2", "--k", "2"),
    ]:
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0, argv
        assert all(isinstance(v, str) for v in payload["power_sums"]), argv
        assert "/" in "".join(payload["power_sums"]), argv


def test_powersums_all_roots_zero(capsys):
    code, out, _ = run(capsys, "powersums", "x^3", "--k", "2")
    assert code == 0
    assert [line.split("=")[1].strip() for line in out.splitlines()] == ["3", "0", "0"]


def test_from_roots_disagreement_wiring_exits_three(capsys, monkeypatch):
    # The routes cannot actually disagree; fake one to prove the exit path.
    import rootsums.cli as cli

    monkeypatch.setattr(cli, "scaled_log_derivative", disagreeing_scaled)
    code, out, err = run(capsys, "from-roots", "1,2", "--k", "2")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_bench_disagreement_wiring_exits_three(capsys, monkeypatch):
    import rootsums.cli as cli

    monkeypatch.setattr(cli, "scaled_log_derivative", disagreeing_scaled)
    code, out, err = run(capsys, "bench", "--degree", "2", "--k", "2")
    assert code == 3
    assert out == ""
    assert "disagree" in err


def test_help_documents_the_grammar(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "polynomial grammar" in out
    assert "coefficient = integer | integer '/' positive-integer" in out


def test_series_json_payload(capsys):
    code, payload, _ = run_json(capsys, "series", "x^2 - 3x + 2", "--k", "3")
    assert code == 0
    assert payload["degree"] == 2
    assert payload["power_sums"] == ["2", "3", "5", "9"]
    assert payload["series"] == "2/x + 3/x^2 + 5/x^3 + 9/x^4"


# Values converted to text per request: Fraction.__str__ calls, plus the
# CLI's formatter calls for the commands that print from scaled integers. A
# text renderer converts only the values it prints, and `series` converts
# each value once for both fields.
@pytest.mark.parametrize(
    "argv, text_calls, json_calls",
    [
        (("powersums", "x^2 - 3x + 2", "--k", "6"), 7, 7),
        (("series", "x^2 - 3x + 2", "--k", "6"), 7, 7),
        (("negpowers", "x^2 - 3x + 2", "--k", "6"), 7, 7),
        (("from-roots", "1,2", "--k", "6"), 9, 9),
        (("verify", "x^2 - 3x + 2", "--k", "6"), 0, 7),
        (("verify", "x^2 - 3x + 2", "--roots", "1,2", "--k", "6"), 9, 7),
        (("coeffs", "--n", "2", "--powersums", "3,5"), 2, 5),
    ],
    ids=["powersums", "series", "negpowers", "from-roots", "verify", "verify-roots", "coeffs"],
)
def test_values_are_converted_only_where_printed(
    capsys, monkeypatch, argv, text_calls, json_calls
):
    from fractions import Fraction

    import rootsums.cli as cli

    calls = []
    to_text, ratio = Fraction.__str__, cli._ratio
    monkeypatch.setattr(Fraction, "__str__", lambda v: calls.append(v) or to_text(v))
    monkeypatch.setattr(cli, "_ratio", lambda *args: calls.append(args) or ratio(*args))
    # Python 3.13 formats a Fraction in an f-string without __str__; send
    # it through __str__, as 3.10-3.12 do, so each version counts alike.
    monkeypatch.setattr(Fraction, "__format__", lambda v, spec: format(str(v), spec))
    assert run(capsys, *argv)[0] == 0
    assert len(calls) == text_calls
    calls.clear()
    assert run(capsys, *argv, "--json")[0] == 0
    assert len(calls) == json_calls


def test_truncate_json_payload(capsys):
    code, payload, _ = run_json(
        capsys, "truncate", "x^5 - x^4 + 2x^3 - 3x^2 + 4x - 5", "--degree", "2"
    )
    assert code == 0
    assert payload == {"degree": 2, "polynomial": "x^2 - x + 2", "checks": []}


def test_verify_json_reports_failing_residuals(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "x^2 - 3x + 2", "--roots", "1,3", "--k", "4"
    )
    assert code == 2
    by_name = {c["name"]: c for c in payload["checks"]}
    substitution = by_name["root substitution"]
    assert substitution["pass"] is False
    assert "p(3) = 2" in substitution["residual"]
    assert by_name["recurrence-series agreement"]["pass"] is True


def test_verify_root_count_mismatch_is_a_math_error(capsys):
    code, _, err = run(capsys, "verify", "x^2 - 3x + 2", "--roots", "1", "--k", "4")
    assert code == 2
    assert "2 roots" in err


def test_machine_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "powersums", "x^3 - 1/3x + 2", "--k", "9", "--json")
    _, second, _ = run(capsys, "powersums", "x^3 - 1/3x + 2", "--k", "9", "--json")
    assert first == second


def test_module_is_runnable():
    import subprocess
    import sys

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "rootsums.cli", *argv], capture_output=True, text=True
        )

    proc = run_module("powersums", "x^2 - 3x + 2", "--k", "2")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].endswith("5")
    proc = run_module("powersums", "x^2 -", "--k", "1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("parse error: offset 5")
    proc = run_module("series", "3", "--k", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ")


def test_negative_leading_input_after_option_terminator(capsys):
    code, out, _ = run(capsys, "powersums", "--k", "3", "--", "-x^2 + 3x - 2")
    assert code == 0
    assert [line.split("=")[1].strip() for line in out.splitlines()] == ["2", "3", "5", "9"]


def test_negative_first_root_after_option_terminator(capsys):
    code, out, _ = run(capsys, "from-roots", "--k", "2", "--", "-1,-2")
    assert code == 0
    assert out.splitlines()[0] == "x^2 + 3x + 2"


def test_regime_boundary_disagreement_exits_three(capsys, monkeypatch):
    # Fake a full window that disagrees with the short regime at k == n.
    import rootsums.newton as newton

    window = newton._window
    monkeypatch.setattr(newton, "_window", lambda w, s: window(w, s) + 1)
    code, out, err = run(capsys, "powersums", "x^3 - 2x + 1", "--k", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_misordered_recurrence_window_exits_three(capsys, monkeypatch):
    # A deque that keeps the newest sum last feeds every p_k a reversed
    # window. The k == n check compares that read with the list's window.
    import collections
    import rootsums.newton as newton

    class OldestFirst(collections.deque):
        def appendleft(self, value):
            self.append(value)

    monkeypatch.setattr(newton, "deque", OldestFirst)
    code, out, err = run(capsys, "powersums", "--k", "12", "--", "x^3 - 2x^2 + 5x + 1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_recurrence_window_without_its_oldest_sum_exits_three(capsys, monkeypatch):
    # A full deque that skips its oldest sum drops the a_n term of every
    # read past n (p12 = 28180, not 45653). At k == n the deque is not full
    # yet; the k == n + 1 check compares the first full read with the list's.
    import collections
    import itertools
    import rootsums.newton as newton

    class DropsOldest(collections.deque):
        def __iter__(self):
            newest = super().__iter__()
            return itertools.islice(newest, self.maxlen - 1) if len(self) == self.maxlen else newest

    monkeypatch.setattr(newton, "deque", DropsOldest)
    code, out, err = run(capsys, "powersums", "--k", "12", "--", "x^3 - 2x^2 + 5x + 1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_misordered_series_window_is_caught(capsys, monkeypatch):
    # A deque that keeps the newest term last misorders both series loops:
    # the division and the multiply-back. verify's two series checks and
    # from-roots' route comparison must each see it.
    import collections
    import rootsums.series as series

    class OldestFirst(collections.deque):
        def appendleft(self, value):
            self.append(value)

    monkeypatch.setattr(series, "deque", OldestFirst)
    code, out, _ = run(capsys, "verify", "--json", "--k", "12", "--", "x^3 - 2x^2 + 5x + 1")
    assert code == 2
    by_name = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
    assert by_name["recurrence-series agreement"] is False
    assert by_name["cross-multiplied identity"] is False
    code, out, err = run(capsys, "from-roots", "--k", "6", "--", "1/2, -3, 5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


@pytest.mark.parametrize(
    "module, argv",
    [
        ("newton", ["powersums", "x^2 - 1/2x + 1/16", "--k", "6"]),
        ("series", ["series", "x^2 - 1/2x + 1/16", "--k", "6"]),
        ("newton", ["coeffs", "--n", "2", "--powersums", "1/2, 1/8"]),
    ],
    ids=["newton-powersums", "series-series", "newton-coeffs"],
)
def test_unsound_kernel_scale_exits_three(capsys, monkeypatch, module, argv):
    # The sound scale for x^2 - 1/2x + 1/16 is 4; 2 leaves 1/16 * 2^2 fractional.
    # Its power sums p_1 = 1/2, p_2 = 1/8 need 4; 2 leaves 1/8 * 2^2 fractional.
    import importlib

    monkeypatch.setattr(importlib.import_module(f"rootsums.{module}"), "_scale", lambda *_: 2)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: scale 2 leaves")


def _corrupt_p2(monkeypatch):
    """Make verify's series kernel return p2 + 1: P_2 + s**2 for P_2."""
    import rootsums.cli as cli

    expand = cli.scaled_log_derivative

    def corrupted(p, k):
        sums, scale = expand(p, k)
        sums[2] += scale**2
        return sums, scale

    monkeypatch.setattr(cli, "scaled_log_derivative", corrupted)


def test_verify_catches_a_corrupted_series(capsys, monkeypatch):
    # verify hands its one series to the cross-multiplied check, so a bad
    # term must fail both coefficient-only checks.
    _corrupt_p2(monkeypatch)
    code, payload, _ = run_json(capsys, "verify", "x^2 - 3x + 2", "--k", "6")
    assert code == 2
    by_name = {c["name"]: c["pass"] for c in payload["checks"]}
    assert by_name == {
        "recurrence-series agreement": False,
        "cross-multiplied identity": False,
    }

    failures = (
        "recurrence-series agreement  FAIL  p2: 5 != 6\n"
        "cross-multiplied identity    FAIL  x^-1: residual 1\n"
    )
    assert run(capsys, "verify", "x^2 - 3x + 2", "--k", "6") == (2, failures, "")
    code, out, err = run(capsys, "verify", "x^2 - 3x + 2", "--roots", "1,2", "--k", "6")
    assert (code, err) == (2, "")
    assert out == failures + (
        "root substitution            pass\n"
        "  p(1)  0\n"
        "  p(2)  0\n"
        "collected window identities  pass\n"
        "  k=2  0\n"
        "  k=3  0\n"
        "  k=4  0\n"
        "  k=5  0\n"
        "  k=6  0\n"
        "truncation grid              pass\n"
        "  deg  p1  p2\n"
        "  1     =\n"
        "  2     =   =\n"
    )


def test_verify_catches_a_corrupted_series_at_scale_two(capsys, monkeypatch):
    # s = 2 and M = 3: p2 = 5/4 becomes P_2/4 = 9/4, and the residual at
    # x^-1 is the leading coefficient 2/3.
    _corrupt_p2(monkeypatch)
    failures = (
        "recurrence-series agreement  FAIL  p2: 5/4 != 9/4\n"
        "cross-multiplied identity    FAIL  x^-1: residual 2/3\n"
    )
    assert run(capsys, "verify", "2/3x^2 - x + 1/3", "--k", "6") == (2, failures, "")
    code, payload, _ = run_json(capsys, "verify", "2/3x^2 - x + 1/3", "--k", "6")
    assert code == 2
    assert payload["power_sums"] == ["2", "3/2", "5/4", "9/8", "17/16", "33/32", "65/64"]
    assert [c["residual"] for c in payload["checks"]] == ["p2: 5/4 != 9/4", "x^-1: residual 2/3"]


def test_verify_json_builds_no_text_tables(capsys, monkeypatch):
    import rootsums.cli as cli

    def must_not_run(*args):
        raise AssertionError("a text table was built for --json")

    for name in ("_table", "_grid_lines", "_sums_text"):
        monkeypatch.setattr(cli, name, must_not_run)
    code, payload, _ = run_json(
        capsys, "verify", "x^2 - 3x + 2", "--roots", "1,2", "--k", "4"
    )
    assert code == 0
    assert len(payload["checks"]) == 5


def test_overlong_literal_is_a_parse_error(capsys):
    code, out, err = run(capsys, "powersums", "1" * 4301 + "x + 1", "--k", "1")
    assert (code, out) == (1, "")
    assert "more than 4300 digits" in err


def test_overlong_exponent_is_a_parse_error(capsys):
    code, out, err = run(capsys, "powersums", "x^" + "0" * 4300 + "2", "--k", "1")
    assert (code, out) == (1, "")
    assert "more than 4300 digits" in err


def test_overlong_root_is_a_parse_error(capsys):
    code, out, err = run(capsys, "from-roots", "1/" + "3" * 4301, "--k", "1")
    assert (code, out) == (1, "")
    assert "more than 4300 digits" in err


def test_results_past_the_int_digit_limit_print(capsys):
    import sys

    # p_k = 3*p_(k-1) - p_(k-2) from p_0 = 2, p_1 = 3; p_12000 has ~5,000 digits.
    a, b = 2, 3
    for _ in range(11999):
        a, b = b, 3 * b - a
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(b)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) > 4300

    code, out, _ = run(capsys, "powersums", "x^2 - 3x + 1", "--k", "12000")
    assert code == 0
    assert out.splitlines()[-1].split("= ")[1].strip() == expected
    code, payload, _ = run_json(capsys, "powersums", "x^2 - 3x + 1", "--k", "12000")
    assert code == 0
    assert payload["power_sums"][-1] == expected
    assert sys.get_int_max_str_digits() == limit


# One request per way out of main: (argv, patched cli name and stand-in, exit).
LIMIT_EXITS = {
    "ok": (("powersums", "x^2 - 3x + 1", "--k", "3"), None, 0),
    "usage": (("powersums", "x^2", "--k"), None, 1),
    "parse-error": (("powersums", "x^2 -", "--k", "1"), None, 1),
    "negative-k": (("powersums", "x^2", "--k", "-1"), None, 1),
    "memory": (("powersums", "x - 2", "--k", "3"), ("scaled_power_sums", exhausted), 1),
    "domain": (("series", "5", "--k", "1"), None, 2),
    "failed-check": (("verify", "x^2 - 3x + 2", "--roots", "1,3", "--k", "4"), None, 2),
    "disagreement": (
        ("from-roots", "1,2", "--k", "2"),
        ("scaled_log_derivative", disagreeing_scaled),
        3,
    ),
}


@pytest.mark.parametrize(("argv", "patch", "exit_code"), LIMIT_EXITS.values(), ids=LIMIT_EXITS)
def test_int_digit_limit_is_restored_on_every_exit(capsys, monkeypatch, argv, patch, exit_code):
    import sys

    import rootsums.cli as cli

    if patch:
        monkeypatch.setattr(cli, *patch)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run(capsys, *argv)[0] == exit_code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_rejects_bad_roots_before_computing(capsys, monkeypatch):
    import rootsums.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a route ran before --roots was checked")

    for name in (
        "to_signed",
        "power_sums_from_coeffs",
        "log_derivative_power_sums",
        "cross_multiplied_check",
        "scaled_log_derivative",
        "scaled_cross_check",
        "verify_by_substitution",
        "truncation_report",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    poly = "x^8 - 3x^7 + 2x^5 - x^4 + 7x^3 - 2x + 5"
    code, out, err = run(capsys, "verify", poly, "--roots", "1,", "--k", "3000")
    assert (code, out) == (1, "")
    assert err.startswith("parse error: offset 2")
    code, out, err = run(capsys, "verify", "x^2 - 1", "--roots", "1,-1", "--k", "1")
    assert (code, out) == (1, "")
    assert "at least the polynomial degree" in err
    code, out, err = run(capsys, "verify", poly, "--roots", "1,2,3", "--k", "3000")
    assert (code, out) == (2, "")
    assert err == "error: expected 8 roots for a degree-8 polynomial, got 3\n"


def test_exponent_over_the_cap_exits_one(capsys):
    code, out, _ = run(capsys, "powersums", "x^10000", "--k", "0")
    assert (code, out) == (0, "p0 = 10000\n")
    code, out, err = run(capsys, "powersums", "x^10001", "--k", "0")
    assert (code, out) == (1, "")
    assert err == "parse error: offset 2: exponent exceeds the supported maximum of 10000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["powersums", "x - 2"],
        ["series", "x - 2"],
        ["from-roots", "2"],
        ["verify", "x - 2", "--roots", "2"],
        ["negpowers", "x - 2"],
        ["bench", "--degree", "1"],
    ],
    ids=itemgetter(0),
)
def test_k_over_the_cap_exits_one_before_any_route(capsys, monkeypatch, argv):
    import rootsums.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a route ran before --k was checked")

    for name in (
        "power_sums_from_coeffs",
        "log_derivative_power_sums",
        "cross_multiplied_check",
        "power_sums_direct",
        "negative_power_sums",
        "scaled_power_sums",
        "scaled_log_derivative",
        "scaled_direct_sums",
        "scaled_negative_power_sums",
        "scaled_cross_check",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = run(capsys, *argv, "--k", str(cli.MAX_K + 1))
    assert (code, out) == (1, "")
    assert err == "error: --k must be at most 100000\n"
    with pytest.raises(AssertionError, match="a route ran"):
        main([*argv, "--k", str(cli.MAX_K)])


@pytest.mark.parametrize(
    "over, at_cap, message",
    [
        # "x" is no list: the --n cap comes before the list is parsed.
        (
            ["coeffs", "--n", "10001", "--powersums", "x"],
            ["coeffs", "--n", "10000", "--powersums", ",".join(["0"] * 10000)],
            "--n must be at most 10000",
        ),
        (
            ["from-roots", ",".join(["0"] * 10001), "--k", "1"],
            ["from-roots", ",".join(["0"] * 10000), "--k", "1"],
            "from-roots takes at most 10000 roots",
        ),
    ],
    ids=["coeffs", "from-roots"],
)
def test_size_over_the_cap_exits_one_before_any_route(
    capsys, monkeypatch, over, at_cap, message
):
    import rootsums.cli as cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("a route ran before the size was checked")

    for name in (
        "coeffs_from_power_sums",
        "poly_from_roots",
        "power_sums_direct",
        "power_sums_from_coeffs",
        "log_derivative_power_sums",
        "scaled_direct_sums",
        "scaled_power_sums",
        "scaled_log_derivative",
    ):
        monkeypatch.setattr(cli, name, must_not_run)
    code, out, err = run(capsys, *over)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"
    with pytest.raises(AssertionError, match="a route ran"):
        main(at_cap)


def test_bench_degree_over_the_cap_exits_one(capsys):
    code, out, err = run(capsys, "bench", "--degree", "10001", "--k", "1")
    assert (code, out) == (1, "")
    assert err == "error: --degree must be at most 10000\n"


def test_out_of_memory_exits_one(capsys, monkeypatch):
    import rootsums.cli as cli

    monkeypatch.setattr(cli, "scaled_power_sums", exhausted)
    code, out, err = run(capsys, "powersums", "x - 2", "--k", "3")
    assert (code, out) == (1, "")
    assert err == "error: not enough memory for this request\n"


def test_out_of_memory_under_an_address_space_limit_is_not_a_traceback():
    import subprocess
    import sys

    pytest.importorskip("resource")
    # The limit is set inside the child only; ~30*k^2/2 bits of results
    # cannot fit in 400 MiB.
    script = (
        "import resource, sys\n"
        "limit = 400 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from rootsums.cli import main\n"
        "sys.exit(main(['powersums', 'x - 1073741824', '--k', '100000']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: not enough memory for this request\n"


CLI = [sys.executable, "-m", "rootsums.cli"]
# A command's output, whose p_0..p_3000 print over 1 MB, more than any
# buffer holds, and argparse's help text, which sits in stdout's buffer
# until the flush.
UNWRITABLE = pytest.mark.parametrize(
    "argv",
    [
        [*CLI, "powersums", "x^2 - 3x + 2", "--k", "3000"],
        [*CLI, "--help"],
        [*CLI, "powersums", "--help"],
    ],
    ids=["powersums", "help", "powersums-help"],
)


def assert_one_write_error(returncode, stderr: bytes) -> None:
    assert returncode == 1
    assert stderr.decode().startswith("error: cannot write the output:")
    assert stderr.count(b"\n") == 1


@UNWRITABLE
def test_closed_output_pipe_exits_one_without_a_traceback(argv):
    import os
    import subprocess

    # The read end is closed before the child starts, so its first write
    # fails, however little it writes.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert_one_write_error(proc.returncode, proc.stderr)


@UNWRITABLE
def test_full_output_device_exits_one_without_a_traceback(argv):
    import os
    import subprocess

    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, timeout=120)
    assert_one_write_error(proc.returncode, proc.stderr)


def test_requests_served_in_one_process_leave_no_memory_behind(capsys):
    # A tuple built from a generator is resized, and the freed tuple lands
    # in another size's free list, where it stays allocated; the cyclic
    # collector is off, as between its rare full passes.
    import gc
    import sys

    requests = [
        ["verify", "x^3 - 1/2x + 1/3", "--roots", "1,2,3", "--k", "12"],
        ["series", "2x^2 + 1/3x - 5", "--k", "9", "--json"],
        ["from-roots", "1/2,1/3,5", "--k", "7"],
        ["negpowers", "x^2 - 3x + 2", "--k", "9"],
        ["coeffs", "--n", "3", "--powersums", "6,14,36"],
    ]

    def serve(passes):
        for _ in range(passes):
            for argv in requests:
                main(argv)
            capsys.readouterr()

    serve(50)  # fills the caches that a first request fills
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        serve(200)
        growth = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    # Measured on Python 3.10-3.13: at most 255 blocks, against ~4,700
    # when the tuples of a request are built from generators.
    assert growth < 1000
