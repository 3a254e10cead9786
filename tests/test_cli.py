"""Command behavior, exit codes, and the JSON contract."""

import json

from rootsums.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


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
    _, payload, _ = run_json(capsys, "powersums", "1/2x^2 - 1/3", "--k", "2")
    assert all(isinstance(v, str) for v in payload["power_sums"])


def test_powersums_all_roots_zero(capsys):
    code, out, _ = run(capsys, "powersums", "x^3", "--k", "2")
    assert code == 0
    assert [line.split("=")[1].strip() for line in out.splitlines()] == ["3", "0", "0"]


def test_from_roots_disagreement_wiring_exits_three(capsys, monkeypatch):
    # The routes cannot actually disagree; fake one to prove the exit path.
    import rootsums.cli as cli

    monkeypatch.setattr(
        cli, "log_derivative_power_sums", lambda p, k: [p.degree + 1] * (k + 1)
    )
    code, out, err = run(capsys, "from-roots", "1,2", "--k", "2")
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

    proc = subprocess.run(
        [sys.executable, "-m", "rootsums.cli", "powersums", "x^2 - 3x + 2", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-1].endswith("5")


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
    monkeypatch.setattr(
        newton,
        "_window",
        lambda w, s, k, width: window(w, s, k, width) + (width == 3),
    )
    code, out, err = run(capsys, "powersums", "x^3 - 2x + 1", "--k", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error:")


def test_verify_catches_a_corrupted_series(capsys, monkeypatch):
    # verify hands its one series to the cross-multiplied check, so a bad
    # term must fail both coefficient-only checks.
    import rootsums.cli as cli

    expand = cli.log_derivative_power_sums

    def corrupted(p, k):
        sums = expand(p, k)
        sums[2] += 1
        return sums

    monkeypatch.setattr(cli, "log_derivative_power_sums", corrupted)
    code, payload, _ = run_json(capsys, "verify", "x^2 - 3x + 2", "--k", "6")
    assert code == 2
    by_name = {c["name"]: c["pass"] for c in payload["checks"]}
    assert by_name == {
        "recurrence-series agreement": False,
        "cross-multiplied identity": False,
    }


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


def test_verify_rejects_bad_roots_before_computing(capsys, monkeypatch):
    import rootsums.cli as cli

    def must_not_run(*args):
        raise AssertionError("a route ran before --roots was checked")

    monkeypatch.setattr(cli, "power_sums_from_coeffs", must_not_run)
    poly = "x^8 - 3x^7 + 2x^5 - x^4 + 7x^3 - 2x + 5"
    code, out, err = run(capsys, "verify", poly, "--roots", "1,", "--k", "3000")
    assert (code, out) == (1, "")
    assert err.startswith("parse error: offset 2")
    code, out, err = run(capsys, "verify", "x^2 - 1", "--roots", "1,-1", "--k", "1")
    assert (code, out) == (1, "")
    assert "at least the polynomial degree" in err


def test_exponent_over_the_cap_exits_one(capsys):
    code, out, _ = run(capsys, "powersums", "x^10000", "--k", "0")
    assert (code, out) == (0, "p0 = 10000\n")
    code, out, err = run(capsys, "powersums", "x^10001", "--k", "0")
    assert (code, out) == (1, "")
    assert err == "parse error: offset 2: exponent exceeds the supported maximum of 10000\n"
