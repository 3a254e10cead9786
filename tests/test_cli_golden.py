"""Recorded CLI responses, replayed byte for byte through ``cli.main``.

``cli_golden.json`` holds hand-picked requests covering every subcommand,
text and ``--json``, exits 0/1/2 and ``--help``, each with its exit
code, stdout and stderr. The timing figures of ``bench`` are masked on
both sides; exit 3 is covered by the monkeypatch tests in test_cli.py.
``replay_golden.py`` replays the same file through an installed command.
"""

import argparse
import json
from pathlib import Path

import pytest

from replay_golden import GOLDEN, mask_timings
from rootsums.cli import main

CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02}-{' '.join(c['argv'][:1])}" for i, c in enumerate(CASES)]
)
def test_cli_response_matches_the_recording(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert code == case["code"]
    assert mask_timings(captured.out) == case["out"]
    assert captured.err == case["err"]


def test_one_parser_serves_requests_in_turn(capsys, monkeypatch):
    # main() builds the argparse tree once per process; a parse must leave
    # no state behind for the next request, a failed one included.
    import rootsums.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    by_argv = {tuple(c["argv"]): c for c in CASES}
    for argv in (
        ("powersums", "x^2 - 3x + 2", "--k", "3"),
        ("verify", "x^2 - 3x + 2", "--roots", "1,3", "--k", "4", "--json"),
        ("powersums", "x^2"),
        ("frobnicate",),
        ("powersums", "x^2 - 3x + 2", "--k", "3"),
    ):
        case = by_argv[argv]
        assert main(list(argv)) == case["code"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (case["out"], case["err"])
    assert len(built) == 1


def test_the_invalid_choice_message_is_the_same_on_every_python(capsys, monkeypatch):
    # Python 3.13.13's argparse writes the choices with str, not repr.
    def check_value_3_13_13(self, action, value):
        if action.choices is not None and value not in action.choices:
            args = {"value": str(value), "choices": ", ".join(map(str, action.choices))}
            message = "invalid choice: %(value)r (choose from %(choices)s)" % args
            raise argparse.ArgumentError(action, message)

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", check_value_3_13_13)
    monkeypatch.setenv("COLUMNS", "80")
    [case] = [c for c in CASES if c["argv"] == ["frobnicate"]]
    assert main(["frobnicate"]) == case["code"]
    assert capsys.readouterr().err == case["err"]


def test_readme_shows_the_recorded_json_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [case] = [c for c in CASES if c["argv"] == ["powersums", "x^2 - 3x + 2", "--k", "3", "--json"]]
    assert case["out"] in readme
