"""Recorded CLI responses, replayed byte for byte through ``cli.main``.

``cli_golden.json`` holds hand-picked requests covering every subcommand,
text and ``--json``, exits 0/1/2 and ``--help``, each with its exit
code, stdout and stderr. The timing figures of ``bench`` are masked on
both sides; exit 3 is covered by the monkeypatch tests in test_cli.py.
"""

import json
import re
from pathlib import Path

import pytest

from rootsums.cli import main

CASES = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def mask_timings(text: str) -> str:
    text = re.sub(r"(route: +)\d+\.\d+ s", r"\1# s", text)
    return re.sub(r'(_seconds": )[-+.e0-9]+', r"\1#", text)


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
