"""Replay cli_golden.json through a command, one process per recorded request.

    python tests/replay_golden.py                          # the installed rootsums script
    python tests/replay_golden.py python -m rootsums.cli   # any other command

Each recorded argv is appended to the command and run with COLUMNS=80,
since argparse wraps usage and help to the terminal. The exit code,
stdout and stderr must equal the recording byte for byte, with the
timing figures of ``bench`` masked on both sides. Prints every mismatch
and exits 1 if there is one. Needs no pytest; ``test_cli_golden.py``
replays the same file in-process and imports ``mask_timings`` from here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("cli_golden.json")


def mask_timings(text: str) -> str:
    """Replace the timing figures that ``bench`` prints with ``#``."""
    text = re.sub(r"(route: +)\d+\.\d+ s", r"\1# s", text)
    return re.sub(r'(_seconds": )[-+.e0-9]+', r"\1#", text)


def main(command: list[str]) -> int:
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = {**os.environ, "COLUMNS": "80", "PYTHONIOENCODING": "utf-8"}
    mismatches = 0
    for i, case in enumerate(cases):
        # Bytes, decoded here: text mode would turn a printed "\r" into "\n".
        done = subprocess.run([*command, *case["argv"]], capture_output=True, env=env)
        got = {
            "code": done.returncode,
            "out": mask_timings(done.stdout.decode("utf-8")),
            "err": done.stderr.decode("utf-8"),
        }
        wrong = [field for field in got if got[field] != case[field]]
        if wrong:
            mismatches += 1
            print(f"{i:02} {case['argv']!r}")
            for field in wrong:
                print(f"  {field}: expected {case[field]!r}")
                print(f"  {field}: got      {got[field]!r}")
    print(f"{len(cases) - mismatches}/{len(cases)} entries matched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["rootsums"]))
