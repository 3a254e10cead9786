"""Every benchmark pool response is byte for byte what it was when recorded.

``tests/pool_digest.txt`` holds the output of ``python tests/pool_digest.py``
(seeds 0, 3 and 7: 999 requests over the three perfbench workloads). A
change that alters any response's exit code, stdout or stderr changes a
digest. Re-record the file only for a change whose output is meant to
differ, and say which responses changed.
"""

import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def test_pool_responses_match_the_recorded_digests():
    proc = subprocess.run(
        [sys.executable, str(TESTS / "pool_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (TESTS / "pool_digest.txt").read_text(encoding="utf-8")
