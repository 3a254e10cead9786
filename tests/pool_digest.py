"""Digest every benchmark pool response, to compare output across changes.

    python tests/pool_digest.py            # seeds 0, 3 and 7
    python tests/pool_digest.py 1 2        # any other seeds

For each workload in perfbench/workloads.py and each seed, runs every
request of the pool in this process through ``rootsums.cli.main`` of
this checkout, with stdout and stderr captured as the benchmark client
captures them. Prints one sha256 over the (code, out, err) of every
response per workload, then one over all of them. Two checkouts that
print the same digests answered every pool request byte for byte
alike. Needs no pytest, and writes nothing: not even bytecode for the
benchmark's modules.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 3, 7)


def main(seeds: list[int]) -> None:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import rootsums.cli as cli
    from client import call
    from workloads import WORKLOADS, make_pool

    combined = hashlib.sha256()
    print(f"seeds {' '.join(map(str, seeds))}")
    for name in WORKLOADS:
        digest, count = hashlib.sha256(), 0
        for seed in seeds:
            for request in make_pool(name, seed):
                code, out, err, _ = call(cli, request["argv"])
                record = json.dumps([code, out, err]).encode() + b"\n"
                digest.update(record)
                combined.update(record)
                count += 1
        print(f"{name:<16}{digest.hexdigest()}  {count} requests")
    print(f"{'combined':<16}{combined.hexdigest()}")


if __name__ == "__main__":
    main([int(seed) for seed in sys.argv[1:]] or list(SEEDS))
