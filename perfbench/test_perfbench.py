"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import client
import run
from oracle import check
from workloads import WORKLOADS, make_pool

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _responses(pool: list[dict]) -> list[dict]:
    import rootsums.cli as cli

    warm = []
    for i, request in enumerate(pool):
        code, out, err, _ = client.call(cli, request["argv"])
        warm.append({"warm": i, "code": code, "out": out, "err": err})
    return warm


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_fixed_seed_gives_identical_argv(workload):
    first = json.dumps([r["argv"] for r in make_pool(workload, 7)])
    assert first == json.dumps([r["argv"] for r in make_pool(workload, 7)])
    assert first != json.dumps([r["argv"] for r in make_pool(workload, 8)])


def test_every_small_many_response_matches_the_oracle():
    pool = make_pool("small_many", 3)
    warm = _responses(pool)
    assert run.oracle_failures(pool, warm) == set()
    assert {r["code"] for r in warm} == {0, 1, 2}


def _traced_counts(pool: list[dict], tmp_path: Path, name: str) -> dict:
    import rootsums.cli as cli

    job = {"seconds": 0, "trace_file": str(tmp_path / name)}
    digests = [hash((r["code"], r["out"], r["err"])) for r in _responses(pool)]
    summary = client.traced_passes(cli, [r["argv"] for r in pool], digests, job)
    assert not any(summary["mismatched"])
    (layers,) = summary["layers"]
    return {k: v for k, v in layers.items() if k.endswith((".calls", ".max_bits", ".errors", "out_bytes"))}


def test_counts_repeat_across_two_traced_runs(tmp_path):
    pool = make_pool("small_many", 5) + make_pool("rational_roots", 5)[-4:]
    first = _traced_counts(pool, tmp_path, "a.jsonl")
    assert first == _traced_counts(pool, tmp_path, "b.jsonl")
    assert first["roots.calls"] > 0 and first["newton.max_bits"] > 0 and first["parser.errors"] > 0


def test_oracle_flags_a_corrupted_power_sum_and_failures_rise():
    pool = [r for r in make_pool("small_many", 2) if r["spec"]["cmd"] == "powersums" and r["spec"]["exit"] == 0]
    pool = pool[:2]
    warm = _responses(pool)
    summary = {"served": [3, 4], "mismatched": [0, 0]}
    assert run.failures(summary, run.oracle_failures(pool, warm)) == (7, 0)

    corrupted = [dict(w) for w in warm]
    for response in corrupted:
        if response["out"].startswith("{"):
            payload = json.loads(response["out"])
            payload["power_sums"][-1] += "1"
            response["out"] = json.dumps(payload) + "\n"
        else:
            response["out"] = response["out"].rstrip("\n") + "1\n"
    for request, response in zip(pool, corrupted):
        assert check(request["spec"], response["code"], response["out"], response["err"]) is not None
    assert run.failures(summary, run.oracle_failures(pool, corrupted[:1] + warm[1:])) == (7, 3)


def _result(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "small_many", "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    done = _result("--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    printed = [line.split()[0] for line in done.stdout.splitlines()[-2 - len(declared):-2]]
    assert printed == [m["name"] for m in declared]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _result("--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
