"""rootsums benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload deep_k --seed 1 --seconds 35 --trace 0

Runs from the root of a source checkout; nothing needs building. With
``--trace 0`` it measures the end-to-end metrics of a closed loop (one
client, one request at a time, in-process through ``rootsums.cli.main``);
with ``--trace 1`` it measures the per-layer metrics from boundary
spans. Every response is checked against an oracle that shares no code
with rootsums. The last line of stdout is the JSON result; the lines
before it print each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import check
from workloads import WORKLOADS, make_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# p95 needs at least 10 samples beyond it.
MIN_REQUESTS = 200
SETUP_LAUNCHES = 21
CLIENT_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "parser.ms": "ms",
    "parser.calls": "count",
    "parser.errors": "count",
    "polynomial.ms": "ms",
    "polynomial.calls": "count",
    "newton.ms": "ms",
    "newton.calls": "count",
    "newton.max_bits": "bits",
    "series.expand_ms": "ms",
    "series.check_ms": "ms",
    "series.calls": "count",
    "series.max_bits": "bits",
    "roots.direct_ms": "ms",
    "roots.check_ms": "ms",
    "roots.calls": "count",
    "roots.max_bits": "bits",
    "cli.self_ms": "ms",
    "cli.out_bytes": "bytes",
    "trace.overhead_pct": "%",
}

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import rootsums.cli
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """The run cannot produce a result."""


def import_seconds(launches: int) -> list[float]:
    """Time ``import rootsums.cli`` in fresh interpreters (bytecode already compiled)."""
    samples = []
    for _ in range(launches):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
            capture_output=True, text=True, cwd=ROOT, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"import rootsums.cli failed:\n{done.stderr}")
        samples.append(float(done.stdout))
    return samples


def run_client(pool: list[dict], seed: int, seconds: float, trace_file: Path | None):
    """The warm-up responses and the loop summary from a fresh client process."""
    job = {
        "src": str(SRC),
        "pool": [request["argv"] for request in pool],
        "seed": seed,
        "seconds": seconds,
        "min_requests": MIN_REQUESTS,
        "trace_file": str(trace_file) if trace_file else None,
    }
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "client.py")],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
            timeout=CLIENT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"client did not finish in {CLIENT_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"client failed:\n{done.stderr}")
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return lines[:-1], lines[-1]["summary"]


def oracle_failures(pool: list[dict], warm: list[dict]) -> set[int]:
    """Pool indices whose warm-up response disagrees with the oracle."""
    failed = set()
    for request, response in zip(pool, warm, strict=True):
        reason = check(request["spec"], response["code"], response["out"], response["err"])
        if reason is not None:
            failed.add(response["warm"])
            print(f"oracle: request {response['warm']} {request['argv'][:4]}: {reason}", file=sys.stderr)
    return failed


def failures(summary: dict, bad: set[int]) -> tuple[int, int]:
    """(attempted, failed) over the measured requests."""
    served, mismatched = summary["served"], summary["mismatched"]
    failed = sum(served[i] if i in bad else mismatched[i] for i in range(len(served)))
    return sum(served), failed


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    pool = make_pool(workload, seed)
    import_seconds(1)  # compiles the bytecode; not counted
    setup = import_seconds(SETUP_LAUNCHES // 2 + 1)
    warm, summary = run_client(pool, seed, seconds, None)
    setup += import_seconds(SETUP_LAUNCHES // 2)
    attempted, failed = failures(summary, oracle_failures(pool, warm))
    latencies = summary["latencies_s"]
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": statistics.quantiles(latencies, n=20)[18] * 1e3,
        "requests_per_s": len(latencies) / summary["wall_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    print(f"samples {len(latencies)} in {summary['wall_s']:.3f} s; error_rate {failed / attempted:.6f}")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, attempted, failed


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    pool = make_pool(workload, seed)
    trace_file = HERE / "out" / f"trace-{workload}-{seed}.jsonl"
    trace_file.parent.mkdir(exist_ok=True)
    warm, summary = run_client(pool, seed, seconds, trace_file)
    attempted, failed = failures(summary, oracle_failures(pool, warm))
    runs = summary["layers"]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "ms":
            metrics[name] = statistics.median(run[name] for run in runs)
        elif name in runs[0]:
            values = {run[name] for run in runs}
            if len(values) != 1:
                print(f"count {name} differs between traced passes: {sorted(values)}", file=sys.stderr)
                failed = max(failed, 1)
            metrics[name] = runs[0][name]
    untraced = statistics.median(summary["untraced_pass_s"])
    traced = statistics.median(summary["traced_pass_s"])
    metrics["trace.overhead_pct"] = (1 - untraced / traced) * 100
    print(f"traced passes {len(runs)} of {len(pool)} requests; spans in {trace_file.relative_to(ROOT)}")
    return {name: (value, PER_LAYER_UNITS[name]) for name, value in metrics.items()}, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootsums" / "cli.py").is_file():
        print(f"error: no rootsums package under {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    start = time.perf_counter()
    try:
        metrics, attempted, failed = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:<20} {value:>14.6f} {unit}")
    print(f"attempted {attempted}, failed {failed}, run {time.perf_counter() - start:.1f} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
