"""Closed-loop client: one thread sends one request at a time to
``rootsums.cli.main`` in this process, with stdout and stderr captured.

It runs as its own process so that its peak RSS is that of the loop
alone. The job arrives as JSON on stdin:

    {"src": dir, "pool": [argv, ...], "seed": n, "seconds": s,
     "min_requests": m, "trace_file": path or null}

Output is JSON lines on stdout: one ``{"warm": i, "code", "out", "err"}``
per pool entry from an untimed warm-up pass (the responses the oracle
checks), then one ``{"summary": {...}}``. Every later response is
compared with the warm-up response to the same request.

Without ``trace_file`` the timed loop cycles through the pool in seeded
shuffled order until ``seconds`` have passed and ``min_requests``
responses arrived. With it, untraced and traced passes over the pool
alternate for ``seconds``; the spans are written to ``trace_file``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time

# A slow machine may stretch a run to reach min_requests, but no further.
MAX_STRETCH = 3


def call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def timed_loop(cli, pool, digests, job) -> dict:
    rng = random.Random(job["seed"])
    latencies: list[float] = []
    served, mismatched = [0] * len(pool), [0] * len(pool)
    seconds, minimum = job["seconds"], job["min_requests"]
    order: list[int] = []
    start = time.perf_counter()
    while True:
        if not order:
            order = list(range(len(pool)))
            rng.shuffle(order)
        i = order.pop()
        code, out, err, elapsed = call(cli, pool[i])
        latencies.append(elapsed)
        served[i] += 1
        mismatched[i] += hash((code, out, err)) != digests[i]
        wall = time.perf_counter() - start
        if (wall >= seconds and len(latencies) >= minimum) or wall >= MAX_STRETCH * seconds:
            break
    return {
        "latencies_s": latencies,
        "wall_s": wall,
        "served": served,
        "mismatched": mismatched,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced_passes(cli, pool, digests, job) -> dict:
    from spans import Tracer

    untraced_s, traced_s, layer_runs, spans = [], [], [], []
    served, mismatched = [0] * len(pool), [0] * len(pool)
    start = time.perf_counter()
    while not traced_s or time.perf_counter() - start < job["seconds"]:
        begin = time.perf_counter()
        for i, argv in enumerate(pool):
            code, out, err, _ = call(cli, argv)
            served[i] += 1
            mismatched[i] += hash((code, out, err)) != digests[i]
        untraced_s.append(time.perf_counter() - begin)

        tracer = Tracer()
        out_bytes = 0
        saved = tracer.install(cli)
        begin = time.perf_counter()
        try:
            for i, argv in enumerate(pool):
                tracer.request = i
                code, out, err, _ = call(cli, argv)
                served[i] += 1
                mismatched[i] += hash((code, out, err)) != digests[i]
                out_bytes += len(out.encode())
        finally:
            traced_s.append(time.perf_counter() - begin)
            for name, fn in saved.items():
                setattr(cli, name, fn)
        layer_runs.append({**tracer.summary(), "cli.out_bytes": out_bytes})
        spans.append(tracer.records())

    with open(job["trace_file"], "w") as handle:
        for number, records in enumerate(spans):
            for record in records:
                handle.write(json.dumps({"pass": number, **record}) + "\n")
    return {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "layers": layer_runs,
        "served": served,
        "mismatched": mismatched,
    }


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import rootsums.cli as cli

    pool = job["pool"]
    digests = []
    for i, argv in enumerate(pool):
        code, out, err, _ = call(cli, argv)
        digests.append(hash((code, out, err)))
        print(json.dumps({"warm": i, "code": code, "out": out, "err": err}), flush=True)
    run = traced_passes if job["trace_file"] else timed_loop
    print(json.dumps({"summary": run(cli, pool, digests, job)}), flush=True)


if __name__ == "__main__":
    main()
