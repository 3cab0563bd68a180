"""One benchmark process: one closed-loop workload run.

    python3 bench/worker.py --workload W --seed S (--seconds T | --requests N)
                            [--trace SPANS_PATH]

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts each worker in a fresh interpreter.  One client sends the next
request only after the previous one returned; there are no threads.  The
worker prints one JSON object.  Only ``--trace`` imports the tracer.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter

import workloads


def run(workload: str, seed: int, seconds: float | None, requests: int | None,
        traced: bool):
    """Closed-loop run; returns the result document and the tracer (or None)."""
    reqs = workloads.iter_requests(workload, seed)
    tracer = None
    if traced:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    latencies: list[float] = []
    instances = 0
    failed = 0
    errors: list[str] = []
    sizes: Counter = Counter()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    i = 0
    while True:
        if requests is not None and i >= requests:
            break
        if deadline is not None and i and time.perf_counter() >= deadline:
            break
        req = next(reqs)
        if tracer:
            tracer.begin_request(i)
        start = time.perf_counter()
        try:
            result = workloads.execute(req)
        except Exception as exc:  # a failed request is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        latencies.append(time.perf_counter() - start)
        if tracer:
            tracer.end_request()
        if error is None:
            try:
                error = workloads.check(req, result)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"request {i} {req.payload}: {error}"[:500])
        instances += req.instances
        if req.size:
            sizes[",".join(map(str, req.size))] += 1
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "workload": workload,
        "seed": seed,
        "digest": workloads.digest(workloads.make_requests(workload, seed)),
        "digest_length": workloads.DIGEST_LENGTH,
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "instances": instances,
        "latencies": latencies,
        "peak_rss_mb": peak_rss_mb,
        "sizes": sizes,
        "tracer_imported": "tracer" in sys.modules,
    }
    if tracer:
        tracer.uninstall()
    return out, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--requests", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    doc, tracer = run(args.workload, args.seed, args.seconds, args.requests,
                      args.trace is not None)
    if tracer is not None:
        tracer.write_spans(args.trace)
        doc["layer"] = tracer.layer_metrics()
        doc["raw_monomial_steps"] = tracer.steps
        doc["gen_mul_repeats"] = [tracer.gen_repeats, tracer.gen_cross]
        if tracer.sizes:
            doc["sizes"] = Counter(",".join(map(str, size)) for size in tracer.sizes)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
