"""Benchmark of equibezout: end-to-end metrics and a per-layer trace.

    python3 bench/run.py --workload verify_small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics: set-up time (median of several fresh interpreters that import
``equibezout.cli`` and build its parser) and one closed-loop run of the
workload for ``--seconds`` in a fresh interpreter that never imports the
tracer.  ``--trace 1`` gives the per-layer metrics: a fixed number of
requests run untraced, traced, and untraced again, each in a fresh
interpreter; the traced busy time over the mean untraced one, minus one,
is ``trace.overhead_frac``.

Every output is checked against the benchmark's own reference; a
disagreement counts as a failed request and never stops the run.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A report of the run's input properties goes to
``bench/results/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

# set-up measurements (fresh interpreters) before and as many after the
# workload run, so that they straddle it: a shared 2-vCPU VM was seen to run
# in fast and slow phases of 10-60 s that differ by up to half in speed.
# One more probe, first, only warms the bytecode cache and is discarded.
SETUP_PROBES_EACH_SIDE = 6
# a fresh interpreter that imports the CLI and builds its parser, timed from
# inside so that interpreter start is excluded
SETUP_PROBE = (
    "import time; start = time.perf_counter(); import equibezout.cli; "
    "equibezout.cli.build_parser(); print(time.perf_counter() - start)"
)
# requests of a traced run: fixed, so that counts repeat exactly for a seed
TRACE_REQUESTS = {"verify_small": 3, "euler_large": 24, "expr_roundtrip": 800}
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _python(*args: str) -> str:
    """Last line of standard output of a fresh interpreter run from the root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)[:200]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def _worker(*args: str) -> dict:
    return json.loads(_python(os.path.join(HERE, "worker.py"), *args))


def _setup_probes(count: int) -> list[float]:
    return [float(_python("-c", SETUP_PROBE)) for _ in range(count)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the 11th-largest latency."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = _setup_probes(1 + SETUP_PROBES_EACH_SIDE)[1:]
    doc = _worker("--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds))
    probes += _setup_probes(SETUP_PROBES_EACH_SIDE)
    if doc["tracer_imported"]:
        raise BenchError("the untraced run imported the tracer")
    lat = doc.pop("latencies")
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "throughput_per_s": (doc["instances"] / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }
    doc["setup_probes_s"] = probes
    doc["failed_frac"] = doc["failed"] / doc["attempted"]
    doc["latency_tail"] = {"percentile": round(tail_pct, 3), "samples": len(lat),
                           "beyond": 10 if len(lat) > 10 else 0}
    return metrics, doc


def per_layer(workload: str, seed: int) -> tuple[dict, dict]:
    import tracer

    run = ("--workload", workload, "--seed", str(seed),
           "--requests", str(TRACE_REQUESTS[workload]))
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"{workload}-seed{seed}-spans.json")
    # untraced runs of the same requests before and after the traced one, so
    # that a drift in host speed cancels out of the overhead
    bases = [_worker(*run)]
    doc = _worker(*run, "--trace", spans)
    bases.append(_worker(*run))
    untraced = sum(sum(b["latencies"]) for b in bases) / len(bases)
    layer = doc.pop("layer")
    layer["trace.overhead_frac"] = sum(doc.pop("latencies")) / untraced - 1
    metrics = {name: (layer[name], unit) for name, unit in tracer.LAYER_METRICS}
    steps = doc.pop("raw_monomial_steps")
    repeats, cross = doc.pop("gen_mul_repeats")
    doc["raw_monomial_steps"] = _distribution(steps)
    doc["gen_mul"] = {
        "calls": layer["projmod.gen_mul.calls"],
        "repeats": repeats,
        "repeat_share": layer["projmod.gen_mul.repeat_share"],
        "cross_request_repeats": cross,
        "cross_request_share": layer["projmod.gen_mul.cross_request_share"],
    }
    for base in bases:
        doc["failed"] += base["failed"]
        doc["attempted"] += base["attempted"]
        doc["errors"] += base["errors"]
    doc["failed_frac"] = doc["failed"] / doc["attempted"]
    doc["spans_file"] = os.path.relpath(spans, ROOT)
    return metrics, doc


def _distribution(values: list[int]) -> dict:
    if not values:
        return {"count": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"count": len(values), "min": min(values), "quartiles": q,
            "max": max(values), "histogram": dict(sorted(Counter(values).items()))}


def _print_metrics(workload: str, metrics: dict, doc: dict) -> None:
    print(f"workload {workload}  seed {doc['seed']}  requests {doc['attempted']}  "
          f"digest {doc['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "latency_tail_ms":
            t = doc["latency_tail"]
            extra = f"   (p{t['percentile']}, {t['beyond']} of {t['samples']} samples beyond)"
        print(f"  {name:<44} {value:>14.6g} {unit}{extra}")
    print(f"  {'failed_frac':<44} {doc['failed_frac']:>14.6g} fraction"
          f"   ({doc['failed']} of {doc['attempted']})")
    for err in doc["errors"]:
        print(f"  error: {err}")
    sizes = [tuple(map(int, key.split(","))) for key in doc["sizes"]]
    if sizes:
        p, q, n = zip(*sizes)
        print(f"  inputs: {len(sizes)} distinct (p, q, n) over {sum(doc['sizes'].values())} "
              f"draws; p {min(p)}..{max(p)}, q {min(q)}..{max(q)}, n {min(n)}..{max(n)}")
    if "gen_mul" in doc:
        steps, gen = doc["raw_monomial_steps"], doc["gen_mul"]
        print(f"  inputs: raw_monomial steps quartiles {steps.get('quartiles')} "
              f"max {steps.get('max')}; gen_mul repeat_share {gen['repeat_share']:.3f}, "
              f"of which across requests {gen['cross_request_share']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "equibezout", "cli.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out_metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            if args.trace:
                metrics, doc = per_layer(name, args.seed)
            else:
                metrics, doc = end_to_end(name, args.seed, args.seconds)
            _print_metrics(name, metrics, doc)
            os.makedirs(RESULTS, exist_ok=True)
            report = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(report, "w") as fh:
                json.dump({"metrics": metrics, **doc}, fh, indent=1)
            print(f"  report: {os.path.relpath(report, ROOT)}")
            attempted += doc["attempted"]
            failed += doc["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            for key, (value, unit) in metrics.items():
                out_metrics[prefix + key] = {"value": value, "unit": unit}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
