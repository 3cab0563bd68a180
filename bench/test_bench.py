"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest bench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from equibezout import cli, euler, parsing, projmod, variants, verify  # noqa: E402
from equibezout.parsing import parse_bundles, parse_module_element  # noqa: E402


def test_same_seed_gives_identical_request_list():
    for name in workloads.WORKLOADS:
        first = workloads.make_requests(name, 3)
        again = workloads.make_requests(name, 3)
        assert [r.canonical() for r in first] == [r.canonical() for r in again]
        assert workloads.digest(first) != workloads.digest(workloads.make_requests(name, 4))


@pytest.mark.parametrize("seed", [1, 2])
def test_every_euler_instance_passes_context_check(seed):
    for req in workloads.make_requests("euler_large", seed, 48):
        p, q = int(req.payload[1]), int(req.payload[2])
        texts = req.payload[3:5] if req.kind == "compare" else req.payload[3:4]
        for text in texts:
            F = euler.BundleSum.make(projmod.ProjSpace(p, q), parse_bundles(text))
            assert euler.context_check(F) == []
            assert F.n == req.size[2]
        if req.kind == "euler":
            assert euler.ranks(F).n_total == req.expect[0][0]


def test_euler_block_outputs_check_as_text_and_json():
    block = workloads.make_requests("euler_large", 1, len(workloads.EULER_BLOCK))
    assert {(r.kind, "--json" in r.payload) for r in block} == {
        (kind, json_out) for kind in ("euler", "compare") for json_out in (True, False)}
    for req in block:
        code, out = workloads.execute(req)
        assert workloads.check(req, (code, out)) is None
        if req.kind == "compare" and "--json" not in req.payload:
            # a wrong Burnside flag in the text output is caught
            flipped = out.replace("burnside: equal", "burnside: XX").replace(
                "burnside: differ", "burnside: equal").replace("burnside: XX", "burnside: differ")
            assert workloads.check(req, (code, flipped)) is not None


def test_every_roundtrip_text_parses():
    for req in workloads.make_requests("expr_roundtrip", 1, 40):
        p, q, text = req.payload
        parse_module_element(text, projmod.ProjSpace(p, q))


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["request", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b.child", 6.0, 8.5, 2, 0],
        ["other", 20.0, 30.0, -1, 1],
        ["x", 21.0, 24.0, 5, 1],
        ["y", 24.5, 27.0, 5, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.5, 1.0, 2.5, 4.5, 3.0, 2.5])


def test_tail_is_the_eleventh_largest():
    value, percentile = run.tail([i / 1000 for i in range(1, 101)])
    assert value == pytest.approx(0.090)
    assert percentile == pytest.approx(90.0)


def test_untraced_run_never_imports_the_tracer():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"),
         "--workload", "expr_roundtrip", "--seed", "1", "--requests", "3"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(proc.stdout)
    assert doc["attempted"] == 3 and doc["failed"] == 0
    assert doc["tracer_imported"] is False


def test_tracer_replaces_every_binding_and_counts_layers():
    original = projmod.mod_mul
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = projmod.mod_mul
        assert wrapped is not original
        for mod in (euler, parsing, verify):
            assert mod.mod_mul is wrapped
        assert parsing.raw_monomial is projmod.raw_monomial is variants.raw_monomial
        assert cli.parse_bundles is parsing.parse_bundles
        t.begin_request(0)
        assert cli.main(["euler", "3", "3", "O(1)+xO(2)", "--json"]) == 0
        t.end_request()
    finally:
        t.uninstall()
    assert projmod.mod_mul is original and euler.mod_mul is original
    layer = t.layer_metrics()
    assert [name for name, _ in tracer.LAYER_METRICS] == [*layer, "trace.overhead_frac"]
    assert layer["cli.main.calls"] == 1
    assert layer["euler.euler_line.calls"] >= 2
    assert layer["euler.euler_product.calls"] >= 1
    assert layer["projmod.gen_mul.calls"] > 0
    assert layer["trace.requests"] == 1
    assert layer["verify.check_instance.calls"] == 0


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == list(tracer.LAYER_METRICS)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert list(layers["per_layer_moves"]) == [name for name, _ in listed]
    assert set(layers["workloads"]) == set(workloads.WORKLOADS)
