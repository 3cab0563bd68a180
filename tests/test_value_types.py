"""The package's small value types are tuples, and the CLI starts without
``dataclasses``.

``ProjSpace``, ``LineBundle``, ``PiBDegree``, ``NoneqPoly`` and ``Check``
hash and compare with tuple's own C slots, as ``BasisMonomial`` does, and
refuse assignment to a field.  They, ``BundleSum`` and a failing
``VerifySummary`` survive pickle and deepcopy.  A fresh interpreter that
imports the CLI and builds its parser loads neither ``dataclasses`` nor
``inspect``, which would import ``ast``, ``dis`` and ``tokenize`` with it.
"""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from equibezout import cli, euler
from equibezout.euler import BURNSIDE_CHECKS, BundleSum, LineBundle
from equibezout.grading import PiBDegree
from equibezout.projmod import NoneqPoly, ProjSpace
from equibezout.verify import VerifySummary, run_verify
from oracles import O, xO

# one value of each tuple type, and the name of one of its fields
VALUES = [
    (ProjSpace(3, 2), "p"),
    (LineBundle(True, -3), "d"),
    (PiBDegree(1, -2, 4), "m"),
    (NoneqPoly(3, ((0, 1), (2, -2))), "coeffs"),
    (BURNSIDE_CHECKS[0], "name"),
]


@pytest.mark.parametrize("value, field", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_types_hash_and_compare_as_tuples(value, field):
    assert type(value).__hash__ is tuple.__hash__
    assert type(value).__eq__ is tuple.__eq__
    assert value == tuple(value) and hash(value) == hash(tuple(value))
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


def test_a_projective_space_is_the_pair_p_q():
    sp = ProjSpace(2, 3)
    assert (sp.p, sp.q) == (2, 3) == sp
    assert (repr(sp), str(sp)) == ("ProjSpace(p=2, q=3)", "X(2,3)")


def test_a_bundle_sum_compares_and_hashes_by_value():
    sp = ProjSpace(3, 3)
    F = BundleSum.make(sp, [xO(2), O(-1), O(3), xO(-4)])
    assert F.lines == (O(-1), O(3), xO(-4), xO(2))  # untwisted first, then by degree
    twin = BundleSum(ProjSpace(3, 3), tuple(F.lines))
    assert twin == F and hash(twin) == hash(F) and len({F, twin}) == 1
    assert F != BundleSum.make(ProjSpace(3, 4), F.lines)
    assert F != (sp, F.lines)
    assert repr(BundleSum(ProjSpace(1, 1), (O(2),))) == (
        "BundleSum(sp=ProjSpace(p=1, q=1), lines=(LineBundle(twisted=False, d=2),))")


def failing_summary(monkeypatch) -> VerifySummary:
    original = euler.euler_closed
    monkeypatch.setattr(euler, "euler_closed", lambda F: original(F) + original(F))
    summary = run_verify(seed=5, count=50)
    assert summary.failure is not None and summary.minimized is not None
    return summary


def test_value_types_survive_pickle_and_deepcopy(monkeypatch):
    F = BundleSum.make(ProjSpace(4, 3), [O(3), O(2), xO(1)])
    assert F.classified[1] == (3, 2, 2)  # kept on F, and copied with it
    values = [ProjSpace(4, 3), O(-2), PiBDegree(1, -2, 4), F, failing_summary(monkeypatch)]
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert twin == value and str(twin) == str(value) and repr(twin) == repr(value)
    twin = pickle.loads(pickle.dumps(F))
    assert twin.classified == F.classified and euler.euler_product(twin) == euler.euler_product(F)


def test_the_verify_result_holds_each_counterexample_as_an_object(monkeypatch, capsys):
    summary = failing_summary(monkeypatch)
    # run_verify is deterministic, so the CLI reaches the same summary
    assert cli.main(["verify", "--seed", "5", "--count", "50", "--json"]) == cli.EXIT_CHECK
    result = json.loads(capsys.readouterr().out)["result"]
    rows = {key: {"p": c.p, "q": c.q, "bundles": c.bundles, "failed": c.failed}
            for key, c in (("failure", summary.failure), ("minimized", summary.minimized))}
    assert result == {"seed": 5, "requested": 50, "executed": summary.executed,
                      "passed": summary.passed, **rows}


def test_the_cli_starts_without_dataclasses_or_inspect():
    code = ("import sys, equibezout.cli; equibezout.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
