"""Golden CLI outputs: stdout and exit code of a fixed set of commands.

The files under ``tests/golden/`` hold the expected stdout of each case
(``<name>.out``) and all exit codes (``exit_codes.json``).  A change that
is meant to alter the output regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import equibezout
from equibezout.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

_EULER = {
    "four_fold": ["5", "5", "4*xO(2)"],
    "mixed_signs": ["4", "3", "O(-3)+xO(2)+O(2)"],
    "clamped": ["3", "2", "O(3)+xO(-1)+xO(5)"],
    "three_terms": ["4", "4", "O(-2)+xO(-3)+xO(1)"],
}

CASES = {
    **{
        f"euler_{name}_{coeffs}{suffix}": ["euler", *args, "--coeffs", coeffs, *flags]
        for name, args in _EULER.items()
        for coeffs in ("burnside", "zconst", "borel")
        for suffix, flags in (("", []), ("_json", ["--json"]))
    },
    "euler_context_violation": ["euler", "1", "1", "O(1)+O(1)"],
    "euler_context_violation_json": ["euler", "1", "1", "O(1)+O(1)", "--json"],
    "compare_partial_loss": ["compare", "2", "2", "O(3)+xO(1)", "O(1)+xO(3)"],
    "compare_partial_loss_json": ["compare", "2", "2", "O(3)+xO(1)", "O(1)+xO(3)", "--json"],
    "compare_distinct": ["compare", "3", "3", "O(2)", "O(4)"],
    "compare_signs": ["compare", "4", "3", "O(-3)+xO(2)", "O(3)+xO(-2)"],
    "basis_negative_class": ["basis", "4", "5", "-6"],
    "basis_single_variable": ["basis", "1", "0", "3"],
    "basis_json": ["basis", "4", "5", "0", "--json"],
    "chart": ["chart", "--", "-6..6"],
    "chart_brange_json": ["chart", "0..2", "--brange=-3..3", "--json"],
    "verify": ["verify", "--seed", "1", "--count", "20"],
    "verify_small_space_json": [
        "verify", "--seed", "7", "--count", "10",
        "--pmax", "3", "--qmax", "3", "--dmax", "2", "--json",
    ],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_case(CASES[name])
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


# Calls that share the process's one parser with the golden cases: a usage
# error, an explicit seed and negative chart ranges, each of which would
# show in a later output if parsing kept anything from a call.
BETWEEN = [
    (["euler"], 2),
    (["verify", "--seed", "5", "--count", "1"], 0),
    (["chart", "-4..4", "--brange", "-2..2"], 0),
]


def test_golden_outputs_survive_parser_reuse():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    names = sorted(CASES)
    for name in names + names[::-1]:
        code, out = run_case(CASES[name])
        assert code == codes[name], name
        assert out == (GOLDEN / f"{name}.out").read_text(), name
        with contextlib.redirect_stderr(io.StringIO()):
            assert [run_case(argv)[0] for argv, _ in BETWEEN] == [c for _, c in BETWEEN]


# Cases rerun under ``python -O``, which strips every ``assert``: one euler
# input in all three theories, a context violation, a compare, a verify and
# a chart, whose cells come from the normal form of the point-ring scalar.
OPTIMISED = [
    "euler_three_terms_burnside", "euler_three_terms_zconst", "euler_three_terms_borel",
    "euler_context_violation", "compare_partial_loss", "verify_small_space_json", "chart",
]


@pytest.mark.parametrize("name", OPTIMISED)
def test_golden_output_without_asserts(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    src = str(pathlib.Path(equibezout.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "equibezout.cli", *CASES[name]],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == codes[name]
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
