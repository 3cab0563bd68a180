"""Golden CLI outputs: stdout and exit code of a fixed set of commands.

The files under ``tests/golden/`` hold the expected stdout of each case
(``<name>.out``) and all exit codes (``exit_codes.json``).  A change that
is meant to alter the output regenerates them with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_case(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    sys.exit(0)
