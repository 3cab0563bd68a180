"""CLI contract: exit codes, JSON schema, human output."""

import itertools
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from equibezout import euler, variants
from equibezout.cli import EXIT_CHECK, EXIT_OK, EXIT_USAGE, chart_cell, main
from equibezout.grading import euler_grading
from equibezout.hscalar import HElement
from equibezout.projmod import ModuleElement, basis
from equibezout.verify import run_verify
from oracles import monomials_in_grading

JSON_KEYS = {
    "command",
    "inputs",
    "ranks",
    "degrees",
    "grading",
    "coefficients",
    "checks",
    "theory",
    "result",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    assert set(doc) == JSON_KEYS
    return code, doc


def test_euler_four_fold_twisted_class(capsys):
    code, out, _ = run(capsys, "euler", "5", "5", "4*xO(2)")
    assert code == EXIT_OK
    assert "8*tau(i^4)*P4" in out
    assert "e^8*P0" in out
    assert "degrees: (16, 1, 1)" in out
    assert "grading: 8*s" in out


def test_euler_json_schema(capsys):
    code, doc = run_json(capsys, "euler", "5", "5", "4*xO(2)")
    assert code == EXIT_OK
    assert doc["theory"] == "burnside"
    assert doc["ranks"] == [4, 0, 0]
    assert doc["degrees"] == [16, 1, 1]
    assert doc["grading"] == "8*s"
    assert all(doc["checks"].values())
    coeffs = {row["i"]: row["scalar"] for row in doc["coefficients"]}
    assert coeffs[0] == "e^8"
    assert coeffs[4] == "8*tau(i^4)"


def test_euler_zconst(capsys):
    code, out, _ = run(capsys, "euler", "2", "2", "O(3)+xO(1)", "--coeffs", "zconst")
    assert code == EXIT_OK
    assert "3*cw*cxw" in out


def test_euler_borel(capsys):
    code, out, _ = run(capsys, "euler", "2", "2", "O(3)+xO(1)", "--coeffs", "borel")
    assert code == EXIT_OK
    assert "e^2" in out and "3*c^2" in out


def test_euler_context_violation_exits_1(capsys):
    code, out, _ = run(capsys, "euler", "1", "1", "O(1)+O(1)")
    assert code == EXIT_CHECK
    assert "context violation" in out


def test_euler_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "euler", "2", "2", "O(3)+Q(1)")
    assert code == EXIT_USAGE
    assert "error" in err


def test_usage_error_exits_2(capsys):
    assert main(["euler"]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["basis", "1", "1"]) == EXIT_USAGE


def test_basis_listing(capsys):
    code, out, _ = run(capsys, "basis", "1", "0", "3")
    assert code == EXIT_OK
    assert "P0 = z1^3" in out
    code, out, _ = run(capsys, "basis", "4", "5", "-6")
    assert code == EXIT_OK
    assert "z0^6" in out and "z1^-4*cw^3*cxw^5" in out


def test_basis_rejects_empty_space(capsys):
    code, _, err = run(capsys, "basis", "0", "0", "0")
    assert code == EXIT_USAGE
    assert err == "error: invalid projective space X(0,0)\n"


def test_basis_reports_negative_rank(capsys):
    # p + q = 2 here, so the old "p+q must be positive" text was wrong
    code, out, err = run(capsys, "basis", "-1", "3", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: invalid projective space X(-1,3)\n"


def test_basis_json(capsys):
    code, doc = run_json(capsys, "basis", "4", "5", "0")
    assert code == EXIT_OK
    assert len(doc["result"]) == 9
    assert doc["result"][0]["monomial"] == "1"


def test_compare_output(capsys):
    code, out, _ = run(capsys, "compare", "2", "2", "O(3)+xO(1)", "O(1)+xO(3)")
    assert code == EXIT_OK
    assert "burnside: differ" in out
    assert "zconst: equal" in out
    assert "borel: equal" in out
    code, doc = run_json(capsys, "compare", "2", "2", "O(3)+xO(1)", "O(3)+xO(1)")
    assert code == EXIT_OK
    assert doc["checks"] == {"burnside": True, "zconst": True, "borel": True}


def test_compare_distinct_everywhere(capsys):
    code, out, _ = run(capsys, "compare", "3", "3", "O(2)", "O(4)")
    assert code == EXIT_OK
    assert "burnside: differ" in out
    assert "zconst: differ" in out
    assert "borel: differ" in out


def test_chart_single_column(capsys):
    code, out, _ = run(capsys, "chart", "0..0")
    assert code == EXIT_OK
    rows = {}
    for line in out.splitlines():
        if "|" in line:
            label, cells = line.split("|")
            rows[int(label)] = cells.strip()
    assert rows[0] == "#"
    assert rows[1] == "e"
    assert rows[-1] == "k"
    assert all(rows[b] == "*" for b in range(2, 9))
    assert all(rows[b] == "*" for b in range(-8, -1))


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_chart_brange_as_separate_argument(capsys, extra):
    joined = run(capsys, "chart", "0..2", "--brange=-3..3", *extra)
    assert joined[0] == EXIT_OK
    assert run(capsys, "chart", "0..2", "--brange", "-3..3", *extra) == joined
    assert run(capsys, "chart", "0..2", *extra, "--brange", "-3..3") == joined
    assert run(capsys, "chart", "0..2", "--bra", "-3..3", *extra) == joined
    assert run(capsys, "chart", "0..2", "--b", "-3..3", *extra) == joined


def test_chart_negative_range_as_bare_positional(capsys):
    golden = pathlib.Path(__file__).parent / "golden" / "chart.out"
    assert run(capsys, "chart", "-6..6") == (EXIT_OK, golden.read_text(), "")
    assert run(capsys, "chart", "-2..2", "--brange", "-3..3", "--json") == run(
        capsys, "chart", "--brange=-3..3", "--json", "--", "-2..2"
    )


def test_closed_pipe_exits_without_traceback():
    # the basis of X(2000, 1) is about 139 kB, more than a pipe buffer holds,
    # so the writer meets the closed pipe before it is done
    proc = subprocess.Popen(
        [sys.executable, "-m", "equibezout.cli", "basis", "2000", "1", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"basis of X(2000,1)")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (EXIT_OK, EXIT_CHECK, EXIT_USAGE)
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


def test_chart_empty_range(capsys):
    # LO > HI is a usage error with one message line, in text and JSON mode
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "chart", "1..0", *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: empty range '1..0'; expected LO <= HI\n"


def test_chart_cells_match_figure():
    assert chart_cell(0, 0) == "#"
    assert chart_cell(0, 1) == "e"
    assert chart_cell(-2, 2) == "x"
    assert chart_cell(2, -2) == "t"
    assert chart_cell(0, -1) == "k"
    assert chart_cell(-2, 3) == "o"
    assert chart_cell(-4, 4) == "*"
    assert chart_cell(4, -4) == "*"
    assert chart_cell(1, 1) == "."
    assert chart_cell(2, 2) == "."
    assert chart_cell(-2, 1) == "."


def test_chart_cell_matches_the_existence_table():
    # chart_cell reads the group from HElement's normal form; the test-side
    # table says where each family has a monomial
    marks = {"e", "x", "t", "k"}
    for a, b in itertools.product(range(-12, 13), repeat=2):
        monos = monomials_in_grading(a, b)
        if len(monos) == 2:
            expected = "#"  # 1 and g, the Burnside ring
        elif not monos:
            expected = "."
        else:
            ((_, u, v),) = monos
            expected = "o" if u and v else "*"  # e^u*xi^v with u, v >= 1 is Z/2
        cell = chart_cell(a, b)
        assert cell == expected or (cell in marks and expected == "*"), (a, b)


def test_verify_cli(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "20")
    assert code == EXIT_OK
    assert "20/20 ok" in out
    code, doc = run_json(capsys, "verify", "--seed", "1", "--count", "5")
    assert code == EXIT_OK
    assert doc["checks"] == {"suite": True}
    assert doc["result"]["passed"] == 5


def test_verify_cli_reports_a_fault(capsys, monkeypatch):
    original = euler.euler_closed
    monkeypatch.setattr(euler, "euler_closed", lambda F: original(F) + original(F))
    argv = ("verify", "--seed", "5", "--count", "50")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_CHECK
    lines = out.splitlines()
    assert "passed before failure (seed 5)" in lines[0]
    assert lines[1].startswith("failing instance: X(")
    assert lines[2].startswith("minimized: X(")
    assert "product_equals_closed" in lines[2]
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_CHECK
    assert doc["checks"] == {"suite": False}
    for key in ("failure", "minimized"):
        row = doc["result"][key]
        assert set(row) == {"p", "q", "bundles", "failed"}
        assert "product_equals_closed" in row["failed"]


def test_euler_json_with_a_term_outside_the_degree_class(capsys, monkeypatch):
    # the stray term of test_verify.py: the dense coefficient vector has no
    # value, so --json reports it as null instead of raising
    honest = euler.euler_product

    def with_stray_term(F, ring=HElement):
        x = honest(F, ring)
        stray = basis(F.sp, euler_grading(*euler.ranks(F)).m + 1)[0]
        return ModuleElement._trusted(F.sp, {**x.terms, stray: ring.ring_one()}, ring)

    monkeypatch.setattr(euler, "euler_product", with_stray_term)
    argv = ("euler", "2", "2", "O(3)+xO(1)")
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_CHECK
    assert "grading=FAIL" in out
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_CHECK
    assert doc["coefficients"] is None
    assert doc["checks"]["grading"] is False


def test_verify_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("EQUIBEZOUT_SEED", "42")
    code, out, _ = run(capsys, "verify", "--count", "3")
    assert code == EXIT_OK
    assert "seed 42" in out


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "equibezout.cli", "euler", "5", "5", "4*xO(2)", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["degrees"] == [16, 1, 1]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["euler", "3", "0", "O(1)"], EXIT_CHECK, "p, q >= 1"),
        (["compare", "3", "0", "O(1)", "O(3)"], EXIT_CHECK, "p, q >= 1"),
        (["verify", "--pmax", "0"], EXIT_USAGE, "--pmax must be >= 1"),
        (["verify", "--qmax", "0"], EXIT_USAGE, "--qmax must be >= 1"),
        (["verify", "--dmax", "-1"], EXIT_USAGE, "--dmax must be >= 0"),
        (["verify", "--count", "-5"], EXIT_USAGE, "--count must be >= 0"),
        # a bad seed variable is read only by verify, and only without --seed
        (["EQUIBEZOUT_SEED=abc", "verify"], EXIT_USAGE, "invalid int value: 'abc'"),
        (["EQUIBEZOUT_SEED=", "verify"], EXIT_USAGE, "invalid int value: ''"),
        (["EQUIBEZOUT_SEED=abc", "basis", "1", "1", "0"], EXIT_OK, "P1 = z0*cw"),
        # the basis is built without recursion, so p + q is not bounded by
        # the interpreter's recursion limit
        (["basis", "600", "600", "0"], EXIT_OK, "P1199 = z0*cw^600*cxw^599"),
        (["euler", "600", "600", "O(1)"], EXIT_OK, "product_equals_closed=ok"),
        # argparse's own usage errors are one line as well
        (["euler"], EXIT_USAGE, "required: p, q, bundles"),
        (["basis", "1", "1"], EXIT_USAGE, "required: m"),
        # a reversed range is refused, never drawn as an empty chart
        (["chart", "5..-5"], EXIT_USAGE, "empty range '5..-5'"),
        (["chart", "0..2", "--brange", "3..1", "--json"], EXIT_USAGE, "empty range '3..1'"),
        # a "+" inside the parentheses stays in its term
        (["euler", "3", "3", "O(+1)"], EXIT_USAGE, "bad bundle term 'O(+1)' in 'O(+1)'"),
        # a second "--" as the last positional's only word: argparse 3.11
        # leaves the positional an empty list, later versions pass "--" on
        (["basis", "2", "3", "--", "--"], EXIT_USAGE, "error:"),
        (["euler", "2", "2", "--", "--"], EXIT_USAGE, "error:"),
        (["compare", "2", "2", "O(1)", "--", "--"], EXIT_USAGE, "error:"),
    ],
)
def test_degenerate_inputs_exit_cleanly(argv, code, message):
    # leading NAME=value words set environment variables, as in a shell
    n = next(i for i, arg in enumerate(argv) if "=" not in arg)
    env = dict(os.environ, **dict(arg.split("=", 1) for arg in argv[:n]))
    proc = subprocess.run(
        [sys.executable, "-m", "equibezout.cli", *argv[n:]],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert message in proc.stdout + proc.stderr
    if code == EXIT_USAGE:
        assert proc.stderr.count("error:") == 1
        assert len(proc.stderr.splitlines()) == 1


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "3", "3", "10000000000*O(1)"],
        ["euler", "3", "3", "O(2) + 10000000000*xO(1)", "--json"],
        ["compare", "3", "3", "O(1)", "10000000000*O(1)"],
        ["compare", "3", "3", "10000000000*O(1)", "O(1)"],
    ],
)
def test_huge_bundle_count_is_never_expanded(argv):
    # more than p + q bundles are outside the context; building them would
    # need about 80 GB, far beyond the 512 MB the child may map
    proc = subprocess.run(
        [sys.executable, "-m", "equibezout.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert proc.returncode == EXIT_CHECK
    assert "Traceback" not in proc.stderr
    message = "n = 10000000001" if "O(2)" in argv[3] else "n = 10000000000"
    assert f"{message} must be < p + q = 6" in proc.stdout + proc.stderr


NINES = "9" * 2200


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "3", "3", f"O({NINES})+O({NINES})"],
        ["euler", "3", "3", f"O({NINES})+O({NINES})", "--json"],
        ["euler", "3", "3", f"O({NINES})+xO({NINES})", "--coeffs", "borel"],
        ["compare", "3", "3", f"O({NINES})+O({NINES})", "O(1)+O(1)"],
        ["compare", "3", "3", "O(1)+O(1)", f"O({NINES})+O({NINES})", "--json"],
    ],
    ids=["euler", "euler-json", "euler-borel", "compare", "compare-json"],
)
def test_degrees_whose_product_cannot_be_printed_are_refused(argv):
    # each degree parses, but their 4,400-digit product is beyond CPython's
    # 4,300-digit limit on str(int): one error line, never a traceback
    proc = subprocess.run([sys.executable, "-m", "equibezout.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "degrees too large" in proc.stderr


def test_degrees_just_inside_the_printing_limit_are_computed():
    # a 4,200-digit degree product prints, as text and in JSON
    nines = "9" * 2100
    proc = subprocess.run(
        [sys.executable, "-m", "equibezout.cli", "euler", "3", "3",
         f"O({nines})+O({nines})", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["degrees"][0] == int(nines) ** 2


@pytest.mark.parametrize(
    "argv",
    [["chart", "0..10000000000"], ["chart", "0..400", "--brange=0..400", "--json"],
     ["chart", "-5..5", "--brange", f"0..{NINES}"]],
)
def test_chart_work_is_bounded_by_a_cell_count(argv):
    # the work of a chart follows its ranges, so a range beyond the cell cap
    # is refused at once instead of drawn (10^10 cells would run out of memory)
    proc = subprocess.run([sys.executable, "-m", "equibezout.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: the chart would have more than 100000 cells; narrow the ranges"]


@pytest.mark.parametrize(
    "argv",
    [["basis", "100000000", "1", "0"], ["basis", "50000", "50001", "0", "--json"],
     # p + q has more digits than str(int) prints, and the message holds none
     ["basis", "9" * 4300, "9" * 4300, "-3"]],
)
def test_basis_work_is_bounded_by_the_listing_cap(argv):
    # a basis lists p + q monomials, so a space beyond the chart's cap is
    # refused before any is built (10^8 of them would run out of memory)
    proc = subprocess.run([sys.executable, "-m", "equibezout.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: the basis would have more than 100000 monomials (p+q); take a smaller space"]


@pytest.mark.parametrize(
    "theory, line",
    [("burnside", "e(F) = (1 + g)*P2 + e^-2*kappa*P3"), ("zconst", "e_Z(F) = 3*P2")],
)
def test_text_euler_over_a_huge_space_reads_only_the_class_terms(theory, line):
    # the text class line comes from the class's own terms; the basis of a
    # degree class of X(10^7, 2) would not fit in the 512 MB the child may map
    proc = subprocess.run(
        [sys.executable, "-m", "equibezout.cli", "euler", "10000000", "2",
         "O(1)+xO(3)", "--coeffs", theory],
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_memory,
    )
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    assert line in proc.stdout.splitlines()


@pytest.mark.parametrize(
    "module, engine, theory, name, key",
    [
        (euler, "euler_closed", "burnside", "product_equals_closed",
         "product_equals_closed"),
        (variants, "z_euler_closed", "zconst", "closed_equals_mapped_product",
         "zconst_closed_equals_mapped_product"),
        (variants, "borel_euler_closed", "borel", "closed_equals_mapped_product",
         "borel_closed_equals_mapped_product"),
    ],
    ids=["burnside", "zconst", "borel"],
)
def test_euler_and_verify_name_a_fault_alike(
    capsys, monkeypatch, module, engine, theory, name, key
):
    original = getattr(module, engine)
    monkeypatch.setattr(module, engine, lambda F: original(F) + original(F))
    code, out, _ = run(capsys, "euler", "2", "2", "O(3)+xO(1)", "--coeffs", theory)
    assert code == EXIT_CHECK
    assert f"{name}=FAIL" in out
    summary = run_verify(seed=5, count=50)
    assert key in summary.failure.failed
    assert key in summary.minimized.failed
