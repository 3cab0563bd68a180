"""Command-line front end.

Subcommands::

    basis P Q M            list the basis of one degree class
    euler P Q BUNDLES      Euler class of a bundle sum, with cross-checks
    compare P Q A B        same bundle data in all three theories
    chart RANGE            ASCII picture of the point ring (even columns)
    verify                 seeded random differential suite

Exit codes: 0 success, 1 mathematical check or context failure (or a
reader that closed standard output early), 2 usage/parse error.  ``--json``
switches any command to a JSON object with the stable field set {command,
inputs, ranks, degrees, grading, coefficients, checks, theory, result}.

``main`` reuses one parser per process: ``build_parser`` builds it on its
first call, so a caller that runs many commands in one interpreter (the
tests, the benchmark worker, a script) pays for argparse once.  The
parser holds no per-call state; ``verify`` reads ``EQUIBEZOUT_SEED`` at
each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import euler as _euler
from . import variants as _variants
from .grading import join_signed
from .hscalar import HElement, signed_term
from .parsing import ParseError, parse_bundle_terms, parse_bundles
from .projmod import ProjSpace, basis, coeff_vector
from .verify import run_verify

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2

# a chart draws one cell per grading, a basis and euler's JSON vector one
# entry per basis monomial; a longer listing is no answer, and its work
# would follow the argument values rather than the input's length
MAX_LISTED = 100_000


def format_t_scalar(x) -> str:
    """Scalar text preferring the transfer form for even xi multiples.

    16*xi^2 is printed as 8*tau(i^4); anything else falls back to the
    plain normal form.  Both spellings parse back to the same element.
    """
    if not x.u and x.v > 0 and x.c % 2 == 0:  # an even multiple of xi^v
        return signed_term(x.c // 2, f"tau(i^{2 * x.v})")
    return str(x)


def format_vector(vector) -> str:
    """Coefficient vector as a sum of coeff*P_i terms ("0" when empty)."""
    chunks = []
    for i, coeff in vector:
        if not coeff:
            continue
        text = format_t_scalar(coeff)
        if " + " in text or " - " in text:
            text = f"({text})"
        chunks.append(f"{text}*P{i}")
    return join_signed(chunks)


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _envelope(command: str, inputs: dict, **extra) -> dict:
    """The stable field set; a field the command leaves out is null."""
    fields = ("ranks", "degrees", "grading", "coefficients", "checks", "theory", "result")
    return {"command": command, "inputs": inputs, **dict.fromkeys(fields), **extra}


def cmd_basis(args) -> int:
    try:
        sp = ProjSpace(args.p, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if sp.p + sp.q > MAX_LISTED:
        print(f"error: the basis would have more than {MAX_LISTED} monomials (p+q); "
              "take a smaller space", file=sys.stderr)
        return EXIT_USAGE
    monos = basis(sp, args.m)
    rows = []
    lines = [f"basis of {sp} in degree class m={args.m}:"]
    for mono in monos:
        m, A, B = mono.mclass, *mono.pos
        rows.append(
            {
                "i": mono.index,
                "monomial": str(mono),
                "position": [A, B],
                "grading": str(mono.grading),
            }
        )
        lines.append(
            f"  P{mono.index} = {mono}   position ({A},{B})   grading {mono.grading}"
        )
    payload = _envelope(
        "basis", {"p": args.p, "q": args.q, "m": args.m}, result=rows
    )
    _emit(payload, args.json, lines)
    return EXIT_OK


class _TooManyBundles(ValueError):
    """More than p + q bundles: outside the Bezout context, and never built."""


def _bundle_sum(p: int, q: int, text: str) -> _euler.BundleSum:
    sp = ProjSpace(p, q)
    n = sum(count for _, count in parse_bundle_terms(text))
    if n > p + q:  # a count such as 10^10 would exhaust memory if expanded
        raise _TooManyBundles(f"n = {n} must be < p + q = {p + q}")
    F = _euler.BundleSum.make(sp, parse_bundles(text))
    _require_printable(F)
    return F


def _require_printable(F: _euler.BundleSum) -> None:
    """Refuse degrees whose product the interpreter could not print.

    Every integer the commands print (the degrees, the class coefficients)
    is at most a few times the product of the |d|, a zero counted as 1.
    CPython refuses ``str`` of an integer beyond
    ``sys.get_int_max_str_digits()`` digits, so the bound 8 * prod(|d|)
    must stay below that; the loop stops as soon as it is crossed, so its
    work is bounded by the input too.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound, cap = 8, 10 ** limit
    for L in F.lines:
        bound *= max(abs(L.d), 1)
        if bound >= cap:
            raise ValueError(
                f"degrees too large: their product would print with more than {limit} digits"
            )


def cmd_euler(args) -> int:
    try:
        F = _bundle_sum(args.p, args.q, args.bundles)
        bundles, violations = str(F), _euler.context_check(F)
    except _TooManyBundles as exc:
        bundles, violations = args.bundles, [str(exc)]
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json and args.coeffs != "borel" and args.p + args.q > MAX_LISTED:
        print(f"error: the coefficient vector would have more than {MAX_LISTED} entries "
              "(p+q); take a smaller space or drop --json", file=sys.stderr)
        return EXIT_USAGE
    inputs = {
        "p": args.p,
        "q": args.q,
        "bundles": bundles,
        "coeffs": args.coeffs,
    }
    if violations:
        payload = _envelope(
            "euler", inputs, theory=args.coeffs,
            checks={"context": False}, result={"violations": violations},
        )
        _emit(payload, args.json, ["context violation:"] + [f"  {v}" for v in violations])
        return EXIT_CHECK

    report = _euler.EulerReport(F)
    checks = report.reported(_variants.CHECKS, args.coeffs)
    if args.coeffs == "borel":
        closed = _variants.closed_class(report, "borel")
        vec = [(k, closed.coeff_text(k)) for k in sorted(closed.coeffs)]
        class_lines = [f"e_BH(F) = {closed}"]
    else:
        name, cls = (("e(F)", report.product_class) if args.coeffs == "burnside"
                     else ("e_Z(F)", _variants.closed_class(report, "zconst")))
        # the JSON array has p + q entries by contract, and is null when a
        # term lies outside the degree class (the grading check fails); the
        # text line needs only the class's own terms (P_i is the basis
        # monomial of index i)
        vec = [(mono.index, c) for mono, c in cls.sorted_terms()]
        class_lines = [f"{name} = {format_vector(vec)}", f"{' ' * len(name)} = {cls}"]
        if args.json:
            try:
                vec = coeff_vector(cls, report.grading.m)
            except ValueError:
                vec = None
    suffix = f"   grading: {report.grading}" if args.coeffs == "burnside" else ""
    text = str if args.coeffs == "borel" else format_t_scalar
    vector = None if vec is None else [{"i": i, "scalar": text(c)} for i, c in vec]
    r, dd = report.ranks, report.degrees
    lines = [f"F = {F} over {F.sp}", *class_lines]
    lines.append(
        f"ranks: ({r.n_total}, {r.n_fix0}, {r.n_fix1})   "
        f"degrees: ({dd.delta}, {dd.delta0}, {dd.delta1}){suffix}"
    )
    ok = all(checks.values())
    lines.append("checks: " + "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    payload = _envelope(
        "euler",
        inputs,
        ranks=list(r),
        degrees=list(dd),
        grading=str(report.grading),
        coefficients=vector,
        checks=checks,
        theory=args.coeffs,
    )
    _emit(payload, args.json, lines)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_compare(args) -> int:
    try:
        FA = _bundle_sum(args.p, args.q, args.bundles_a)
        FB = _bundle_sum(args.p, args.q, args.bundles_b)
    except _TooManyBundles as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        flags = _variants.compare(FA, FB)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK
    da, db = _euler.degrees(FA), _euler.degrees(FB)
    lines = [
        f"A = {FA}   degrees ({da.delta}, {da.delta0}, {da.delta1})",
        f"B = {FB}   degrees ({db.delta}, {db.delta0}, {db.delta1})",
    ]
    for theory, equal in flags.items():
        lines.append(f"{theory}: {'equal' if equal else 'differ'}")
    lines.append(f"note: {_variants.COMPARE_NOTE}")
    payload = _envelope(
        "compare",
        {"p": args.p, "q": args.q, "A": str(FA), "B": str(FB)},
        degrees={"A": list(da), "B": list(db)},
        checks=flags,
        result={"note": _variants.COMPARE_NOTE},
    )
    _emit(payload, args.json, lines)
    return EXIT_OK


_RANGE_RE = re.compile(r"^\s*(-?\d+)\.\.(-?\d+)\s*$")


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if not m:
        raise ParseError(f"bad range {text!r}; expected LO..HI")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ParseError(f"empty range {text!r}; expected LO <= HI")
    return lo, hi


def chart_cell(a: int, b: int) -> str:
    """Symbol of the point-ring group in grading a + b*s, read from the
    normal form ``HElement(u, v, c)``: it raises where there is no group
    and reduces c mod 2 where the group is Z/2."""
    marks = {(0, 1): "e", (-2, 2): "x", (2, -2): "t", (0, -1): "k"}
    if (a, b) in marks:
        return marks[(a, b)]
    if a % 2:
        return "."  # odd columns are out of scope
    u, v = a + b, -a // 2  # e^u * xi^v has grading -2v + (u + 2v)*s
    try:
        HElement(u, v, 1)
    except ValueError:
        return "."
    if not (u or v):
        return "#"  # the Burnside ring itself, on 1 and g
    return "*" if HElement(u, v, 2) else "o"


def chart_lines(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> list[str]:
    lines = []
    for b in range(b_hi, b_lo - 1, -1):
        cells = " ".join(chart_cell(a, b) for a in range(a_lo, a_hi + 1))
        lines.append(f"{b:>4} | {cells}")
    lines.append("     " + "-" * (2 * (a_hi - a_lo + 1) + 1))
    labels = "       " + " ".join(
        str(abs(a) % 10) if a % 2 == 0 else " " for a in range(a_lo, a_hi + 1)
    )
    lines.append(labels.rstrip())
    lines.append("legend: # Burnside ring, * Z, o Z/2, . zero")
    lines.append("marks: e at (0,1), x=xi at (-2,2), t=tau(i^-2) at (2,-2), k=e^-1*kappa at (0,-1)")
    return lines


def cmd_chart(args) -> int:
    try:
        a_lo, a_hi = _parse_range(args.range)
        b_lo, b_hi = _parse_range(args.brange) if args.brange else (-8, 8)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if (a_hi - a_lo + 1) * (b_hi - b_lo + 1) > MAX_LISTED:
        print(f"error: the chart would have more than {MAX_LISTED} cells; "
              "narrow the ranges", file=sys.stderr)
        return EXIT_USAGE
    lines = chart_lines(a_lo, a_hi, b_lo, b_hi)
    payload = _envelope(
        "chart",
        {"range": args.range, "brange": args.brange},
        result=lines,
    )
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:  # read at each call: the parser outlives the call
        text = os.environ.get("EQUIBEZOUT_SEED", "1")
        try:
            seed = int(text)
        except ValueError:  # argparse's own message for a bad --seed
            print(f"equibezout verify: error: argument --seed: invalid int value: {text!r}",
                  file=sys.stderr)
            return EXIT_USAGE
    for flag, value, low in (
        ("--count", args.count, 0),
        ("--pmax", args.pmax, 1),
        ("--qmax", args.qmax, 1),
        ("--dmax", args.dmax, 0),
    ):
        if value < low:
            print(f"error: {flag} must be >= {low}, got {value}", file=sys.stderr)
            return EXIT_USAGE
    summary = run_verify(seed, args.count, args.pmax, args.qmax, args.dmax)
    # the two fields that are tuples are Counterexamples: each becomes a dict
    result = {k: v._asdict() if isinstance(v, tuple) else v for k, v in summary._asdict().items()}
    payload = _envelope(
        "verify",
        {
            "seed": seed,
            "count": args.count,
            "pmax": args.pmax,
            "qmax": args.qmax,
            "dmax": args.dmax,
        },
        checks={"suite": summary.ok},
        result=result,
    )
    _emit(payload, args.json, [str(summary)])
    return EXIT_OK if summary.ok else EXIT_CHECK


class _Parser(argparse.ArgumentParser):
    """A usage error is one ``error:`` line on stderr, without the usage
    block; ``add_subparsers`` builds the subcommand parsers with this class."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call."""
    parser = _Parser(
        prog="equibezout",
        description="Equivariant cohomology of projective spaces and Bezout checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="basis of one degree class")
    p_basis.add_argument("p", type=int)
    p_basis.add_argument("q", type=int)
    p_basis.add_argument("m", type=int)
    p_basis.add_argument("--json", action="store_true")
    p_basis.set_defaults(func=cmd_basis)

    p_euler = sub.add_parser("euler", help="Euler class of a sum of line bundles")
    p_euler.add_argument("p", type=int)
    p_euler.add_argument("q", type=int)
    p_euler.add_argument("bundles", help='e.g. "O(3)+xO(1)" or "4*xO(2)"')
    p_euler.add_argument(
        "--coeffs",
        choices=("burnside", "zconst", "borel"),
        default="burnside",
    )
    p_euler.add_argument("--json", action="store_true")
    p_euler.set_defaults(func=cmd_euler)

    p_cmp = sub.add_parser("compare", help="compare two bundle sums in all theories")
    p_cmp.add_argument("p", type=int)
    p_cmp.add_argument("q", type=int)
    p_cmp.add_argument("bundles_a")
    p_cmp.add_argument("bundles_b")
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=cmd_compare)

    p_chart = sub.add_parser("chart", help="ASCII chart of the point ring")
    p_chart.add_argument("range", help="a-range, e.g. -8..8")
    p_chart.add_argument("--brange", help="b-range (default -8..8)")
    p_chart.add_argument("--json", action="store_true")
    p_chart.set_defaults(func=cmd_chart)

    p_verify = sub.add_parser("verify", help="randomized differential suite")
    p_verify.add_argument("--seed", type=int)  # cmd_verify reads the default
    p_verify.add_argument("--count", type=int, default=1000)
    p_verify.add_argument("--pmax", type=int, default=6)
    p_verify.add_argument("--qmax", type=int, default=6)
    p_verify.add_argument("--dmax", type=int, default=5)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _join_ranges(argv: list[str]) -> list[str]:
    """Let argparse read the negative ranges of ``chart``, which it would
    take for options: ``--brange LO..HI`` becomes ``--brange=LO..HI`` (any
    abbreviation of ``--brange`` down to ``--b`` is joined the same way, as
    argparse accepts it), and a bare negative range such as ``-8..8`` moves
    behind a ``--``.  Nothing after a bare ``--`` is touched."""
    out: list[str] = []
    bare: list[str] = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + ["--"] + bare + argv[i + 1:]
        prev = out[-1] if out else ""
        if len(prev) > 2 and "--brange".startswith(prev) and _RANGE_RE.match(arg):
            out[-1] = f"{prev}={arg}"
        elif arg.startswith("-") and _RANGE_RE.match(arg):
            bare.append(arg)
        else:
            out.append(arg)
    return out + ["--"] + bare if bare else out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_ranges(sys.argv[1:] if argv is None else argv))
        if [] in vars(args).values():
            # CPython 3.11's argparse fills the last positional with [] when
            # its only word is a second "--"
            parser.error("a second '--' is not an argument value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``... | head``): send the rest of
        # the output to devnull so that the flush at exit cannot raise again,
        # as the Python ``signal`` docs recommend
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK
    return code


if __name__ == "__main__":
    sys.exit(main())
