"""Request lists, reference answers and request execution for the benchmark.

Three workloads, each a deterministic list of requests built from one seed:

* ``verify_small``: ``verify --seed S --count K --json`` through the CLI, at
  the default instance sizes (p, q <= 6, |d| <= 5).
* ``euler_large``: ``euler`` (three coefficient theories) and ``compare``
  through the CLI, each on its own large X(p, q) with p, q in [40, 120].
* ``expr_roundtrip``: ``parse_module_element`` -> ``str`` -> parse again,
  through the library API, over p, q in [4, 24].

Generation and the reference answers use only the standard library: the
ranks, degrees and nonequivariant restrictions that outputs are checked
against are computed here, not by the package under test.  Importing this
module does not import the package; ``execute`` imports it on first use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("verify_small", "euler_large", "expr_roundtrip")

# instances per verify request, as in the documented end-to-end use
# (``verify --seed 1 --count 200``); one request takes one to two seconds,
# so a 30 s run collects about twenty request latencies
VERIFY_COUNT = 200
# the recorded digest covers this many requests from the start of the list
DIGEST_LENGTH = 256


@dataclass(frozen=True)
class Request:
    """One request: what to send, and the reference the output must match.

    ``kind`` is the CLI subcommand (or ``roundtrip``); ``payload`` is the
    argv list for CLI requests and ``(p, q, text)`` for round trips;
    ``expect`` is the benchmark's own reference; ``size`` is the (p, q, n)
    triple reported in the input-property histogram (n is the bundle
    count, or the number of generator factors for a round trip).
    """

    kind: str
    payload: tuple
    expect: tuple
    size: tuple
    instances: int = 1

    def canonical(self) -> str:
        return json.dumps([self.kind, list(self.payload), list(self.expect)])


# ---------------------------------------------------------------------------
# references, independent of the package


def line_type(twisted: bool, d: int) -> str:
    """Type I-IV of O(d) / xO(d) by twist and parity of d."""
    if not twisted:
        return "II" if d % 2 == 0 else "I"
    return "IV" if d % 2 == 0 else "III"


def ref_ranks(lines) -> tuple[int, int, int]:
    """(n, n0, n1): types I, II lie over the first fixed component, II, III
    over the second."""
    types = [line_type(tw, d) for tw, d in lines]
    n0 = sum(t in ("I", "II") for t in types)
    n1 = sum(t in ("II", "III") for t in types)
    return (len(types), n0, n1)


def ref_degrees(p: int, q: int, lines) -> tuple[int, int, int]:
    """(Delta, Delta0, Delta1), clamping Delta0 at n0 >= p, Delta1 at n1 >= q."""
    delta = d0 = d1 = 1
    for tw, d in lines:
        t = line_type(tw, d)
        delta *= d
        if t in ("I", "II"):
            d0 *= d
        if t in ("II", "III"):
            d1 *= d
    _, n0, n1 = ref_ranks(lines)
    return (delta, 0 if n0 >= p else d0, 0 if n1 >= q else d1)


def ref_context_ok(p: int, q: int, n: int, n0: int, n1: int) -> bool:
    """The Bezout context inequalities on the ranks."""
    return n < p + q and n - q <= n0 <= n and n - p <= n1 <= n


def bundle_text(lines, rng: random.Random) -> str:
    """Bundle list text; about half the lists use the ``k*xO(d)`` count form."""
    atoms = [f"{'xO' if tw else 'O'}({d})" for tw, d in lines]
    if rng.random() < 0.5:
        rng.shuffle(atoms)
        return "+".join(atoms)
    counts = Counter(atoms)
    return "+".join(f"{k}*{atom}" if k > 1 else atom for atom, k in counts.items())


# ---------------------------------------------------------------------------
# generators


def _verify_request(rng: random.Random) -> Request:
    s = rng.randrange(2**31)
    argv = ("verify", "--seed", str(s), "--count", str(VERIFY_COUNT), "--json")
    return Request("verify", argv, (VERIFY_COUNT,), (), VERIFY_COUNT)


def _large_lines(rng: random.Random, p: int, q: int, n: int) -> list[tuple[bool, int]]:
    """Context-valid bundle list with n summands over X(p, q), by rejection
    on the fixed ranks (n0, n1), then a uniform split into the four types."""
    while True:
        n0 = rng.randint(0, n)
        n1 = rng.randint(0, n)
        if ref_context_ok(p, q, n, n0, n1):
            break
    k2 = rng.randint(max(0, n0 + n1 - n), min(n0, n1))
    counts = {"I": n0 - k2, "II": k2, "III": n1 - k2, "IV": n - n0 - n1 + k2}
    odd = [d for d in range(-9, 10) if d % 2]
    even = [d for d in range(-8, 9) if d and d % 2 == 0]
    lines = []
    for t, c in counts.items():
        twisted = t in ("III", "IV")
        pool = odd if t in ("I", "III") else even
        lines.extend((twisted, rng.choice(pool)) for _ in range(c))
    rng.shuffle(lines)
    return lines


def _strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """One uniform draw from each of k equal slices of [lo, hi], shuffled."""
    width = (hi - lo + 1) / k
    out = [lo + int(width * j + rng.random() * width) for j in range(k)]
    rng.shuffle(out)
    return out


# one block of euler_large: two requests of each kind, with p, q and the
# share n/(p+q) stratified over the block so that the work per block, and
# so per run, varies little from seed to seed
EULER_BLOCK = ("compare", "compare", "burnside", "burnside", "zconst", "zconst",
               "borel", "borel")


def _euler_block(rng: random.Random) -> list[Request]:
    k = len(EULER_BLOCK)
    ps, qs = _strata(rng, 40, 120, k), _strata(rng, 40, 120, k)
    shares = _strata(rng, 0, 999, k)
    # each kind once with --json and once as text
    kinds = [(kind, j % 2 == 0) for j, kind in enumerate(EULER_BLOCK)]
    rng.shuffle(kinds)
    return [
        _euler_request(rng, kind, p, q, share / 1000, json_out)
        for (kind, json_out), p, q, share in zip(kinds, ps, qs, shares)
    ]


def _euler_request(rng: random.Random, kind: str, p: int, q: int, share: float,
                   json_out: bool) -> Request:
    lo, hi = (p + q) // 2, p + q - 1
    n = lo + int(share * (hi - lo + 1))
    lines = _large_lines(rng, p, q, n)
    text = bundle_text(lines, rng)
    degrees = ref_degrees(p, q, lines)
    if kind == "compare":
        # B flips the sign of two summands: equal Burnside classes exactly
        # when the degree triples agree (ranks always agree)
        flip = set(rng.sample(range(n), 2))
        other = [(tw, -d if i in flip else d) for i, (tw, d) in enumerate(lines)]
        argv = ("compare", str(p), str(q), text, bundle_text(other, rng))
        expect = (degrees, ref_degrees(p, q, other))
    else:
        argv = ("euler", str(p), str(q), text, "--coeffs", kind)
        expect = (ref_ranks(lines), degrees)
    if json_out:
        argv += ("--json",)
    return Request(argv[0], argv, expect, (p, q, n))


def _monomial_text(rng: random.Random, p: int, q: int) -> tuple[str, dict, int]:
    k = rng.randint(1, 9)
    xi = rng.randint(0, 300)
    s, t = rng.randint(0, p), rng.randint(0, q)
    a, b = rng.randint(0, p), rng.randint(0, q)
    parts = [str(k)]
    for name, exp in (("xi", xi), ("z0", s), ("z1", t), ("cw", a), ("cxw", b)):
        if exp:
            parts.append(f"{name}^{exp}")
    return "*".join(parts), {a + b: k}, s + t + a + b


def _divided_text(rng: random.Random, p: int, q: int) -> tuple[str, dict, int]:
    k = rng.randint(1, 9)
    s = rng.randint(1, p)
    b = rng.randint(0, q - 1)
    text = f"{k}*z0^-{s}*cw^{p}*cxw^{b}" if b else f"{k}*z0^-{s}*cw^{p}"
    return text, {p + b: k}, b


def _power_text(rng: random.Random, p: int, q: int) -> tuple[str, dict, int]:
    k = rng.randint(1, min(p + q, 12))
    # rho(e^2 + g*z0*cw) = 2c
    return f"(e^2 + g*z0*cw)^{k}", {k: 2**k}, k


ROUNDTRIP_BLOCK = (_monomial_text, _monomial_text, _divided_text, _power_text)


def _roundtrip_block(rng: random.Random) -> list[Request]:
    makers = list(ROUNDTRIP_BLOCK)
    rng.shuffle(makers)
    out = []
    for make in makers:
        p, q = rng.randint(4, 24), rng.randint(4, 24)
        text, rho, n = make(rng, p, q)
        rho = tuple(sorted((i, c) for i, c in rho.items() if i < p + q))
        out.append(Request("roundtrip", (p, q, text), rho, (p, q, n)))
    return out


_BLOCKS = {
    "verify_small": lambda rng: [_verify_request(rng)],
    "euler_large": _euler_block,
    "expr_roundtrip": _roundtrip_block,
}


def iter_requests(workload: str, seed: int):
    """The workload's endless request list for ``seed`` (same seed, same
    list), generated a block at a time so that it costs no memory."""
    rng = random.Random(f"{workload}:{seed}")
    make = _BLOCKS[workload]
    while True:
        yield from make(rng)


def make_requests(workload: str, seed: int, length: int = DIGEST_LENGTH) -> list[Request]:
    return list(itertools.islice(iter_requests(workload, seed), length))


def digest(requests) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update(req.canonical().encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# execution through the public entry points, and checking


def execute(req: Request):
    """Run one request and return its raw output (timed by the caller)."""
    if req.kind == "roundtrip":
        from equibezout.parsing import parse_module_element
        from equibezout.projmod import ProjSpace

        p, q, text = req.payload
        sp = ProjSpace(p, q)
        first = parse_module_element(text, sp)
        printed = str(first)
        return first, printed, parse_module_element(printed, sp)
    from equibezout.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(req.payload))
    return code, buf.getvalue()


_TEXT_RE = re.compile(
    r"ranks: \((-?\d+), (-?\d+), (-?\d+)\)\s+degrees: \((-?\d+), (-?\d+), (-?\d+)\)"
)


_COMPARE_RE = re.compile(r"^([AB]) = .*   degrees \((-?\d+), (-?\d+), (-?\d+)\)$", re.M)
_FLAG_RE = re.compile(r"^(burnside|zconst|borel): (equal|differ)$", re.M)


def _euler_text_fields(out: str):
    m = _TEXT_RE.search(out)
    checks = re.search(r"^checks: (.*)$", out, re.M)
    if not m or not checks:
        return None
    nums = [int(x) for x in m.groups()]
    flags = [part.rsplit("=", 1)[1] == "ok" for part in checks.group(1).split("; ")]
    return tuple(nums[:3]), tuple(nums[3:]), dict(enumerate(flags))


def _compare_text_fields(out: str):
    degrees = {m[0]: [int(x) for x in m[1:]] for m in _COMPARE_RE.findall(out)}
    flags = {name: word == "equal" for name, word in _FLAG_RE.findall(out)}
    if set(degrees) != {"A", "B"} or set(flags) != {"burnside", "zconst", "borel"}:
        return None
    return None, degrees, flags


def check(req: Request, result) -> str | None:
    """None when ``result`` matches the reference, else a one-line reason."""
    if req.kind == "roundtrip":
        from equibezout.projmod import mod_rho

        first, printed, again = result
        rho = tuple(sorted(mod_rho(first).as_dict().items()))
        if rho != req.expect:
            return f"rho {rho} != {req.expect} for {req.payload[2]!r}"
        if again != first:
            return f"reparse of {printed!r} differs"
        return None
    code, out = result
    if code != 0:
        return f"exit {code}"
    if req.kind != "verify" and "--json" not in req.payload:
        text_fields = _euler_text_fields if req.kind == "euler" else _compare_text_fields
        fields = text_fields(out)
        if fields is None:
            return "unparsable text output"
        ranks, degrees, checks = fields
    else:
        doc = json.loads(out)
        ranks, degrees, checks = doc["ranks"], doc["degrees"], doc["checks"]
    if req.kind == "verify":
        res = doc["result"]
        (count,) = req.expect
        if not (res["passed"] == res["executed"] == count and checks["suite"]):
            return f"verify passed {res['passed']}/{res['executed']} of {count}"
        return None
    if req.kind == "euler":
        if tuple(ranks) != req.expect[0] or tuple(degrees) != req.expect[1]:
            return f"ranks/degrees {ranks}/{degrees} != {req.expect}"
        if not all(checks.values()):
            return f"failed checks {checks}"
        return None
    # compare: the Burnside class is determined by ranks and degrees, and
    # equality can only be lost by passing to a coarser theory
    da, db = req.expect
    if tuple(degrees["A"]) != da or tuple(degrees["B"]) != db:
        return f"degrees {degrees} != {req.expect}"
    if checks["burnside"] != (da == db):
        return f"burnside flag {checks['burnside']} with degrees {da} vs {db}"
    if checks["burnside"] > checks["zconst"] or checks["zconst"] > checks["borel"]:
        return f"flags not monotone: {checks}"
    return None
