"""Seeded differential test suite over random context-valid bundle sums.

For each instance the two Euler-class computation paths are compared and
every recovery statement of the Bezout theorems is checked, in all three
coefficient theories.  Failures are shrunk greedily (drop summands, then
shrink degrees toward zero, then shrink p and q) to a minimal
counterexample.  All randomness comes from one integer seed, so runs are
reproducible; the checks themselves are deterministic functions of the
instance, which keeps shrinking meaningful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import euler as _euler
from . import variants as _variants
from .grading import euler_grading, recover_ranks
from .hscalar import HElement, e as h_e, in_Ie
from .projmod import ProjSpace, coeff_vector, in_tildeT, mod_mul, raw_monomial
from .variants import ZHElement


@dataclass
class Counterexample:
    p: int
    q: int
    bundles: str
    failed: list[str]

    def __str__(self) -> str:
        return f"X({self.p},{self.q}) with {self.bundles}: failed {', '.join(self.failed)}"


@dataclass
class VerifySummary:
    seed: int
    requested: int
    executed: int
    passed: int
    failure: Counterexample | None = None
    shrunk: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def __str__(self) -> str:
        if self.ok:
            return f"{self.passed}/{self.requested} ok (seed {self.seed})"
        lines = [
            f"{self.passed}/{self.executed} passed before failure (seed {self.seed})",
            f"failing instance: {self.failure}",
        ]
        if self.shrunk is not None:
            lines.append(f"minimized: {self.shrunk}")
        return "\n".join(lines)


def random_bundle_sum(rng: random.Random, pmax=6, qmax=6, dmax=5) -> _euler.BundleSum:
    """One uniformly-drawn context-valid instance (rejection sampling)."""
    while True:
        p = rng.randint(1, pmax)
        q = rng.randint(1, qmax)
        n = rng.randint(1, p + q - 1)
        lines = [
            _euler.LineBundle(rng.random() < 0.5, rng.randint(-dmax, dmax))
            for _ in range(n)
        ]
        F = _euler.BundleSum.make(ProjSpace(p, q), lines)
        if not _euler.context_check(F):
            return F


def check_instance(F: _euler.BundleSum) -> list[str]:
    """Names of the checks this instance fails (empty when all pass)."""
    failed = []

    def check(name: str, condition: bool) -> None:
        if not condition:
            failed.append(name)

    r = _euler.ranks(F)
    dd = _euler.degrees(F)
    n, n0, n1 = r.n_total, r.n_fix0, r.n_fix1
    grading = euler_grading(n, n0, n1)
    prod = _euler.euler_product(F)
    closed = _euler.euler_closed(F)

    check("product_equals_closed", prod == closed)
    check("support_at_most_three", len(prod.terms) <= 3)
    check("coefficients_in_T", in_tildeT(prod))
    check(
        "support_locations",
        all(m.index == n or m.pos[0] == n0 for m in prod.terms),
    )
    check("grading", prod.grading is None or prod.grading == grading)
    check("degrees_recovered", _euler.recover_degrees(prod) == dd)
    check("ranks_recovered", recover_ranks(grading) == r)
    check("coefficient_vector_length", len(coeff_vector(prod, grading.m)) == F.sp.p + F.sp.q)

    # multiplicativity against a deterministic split, with the zero clamp;
    # splitting off a single line bundle keeps one factor divided-free
    if F.n >= 2:
        F1 = _euler.BundleSum.make(F.sp, F.lines[:1])
        F2 = _euler.BundleSum.make(F.sp, F.lines[1:])
        d1, d2 = _euler.degrees(F1), _euler.degrees(F2)
        check(
            "multiplicative_class",
            mod_mul(_euler.euler_product(F1), _euler.euler_product(F2)) == prod,
        )
        check("multiplicative_delta", dd.delta == d1.delta * d2.delta)
        expect0 = 0 if n0 >= F.sp.p else d1.delta0 * d2.delta0
        expect1 = 0 if n1 >= F.sp.q else d1.delta1 * d2.delta1
        check("multiplicative_delta0", dd.delta0 == expect0)
        check("multiplicative_delta1", dd.delta1 == expect1)

    # parity laws by type counts
    counts = {t: 0 for t in ("I", "II", "III", "IV")}
    for L in F.lines:
        counts[_euler.classify_line(L)] += 1
    if counts["II"] > 0:
        check("parity_typeII", dd.delta % 2 == 0 and dd.delta0 % 2 == 0 and dd.delta1 % 2 == 0)
    elif counts["IV"] > 0:
        check(
            "parity_typeIV",
            dd.delta % 2 == 0 and dd.delta0 % 2 == 1 and dd.delta1 % 2 == 1,
        )
    else:
        check(
            "parity_odd",
            dd.delta % 2 == 1
            and (dd.delta0 == 0 or dd.delta0 % 2 == 1)
            and (dd.delta1 == 0 or dd.delta1 % 2 == 1),
        )

    # congruence modulo the ideal generated by I_e
    if dd.delta0 % 2 == 0 and dd.delta1 % 2 == 0:
        diff = prod
    else:
        exponent = 2 * (n - n0 - n1)
        scalar = h_e(exponent) if exponent else HElement.from_int(1)
        diff = prod - raw_monomial(F.sp, 0, 0, n0, n1).scale(scalar)
    check("congruence_mod_Je", all(in_Ie(c) for c in diff.terms.values()))

    # constant-Z functoriality and the mod-2 fixed-point rule
    z_prod = _variants.z_map(prod)
    check("zconst_closed", z_prod == _variants.z_euler_closed(F))
    check("zconst_product", z_prod == _euler.euler_product(F, ZHElement))
    fix0, fix1 = _variants.z_fixed(z_prod)
    exp0 = {n0: 1} if dd.delta0 % 2 and n0 < F.sp.p else {}
    exp1 = {n1: 1} if dd.delta1 % 2 and n1 < F.sp.q else {}
    check(
        "zconst_fixed_parity",
        fix0.as_dict() == exp0 and fix1.as_dict() == exp1,
    )

    # Borel functoriality
    check(
        "borel_closed",
        _variants.borel_map(prod, n1) == _variants.borel_euler_closed(F),
    )
    return failed


def _shrink_candidates(F: _euler.BundleSum):
    lines = F.lines
    sp = F.sp
    if len(lines) >= 2:
        for i in range(len(lines)):
            yield _euler.BundleSum.make(sp, lines[:i] + lines[i + 1 :])
    for i, L in enumerate(lines):
        if L.d != 0:
            closer = L.d - (1 if L.d > 0 else -1)
            yield _euler.BundleSum.make(
                sp, lines[:i] + (_euler.LineBundle(L.twisted, closer),) + lines[i + 1 :]
            )
    if sp.p > 1:
        yield _euler.BundleSum.make(ProjSpace(sp.p - 1, sp.q), lines)
    if sp.q > 1:
        yield _euler.BundleSum.make(ProjSpace(sp.p, sp.q - 1), lines)


def shrink(F: _euler.BundleSum) -> _euler.BundleSum:
    """Greedy minimization preserving failure (and context validity)."""
    current = F
    improved = True
    while improved:
        improved = False
        for cand in _shrink_candidates(current):
            if _euler.context_check(cand):
                continue
            if check_instance(cand):
                current = cand
                improved = True
                break
    return current


def run_verify(seed: int, count: int, pmax=6, qmax=6, dmax=5) -> VerifySummary:
    """Run ``count`` random instances; stop and shrink on the first failure."""
    rng = random.Random(seed)
    executed = 0
    for _ in range(count):
        F = random_bundle_sum(rng, pmax, qmax, dmax)
        executed += 1
        failed = check_instance(F)
        if failed:
            small = shrink(F)
            return VerifySummary(
                seed=seed,
                requested=count,
                executed=executed,
                passed=executed - 1,
                failure=Counterexample(F.sp.p, F.sp.q, str(F), failed),
                shrunk=Counterexample(
                    small.sp.p, small.sp.q, str(small), check_instance(small)
                ),
            )
    return VerifySummary(seed=seed, requested=count, executed=executed, passed=executed)
