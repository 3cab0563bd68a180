"""Seeded differential test suite over random context-valid bundle sums.

For each instance every row of the one check table (``variants.CHECKS``)
is evaluated on one ``EulerReport``: the two Euler-class paths agree and
every recovery statement of the Bezout theorems holds, in all three
coefficient theories.  Failures are shrunk greedily (drop summands, then
shrink degrees toward zero, then shrink p and q) to a minimal
counterexample.  All randomness comes from one integer seed, so runs are
reproducible; the checks themselves are deterministic functions of the
instance, which keeps shrinking meaningful.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from . import euler as _euler
from . import variants as _variants
# mod_mul is not called here; bench/test_bench.py checks that the tracer
# rebinds every module's copy of it, this one included
from .projmod import ProjSpace, mod_mul  # noqa: F401


class Counterexample(NamedTuple):
    p: int
    q: int
    bundles: str
    failed: list[str]

    def __str__(self) -> str:
        return f"X({self.p},{self.q}) with {self.bundles}: failed {', '.join(self.failed)}"


class VerifySummary(NamedTuple):
    seed: int
    requested: int
    executed: int
    passed: int
    failure: Counterexample | None = None
    minimized: Counterexample | None = None

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
        if self.minimized is not None:
            lines.append(f"minimized: {self.minimized}")
        return "\n".join(lines)


def random_bundle_sum(rng: random.Random, pmax: int, qmax: int, dmax: int) -> _euler.BundleSum:
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
    """Keys of the checks this instance fails (empty when all pass), in
    table order: every row of ``variants.CHECKS``, each evaluated once on
    the report of ``bezout_report``."""
    results = _euler.bezout_report(F).evaluate(_variants.CHECKS)
    return [check.key for check, ok in results.items() if not ok]


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
                minimized=Counterexample(
                    small.sp.p, small.sp.q, str(small), check_instance(small)
                ),
            )
    return VerifySummary(seed=seed, requested=count, executed=executed, passed=executed)
