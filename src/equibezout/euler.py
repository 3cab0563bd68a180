"""Euler classes of sums of equivariant line bundles and degree recovery.

Line bundles over X(p, q) are the powers O(d) of the dual tautological
bundle and their twists xO(d) by the sign representation.  Parity and
twist split them into four types; the type counts give the equivariant
rank triple (n, n0, n1) and the degree products give the degree triple
(Delta, Delta0, Delta1), with a fixed degree clamped to 0 once the fixed
rank reaches the dimension of the corresponding fixed component.  A
``BundleSum`` classifies itself once and keeps its types, ranks and degrees.

The Euler class of a sum is computed two independent ways:

* ``euler_product`` multiplies the single-bundle classes through the
  rewrite engine;
* ``euler_closed`` evaluates the closed three-term formula, whose basis
  carriers and coefficients depend only on the ranks and degrees.  It and
  the closed forms of ``variants`` enforce the Bezout context through one
  gate, ``require_context``, which raises ValueError outside it.

Each statement of the Bezout theorems is one named ``Check`` in a single
table, whose Burnside rows (``BURNSIDE_CHECKS``) live here and which
``variants.CHECKS`` completes.  A check is a predicate over an
``EulerReport``, which computes each class it is asked for once; a row
that raises has failed.  ``euler`` prints the reported rows of its theory,
and ``verify`` evaluates every row on one report.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from math import prod

from . import hscalar
from .grading import RankTriple, euler_grading, recover_ranks
from .hscalar import HElement, e_power_kappa, in_Ie, tau_iota
from .projmod import (
    BasisMonomial,
    ModuleElement,
    ProjSpace,
    _mul_into,
    apply_gen,
    coeff_vector,
    in_tildeT,
    mod_fixed,
    mod_mul,
    mod_rho,
    raw_monomial,
)

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
TYPE_IV = "IV"


class EulerInternalError(ArithmeticError):
    """A closed-form term failed the divisibility-or-vanishing rule."""


@dataclass(frozen=True)
class LineBundle:
    """O(d) (twisted=False) or xO(d) (twisted=True)."""

    twisted: bool
    d: int

    def __str__(self) -> str:
        return f"{'xO' if self.twisted else 'O'}({self.d})"


def O(d: int) -> LineBundle:
    return LineBundle(False, d)


def xO(d: int) -> LineBundle:
    return LineBundle(True, d)


def classify_line(L: LineBundle) -> str:
    """Type I-IV by twist and parity of the degree."""
    if not L.twisted:
        return TYPE_II if L.d % 2 == 0 else TYPE_I
    return TYPE_IV if L.d % 2 == 0 else TYPE_III


@dataclass(frozen=True)
class DegreeTriple:
    delta: int
    delta0: int
    delta1: int

    def __iter__(self):
        return iter((self.delta, self.delta0, self.delta1))


@dataclass(frozen=True)
class BundleSum:
    """A multiset of line bundles over a fixed X(p, q)."""

    sp: ProjSpace
    lines: tuple[LineBundle, ...]

    @classmethod
    def make(cls, sp: ProjSpace, lines) -> "BundleSum":
        return cls(sp, tuple(sorted(lines, key=lambda L: (L.twisted, L.d))))

    @property
    def n(self) -> int:
        return len(self.lines)

    @cached_property
    def classified(self) -> tuple[frozenset[str], RankTriple, DegreeTriple]:
        """(types present, ranks, degrees) from one ``classify_line`` per
        line, kept: type I/II lines span the fixed part over the first
        component, II/III over the second, and a fixed degree clamps to 0 at
        n0 >= p resp. n1 >= q."""
        types = [classify_line(L) for L in self.lines]
        fix0 = [L.d for L, t in zip(self.lines, types) if t in (TYPE_I, TYPE_II)]
        fix1 = [L.d for L, t in zip(self.lines, types) if t in (TYPE_II, TYPE_III)]
        return (
            frozenset(types), RankTriple(self.n, len(fix0), len(fix1)),
            DegreeTriple(prod(L.d for L in self.lines),
                         prod(fix0) if len(fix0) < self.sp.p else 0,
                         prod(fix1) if len(fix1) < self.sp.q else 0))

    def __str__(self) -> str:
        if not self.lines:
            return "0"
        return " + ".join(str(L) for L in self.lines)


def ranks(F: BundleSum) -> RankTriple:
    """Complex ranks (n, n0, n1)."""
    return F.classified[1]


def degrees(F: BundleSum) -> DegreeTriple:
    """Degree triple (Delta, Delta0, Delta1), fixed degrees clamped."""
    return F.classified[2]


def context_check(F: BundleSum) -> list[str]:
    """Violations of the Bezout context inequalities (empty when valid)."""
    (n, n0, n1), p, q = ranks(F), F.sp.p, F.sp.q
    out = []
    if p < 1 or q < 1:
        out.append(f"p = {p}, q = {q} must satisfy p, q >= 1")
    if not n < p + q:
        out.append(f"n = {n} must be < p + q = {p + q}")
    if not n - q <= n0 <= n:
        out.append(f"n0 = {n0} must satisfy {n - q} <= n0 <= {n}")
    if not n - p <= n1 <= n:
        out.append(f"n1 = {n1} must satisfy {n - p} <= n1 <= {n}")
    return out


def require_context(F: BundleSum) -> None:
    """The gate of every closed form: ValueError listing the violations
    when F is outside the Bezout context."""
    violations = context_check(F)
    if violations:
        raise ValueError("; ".join(violations))


def euler_line(L: LineBundle, sp: ProjSpace, ring=HElement) -> ModuleElement:
    """Euler class of a single line bundle, written in the basis directly.

    With h = d // 2 the half-degree, g = tau(1) and e^-2*kappa the kappa
    class in degree -2s, the four types have at most two basis terms:

        e(O(2h+1))  = (2h+1)*cw - h*e^-2*kappa*z0*cw^2      (p >= 2)
                    = (1 + h*g)*cw                           (p = 1)
        e(O(2h))    = h*tau(i^-2)*z0*cw + h*e^-2*kappa*cw*cxw
                      (no cw*cxw term when p = q = 1, where it is 0)
        e(xO(2h+1)) = (1 + h*g)*cxw + h*e^-2*kappa*z0*cw*cxw
                      (no z0*cw*cxw term when q = 1)
        e(xO(2h))   = e^2 + h*g*z0*cw

    For p >= 2 the O(2h+1) form is the normal form of the defining formula
    cw + h*(g*cw + e^-2*kappa*z1*cw*cxw), by z1*cxw = (g - 1)*z0*cw + e^2
    with g*e^-2*kappa = 0 and e^2*e^-2*kappa = kappa = 2 - g.  At p = 1 the
    carrier z1*cw*cxw is xi*z0^-1*cw*cxw (0 when also q = 1), and at q = 1
    the carrier z0*cw*cxw of xO(2h+1) is xi*z1^-1*cw*cxw; e^-2*kappa*xi = 0
    kills both.  Each coefficient is written as its point-ring fields
    (u, v, c, g) and put into ``ring``'s normal form by ``ring(u, v, c, g)``,
    so the constant-Z classes fold g to 2 there; zero coefficients (h = 0,
    or e^-m*kappa in constant Z) drop out.

    >>> print(euler_line(O(5), ProjSpace(2, 1)))
    5*cw - 2*e^-2*kappa*z0*cw^2
    """
    p, q = sp.p, sp.q
    if p < 1 or q < 1:
        raise ValueError(f"line-bundle Euler classes need p, q >= 1, got {sp}")
    h, odd = divmod(L.d, 2)
    if not L.twisted and odd:  # O(2h+1)
        if p == 1:
            terms = {(0, 0, 1, 0): (0, 0, 1, h)}
        else:
            terms = {(0, 0, 1, 0): (0, 0, 2 * h + 1, 0), (1, 0, 2, 0): (-2, 0, -h, 0)}
    elif not L.twisted:  # O(2h)
        terms = {(1, 0, 1, 0): (0, -1, h, 0)}  # tau(i^-2)
        if (p, q) != (1, 1):
            terms[0, 0, 1, 1] = (-2, 0, h, 0)  # e^-2*kappa
    elif odd:  # xO(2h+1)
        terms = {(0, 0, 0, 1): (0, 0, 1, h)}
        if q > 1:
            terms[1, 0, 1, 1] = (-2, 0, h, 0)
    else:  # xO(2h)
        terms = {(0, 0, 0, 0): (2, 0, 1, 0), (1, 0, 1, 0): (0, 0, 0, h)}
    return ModuleElement._trusted(
        sp, {BasisMonomial(sp, *mono): ring(*c) for mono, c in terms.items()}, ring)


def euler_product(F: BundleSum, ring=HElement) -> ModuleElement:
    """Euler class as the product of the single-bundle classes.

    A line class has at most two monomials, each of degree at most 3, so it
    is one rewrite step per monomial: a tuple of ``(step, coeff)`` pairs,
    built once per distinct line class in a call.  The running product is
    one plain dict across all the lines.  For each line,
    ``projmod._mul_into`` takes every term of it times every pair to normal
    form in one ``gen_mul`` and adds the images into the next dict, and the
    result is wrapped as a ``ModuleElement`` once, at the end.  Neither the line
    classes nor the generator steps are kept across calls, because a cache
    that outlives the call costs more memory than it saves time: memoising
    every step by (generator, monomial, ring) raised the peak RSS of
    ``bench/run.py``'s ``euler_large`` workload from 21.4 to 60.3 MB, with
    slower requests, and that of ``verify_small`` by 2.2 MB, more than the
    benchmark's 10 % bound on memory.
    """
    factors = {
        L: tuple((mono[2:], c) for mono, c in euler_line(L, F.sp, ring).terms.items())
        for L in set(F.lines)
    }
    terms = ModuleElement.unit(F.sp, ring).terms
    for L in F.lines:
        out: dict = {}
        _mul_into(terms, factors[L], ring, out)
        terms = out
    return ModuleElement._trusted(F.sp, terms, ring)


@dataclass(frozen=True)
class ClosedCarriers:
    """Raw basis carriers of the closed formula and the diagonal scalar.

    The carrier monomials are (s, t, a, b) exponent tuples; they are fed
    through the rewrite engine before use because at the edges of the
    rank range they may reduce further or vanish.
    """

    pn: tuple[int, int, int, int]
    tau_n: HElement
    pk: tuple[int, int, int, int]
    pkm1: tuple[int, int, int, int]


def closed_carriers(F: BundleSum) -> ClosedCarriers:
    p, q = F.sp.p, F.sp.q
    n, n0, n1 = ranks(F)
    eps = (n + n0 + n1) % 2

    if n + n0 - n1 > 2 * p:
        pn = (-(n + n0 - n1 - 2 * p), 0, p, n - p)
        tau_n = tau_iota(n - n1 - p)
    elif n - n0 + n1 > 2 * q:
        pn = (0, -(n - n0 + n1 - 2 * q), n - q, q)
        tau_n = tau_iota(n - n0 - q)
    else:
        pn = (eps, 0, (n + n0 - n1 + eps) // 2, (n - n0 + n1 - eps) // 2)
        tau_n = tau_iota((n - n0 - n1 - eps) // 2)

    pk = (1, 0, n0 + 1, n1) if n0 < p else (-(n0 - p), 0, p, n1)
    pkm1 = (0, 0, n0, n1) if n1 < q else (0, -(n1 - q), n0, q)
    return ClosedCarriers(pn, tau_n, pk, pkm1)


def _closed_terms(F: BundleSum):
    """The (numerator, scalar, raw monomial) closed-form terms: three, and
    two when Delta is odd and Delta0 = 0 (no P_k term).

    Each term means numerator * scalar * monomial / 2; the division is
    performed after normalization of the carrier and must come out exact
    (or the carrier must vanish).
    """
    (n, n0, n1), dd = ranks(F), degrees(F)
    car = closed_carriers(F)

    nb0 = min(n0, F.sp.p - 1)
    nb1 = min(n1, F.sp.q)
    if dd.delta % 2 == 0:
        return [
            (dd.delta, car.tau_n, car.pn),
            (dd.delta1 - dd.delta0, e_power_kappa(2 * (n - nb0 - nb1 - 1)), car.pk),
            (dd.delta0, e_power_kappa(2 * (n - nb0 - nb1)), car.pkm1),
        ]
    if dd.delta0 != 0:
        return [
            (dd.delta - dd.delta0, tau_iota(0), car.pn),
            (dd.delta1 - dd.delta0, e_power_kappa(-2), car.pk),
            (2 * dd.delta0, HElement.from_int(1), car.pkm1),
        ]
    return [
        (dd.delta - dd.delta1, tau_iota(0), car.pn),
        (2 * dd.delta1, HElement.from_int(1), car.pkm1),
    ]


def euler_closed(F: BundleSum) -> ModuleElement:
    """Euler class by the closed three-term formula (context enforced)."""
    require_context(F)
    total = ModuleElement.zero(F.sp)
    for numerator, scalar, raw in _closed_terms(F):
        if numerator == 0:
            continue
        carrier = raw_monomial(F.sp, *raw).scale(scalar)
        if not carrier:
            continue
        doubled = carrier.scale(numerator)
        try:
            total = total + doubled.divide_by_two()
        except ArithmeticError as exc:
            raise EulerInternalError(
                f"closed-form term {numerator}/2 * {scalar} * {raw} on {F} "
                f"is not 2-divisible: {doubled}"
            ) from exc
    return total


def recover_degrees(x: ModuleElement) -> DegreeTriple:
    """Read the degree triple back off a class via its two restrictions."""
    grading = x.grading
    if grading is not None and (grading.a % 2 or grading.b % 2):
        raise ValueError(f"not in an Euler-type grading: {grading}")
    rho = mod_rho(x)
    fix0, fix1 = mod_fixed(x)

    def single(poly) -> int:
        entries = poly.as_dict()
        if not entries:
            return 0
        if len(entries) > 1:
            raise ValueError(f"restriction is not a single power of c: {poly}")
        return next(iter(entries.values()))

    return DegreeTriple(single(rho), single(fix0), single(fix1))


@dataclass(frozen=True)
class Check:
    """A named statement of the Bezout theorems: ``holds(report)`` is a bool,
    or None where it does not apply.  ``euler --coeffs <theory>`` prints the
    ``reported`` rows of its theory by ``name``; ``verify`` uses ``key``."""

    theory: str
    name: str
    reported: bool
    holds: Callable[[EulerReport], bool | None]

    @property
    def key(self) -> str:
        return self.name if self.theory == "burnside" else f"{self.theory}_{self.name}"


class EulerReport:
    """A bundle sum and the classes its checks compare.  Each class is
    computed on first use and kept, so all checks share one product and one
    split; ``checks`` is what ``bezout_report`` found."""

    def __init__(self, F: BundleSum):
        self.F = F
        _, self.ranks, self.degrees = F.classified
        self.grading = euler_grading(*self.ranks)
        self.checks: dict[str, bool] = {}
        self._kept: dict = {}

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @cached_property
    def product_class(self) -> ModuleElement:
        return euler_product(self.F)

    @cached_property
    def coefficients(self) -> list:
        return coeff_vector(self.product_class, self.grading.m)

    @cached_property
    def split(self) -> tuple[BundleSum, BundleSum] | None:
        """F with its first summand split off (a line bundle is never
        divided, so the factors multiply); None for a single summand."""
        if self.F.n < 2:
            return None
        sp, lines = self.F.sp, self.F.lines
        return BundleSum.make(sp, lines[:1]), BundleSum.make(sp, lines[1:])

    def kept(self, compute):
        """``compute(self)``, evaluated once per report and function object."""
        if compute not in self._kept:
            self._kept[compute] = compute(self)
        return self._kept[compute]

    def evaluate(self, checks) -> dict[Check, bool]:
        """Results of the ``checks`` that apply to F, each evaluated once; a
        check that raises ValueError or ArithmeticError has failed."""
        results = {}
        for check in checks:
            try:
                ok = self.kept(check.holds)
            except (ValueError, ArithmeticError):
                ok = False
            if ok is not None:
                results[check] = ok
        return results

    def reported(self, checks, theory: str) -> dict[str, bool]:
        """What ``euler --coeffs theory`` prints, by check name."""
        chosen = [c for c in checks if c.theory == theory and c.reported]
        return {check.name: ok for check, ok in self.evaluate(chosen).items()}


def _split_degrees(r: EulerReport) -> tuple[int, int, int]:
    """The degree triple multiplied out over the split, zero-clamped."""
    (a, a0, a1), (b, b0, b1) = map(degrees, r.split)
    return (a * b, 0 if r.ranks.n_fix0 >= r.F.sp.p else a0 * b0,
            0 if r.ranks.n_fix1 >= r.F.sp.q else a1 * b1)


def _parity(case: str, law) -> tuple:
    """The row checking ``law`` of the degrees when F's types put it in ``case``."""
    def holds(r):
        t = r.F.classified[0]
        found = "typeII" if TYPE_II in t else "typeIV" if TYPE_IV in t else "odd"
        return law(*r.degrees) if found == case else None
    return f"parity_{case}", False, holds


def _congruent_mod_Je(r: EulerReport) -> bool:
    """e(F) is 0 mod I_e, or e^(2(n-n0-n1))*cw^n0*cxw^n1 when a fixed degree
    is odd."""
    x, (n, n0, n1) = r.product_class, r.ranks
    if r.degrees.delta0 % 2 or r.degrees.delta1 % 2:
        exponent = 2 * (n - n0 - n1)
        x = x - raw_monomial(r.F.sp, 0, 0, n0, n1).scale(hscalar.e(exponent))
    return all(in_Ie(c) for c in x.terms.values())


def _zeta_squared(r: EulerReport) -> bool:
    """z0^2*z1^2 = xi^2 on e(F), walked one generator at a time both ways:
    z0 over z1^2*e(F), where zeta cancel meets z0*z1^2, and z1 over
    z0^2*e(F), where it meets the mirror z0^2*z1; no other row reaches
    either."""
    x = r.product_class
    target = x.scale(hscalar.xi(2))
    for order in (("z1", "z1", "z0", "z0"), ("z0", "z0", "z1", "z1")):
        y = x
        for gen in order:
            y = apply_gen(gen, y)
        if y != target:
            return False
    return True


# The Burnside rows of the one check table as (name, reported, predicate),
# reported ones in the order ``euler`` prints them; ``variants.CHECKS``
# appends the coarser theories.  ``r.split and ...`` is None (the check does
# not apply) for a single summand.
BURNSIDE_CHECKS = tuple(Check("burnside", *row) for row in (
    ("product_equals_closed", True, lambda r: r.product_class == euler_closed(r.F)),
    ("grading", True, lambda r: all(
        m.grading + c.grading == r.grading for m, c in r.product_class.terms.items())),
    ("support_at_most_three", True, lambda r: len(r.product_class.terms) <= 3),
    ("support_locations", False, lambda r: all(
        m.index == r.ranks.n_total or m.pos[0] == r.ranks.n_fix0
        for m in r.product_class.terms)),
    ("coefficients_in_T", True, lambda r: in_tildeT(r.product_class)),
    ("coefficient_vector_length", False,
     lambda r: len(r.coefficients) == r.F.sp.p + r.F.sp.q),
    ("degrees_recovered", True,
     lambda r: recover_degrees(r.product_class) == r.degrees),
    ("ranks_recovered", True, lambda r: recover_ranks(r.grading) == r.ranks),
    ("multiplicative", True,
     lambda r: r.split and mod_mul(*map(euler_product, r.split)) == r.product_class),
    *((f"multiplicative_{d}", False, lambda r, i=i: r.split
       and tuple(r.degrees)[i] == r.kept(_split_degrees)[i])
      for i, d in enumerate(("delta", "delta0", "delta1"))),
    _parity("typeII", lambda d, d0, d1: d % 2 == d0 % 2 == d1 % 2 == 0),
    _parity("typeIV", lambda d, d0, d1: d % 2 == 0 and d0 % 2 == d1 % 2 == 1),
    _parity("odd", lambda d, d0, d1: d % 2 == 1 and (d0 == 0 or d0 % 2 == 1)
            and (d1 == 0 or d1 % 2 == 1)),
    ("congruence_mod_Je", False, _congruent_mod_Je),
    # z0*z1 = xi on e(F): the one row whose walk multiplies by z1, so the
    # z1*cxw rule, which no line class reaches, fires under ``verify`` too
    ("zeta_relation", False, lambda r: apply_gen("z0", apply_gen("z1", r.product_class))
     == r.product_class.scale(hscalar.xi(1))),
    ("zeta_squared", False, _zeta_squared),
))


def bezout_report(F: BundleSum) -> EulerReport:
    """Compute both Euler-class paths and evaluate the Burnside checks that
    ``euler`` reports; raises ValueError outside the Bezout context."""
    require_context(F)
    report = EulerReport(F)
    report.checks = report.reported(BURNSIDE_CHECKS, "burnside")
    return report
