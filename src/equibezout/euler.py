"""Euler classes of sums of equivariant line bundles and degree recovery.

Line bundles over X(p, q) are the powers O(d) of the dual tautological
bundle and their twists xO(d) by the sign representation.  Parity and
twist split them into four types; the type counts give the equivariant
rank triple (n, n0, n1) and the degree products give the degree triple
(Delta, Delta0, Delta1), with a fixed degree clamped to 0 once the fixed
rank reaches the dimension of the corresponding fixed component.

The Euler class of a sum is computed two independent ways:

* ``euler_product`` multiplies the single-bundle classes through the
  rewrite engine;
* ``euler_closed`` evaluates the closed three-term formula, whose basis
  carriers and coefficients depend only on the ranks and degrees.

``bezout_report`` runs both and cross-checks everything that is supposed
to hold: the two classes agree, at most three basis elements appear, all
coefficients lie in T, and the grading and degrees can be read back off
the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hscalar
from .grading import PiBDegree, RankTriple, euler_grading, recover_ranks
from .hscalar import HElement, e_power_kappa, tau_iota
from .projmod import (
    ModuleElement,
    ProjSpace,
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

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.delta, self.delta0, self.delta1)


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

    def __str__(self) -> str:
        if not self.lines:
            return "0"
        return " + ".join(str(L) for L in self.lines)


def ranks(F: BundleSum) -> RankTriple:
    """Complex ranks (n, n0, n1): type I/II span the fixed part over the
    first component, II/III over the second."""
    counts = {t: 0 for t in (TYPE_I, TYPE_II, TYPE_III, TYPE_IV)}
    for L in F.lines:
        counts[classify_line(L)] += 1
    n = F.n
    n0 = counts[TYPE_I] + counts[TYPE_II]
    n1 = counts[TYPE_II] + counts[TYPE_III]
    return RankTriple(n, n0, n1)


def degrees(F: BundleSum) -> DegreeTriple:
    """Degree triple; fixed degrees clamp to 0 at n0 >= p resp. n1 >= q."""
    r = ranks(F)
    delta = 1
    d0 = 1
    d1 = 1
    for L in F.lines:
        delta *= L.d
        t = classify_line(L)
        if t in (TYPE_I, TYPE_II):
            d0 *= L.d
        if t in (TYPE_II, TYPE_III):
            d1 *= L.d
    if r.n_fix0 >= F.sp.p:
        d0 = 0
    if r.n_fix1 >= F.sp.q:
        d1 = 0
    return DegreeTriple(delta, d0, d1)


def context_check(F: BundleSum) -> list[str]:
    """Violations of the Bezout context inequalities (empty when valid)."""
    r = ranks(F)
    p, q = F.sp.p, F.sp.q
    out = []
    if p < 1 or q < 1:
        out.append(f"p = {p}, q = {q} must satisfy p, q >= 1")
    if not r.n_total < p + q:
        out.append(f"n = {r.n_total} must be < p + q = {p + q}")
    if not r.n_total - q <= r.n_fix0 <= r.n_total:
        out.append(f"n0 = {r.n_fix0} must satisfy {r.n_total - q} <= n0 <= {r.n_total}")
    if not r.n_total - p <= r.n_fix1 <= r.n_total:
        out.append(f"n1 = {r.n_fix1} must satisfy {r.n_total - p} <= n1 <= {r.n_total}")
    return out


def euler_line(L: LineBundle, sp: ProjSpace, ring=HElement) -> ModuleElement:
    """Euler class of a single line bundle, in basis normal form.

    The four closed formulas, one per type (d is the half-degree):

        e(O(2d+1))  = cw + d*(tau(1)*cw + e^-2*kappa*z1*cw*cxw)
        e(O(2d))    = d*(tau(i^-2)*z0*cw + e^-2*kappa*cw*cxw)
        e(xO(2d+1)) = cxw + d*(tau(1)*cxw + e^-2*kappa*z0*cw*cxw)
        e(xO(2d))   = e^2 + d*tau(1)*z0*cw
    """
    if sp.p < 1 or sp.q < 1:
        raise ValueError(f"line-bundle Euler classes need p, q >= 1, got {sp}")

    def mono(s, t, a, b):
        return raw_monomial(sp, s, t, a, b, ring)

    d, rem = divmod(L.d, 2)
    g = ring.from_burnside(hscalar.g())
    eik2 = ring.from_burnside(hscalar.einvkappa(2))
    if not L.twisted and rem:  # O(2d+1)
        return mono(0, 0, 1, 0) + (
            mono(0, 0, 1, 0).scale(g) + mono(0, 1, 1, 1).scale(eik2)
        ).scale(d)
    if not L.twisted:  # O(2d)
        tl = ring.from_burnside(hscalar.tauinv(1))
        return (mono(1, 0, 1, 0).scale(tl) + mono(0, 0, 1, 1).scale(eik2)).scale(d)
    if rem:  # xO(2d+1)
        return mono(0, 0, 0, 1) + (
            mono(0, 0, 0, 1).scale(g) + mono(1, 0, 1, 1).scale(eik2)
        ).scale(d)
    # xO(2d)
    e2 = ring.from_burnside(hscalar.e(2))
    return ModuleElement.unit(sp, ring).scale(e2) + mono(1, 0, 1, 0).scale(g).scale(d)


def euler_product(F: BundleSum, ring=HElement) -> ModuleElement:
    """Euler class as the product of the single-bundle classes."""
    out = ModuleElement.unit(F.sp, ring)
    for L in F.lines:
        out = mod_mul(out, euler_line(L, F.sp, ring))
    return out


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
    r = ranks(F)
    n, n0, n1 = r.n_total, r.n_fix0, r.n_fix1
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
    """The three (numerator, scalar, raw monomial) closed-form terms.

    Each term means numerator * scalar * monomial / 2; the division is
    performed after normalization of the carrier and must come out exact
    (or the carrier must vanish).
    """
    r = ranks(F)
    n, n0, n1 = r.n_total, r.n_fix0, r.n_fix1
    dd = degrees(F)
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
        (0, HElement.from_int(1), car.pk),
        (2 * dd.delta1, HElement.from_int(1), car.pkm1),
    ]


def euler_closed(F: BundleSum) -> ModuleElement:
    """Euler class by the closed three-term formula."""
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


@dataclass
class EulerReport:
    """Everything the Bezout theorems promise about one bundle sum."""

    F: BundleSum
    ranks: RankTriple
    degrees: DegreeTriple
    grading: PiBDegree
    product_class: ModuleElement
    closed_class: ModuleElement
    coefficients: list
    in_tilde_t: bool
    recovered_degrees: DegreeTriple
    recovered_ranks: RankTriple
    checks: dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def bezout_report(F: BundleSum, partition=None) -> EulerReport:
    """Compute both Euler-class paths and run the cross-checks.

    ``partition`` may give two bundle lists splitting F to spot-check
    multiplicativity; by default the first summand is split off.
    """
    violations = context_check(F)
    if violations:
        raise ValueError("; ".join(violations))
    r = ranks(F)
    dd = degrees(F)
    grading = euler_grading(r.n_total, r.n_fix0, r.n_fix1)
    prod = euler_product(F)
    closed = euler_closed(F)
    vector = coeff_vector(prod, grading.m)
    in_t = in_tildeT(prod)
    recovered_degrees = recover_degrees(prod)
    recovered_ranks = recover_ranks(grading)

    checks = {
        "product_equals_closed": prod == closed,
        "grading": prod.grading is None or prod.grading == grading,
        "support_at_most_three": len(prod.terms) <= 3,
        "coefficients_in_T": in_t,
        "degrees_recovered": recovered_degrees == dd,
        "ranks_recovered": recovered_ranks == r,
    }
    if partition is None and F.n >= 2:
        partition = (F.lines[:1], F.lines[1:])
    if partition is not None:
        F1 = BundleSum.make(F.sp, partition[0])
        F2 = BundleSum.make(F.sp, partition[1])
        checks["multiplicative"] = (
            mod_mul(euler_product(F1), euler_product(F2)) == prod
        )

    return EulerReport(
        F=F,
        ranks=r,
        degrees=dd,
        grading=grading,
        product_class=prod,
        closed_class=closed,
        coefficients=vector,
        in_tilde_t=in_t,
        recovered_degrees=recovered_degrees,
        recovered_ranks=recovered_ranks,
        checks=checks,
    )
