"""Constant-Z and Borel coefficient variants of the Euler-class theory.

The Burnside theory maps onto two coarser theories, both respecting Euler
classes:

* constant-Z coefficients, obtained by killing kappa (so g = 2, the
  kappa family e^-m*kappa vanishes, and e becomes 2-torsion).  Only the
  normal form changes, so its scalar ``ZHElement`` is ``HElement`` with a
  different ``__init__``: the same fields (u, v, c, g), the same product
  law, the same module engine.  ``ZHElement.from_burnside`` is the change
  of coefficients;
* Borel cohomology, obtained by further inverting xi; its point ring is
  Z[e, xi, xi^-1]/(2e), the projective-space ring collapses to a single
  polynomial generator c with c^p * (c + e^2)^q = 0, and the fixed-point
  information disappears entirely.  Its scalar ``BorelScalar`` is a dict
  of integer coefficients keyed by the exponent pairs (u, v) of
  e^u*xi^v, as its elements need not be homogeneous.  A Burnside scalar
  keeps its exponents: the plain monomials map to themselves, a transfer
  tau(i^2v) to 2*xi^v, and the kappa family to 0.

The three scalar rings share the operators ``hscalar.Scalar`` derives from
each ring's own arithmetic, and refuse to mix with each other.

Each theory has its own closed Bezout formula, evaluated here directly
from the ranks and degrees; the comparison report puts the three theories
side by side to exhibit the information loss (distinct Burnside classes
with equal Z and Borel images).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import euler as _euler
from .grading import join_signed
from .hscalar import HElement, Scalar, monomial_text, signed_term
from .projmod import (
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    mod_fixed,
    raw_monomial,
)


class ZHElement(HElement):
    """A constant-Z point-ring scalar: ``HElement`` with another normal form.

    Killing kappa maps g to 2 and drops e^-m*kappa; after the fold the
    coefficients of e^m and e^m*xi^n live in Z/2.  Arithmetic, the module
    hooks and ``divide_by_two`` are inherited: u = g - 1 folds to 1, and an
    e coefficient is always odd, so halving it raises.
    """

    __slots__ = ()

    def __init__(self, u: int, v: int, c: int, g: int = 0):
        if u < 0 and not v:  # the kappa family
            c = 0
        elif u > 0 and v >= 0:  # e^u*xi^v: nothing else folds onto it
            c %= 2
        if not (u or v):  # g = 2
            c, g = c + 2 * g, 0
        super().__init__(u, v, c, g)

    def __mul__(self, other) -> "ZHElement":
        # own binding: bench/tracer.py counts constant-Z products through
        # vars(ZHElement)["__mul__"]
        return super().__mul__(other)

    __rmul__ = __mul__


def z_map(x: ModuleElement) -> ModuleElement:
    """Push a Burnside-coefficient class into the constant-Z theory."""
    return ModuleElement(
        x.sp, {m: ZHElement.from_burnside(c) for m, c in x.terms.items()}, ZHElement
    )


def z_euler_closed(F: _euler.BundleSum) -> ModuleElement:
    """Closed constant-Z Euler class, three parity cases (context enforced)."""
    _euler.require_context(F)
    _, (n, n0, n1), dd = F.classified
    car = _euler.closed_carriers(F)
    pn = raw_monomial(F.sp, *car.pn, ZHElement)

    if dd.delta % 2:
        return pn.scale(dd.delta)
    result = pn.scale(ZHElement.from_burnside(car.tau_n)).scale(dd.delta // 2)
    if dd.delta0 % 2 or dd.delta1 % 2:
        e_pow = ZHElement(2 * (n - n0 - n1), 0, 1)
        pkm1 = raw_monomial(F.sp, 0, 0, n0, n1, ZHElement)
        result = result + pkm1.scale(e_pow)
    return result


def z_fixed(x: ModuleElement) -> tuple[NoneqPoly, NoneqPoly]:
    """Fixed-point values in the constant-Z theory, mod-2 coefficients.

    The constant-Z fixed-point map is the mod-2 reduction of the Burnside
    one, so it only remembers the parities of the fixed degrees.  Its
    coefficients carry no g and no e^-m*kappa, and on the rest the two
    fixed-point maps agree.
    """
    fix0, fix1 = mod_fixed(x)
    return fix0.reduce_mod(2), fix1.reduce_mod(2)


class BorelScalar(Scalar):
    """An element of Z[e, xi, xi^-1]/(2e): monomials e^u * xi^v, u >= 0.

    A dict of coefficients keyed by the exponent pair (u, v); the product
    adds exponents, and coefficients are integers for u = 0 and live in
    Z/2 for u >= 1.  The terms print in the order of their exponents.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int]):
        clean = {}
        for (u, v), coeff in terms.items():
            if u < 0:
                raise ValueError("negative e-exponent in Borel scalar")
            if u >= 1:
                coeff %= 2
            if coeff:
                clean[(u, v)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, m: int, n: int, coeff: int = 1) -> "BorelScalar":
        return cls({(m, n): coeff})

    @classmethod
    def from_int(cls, c: int) -> "BorelScalar":
        return cls({(0, 0): c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.from_int(other)
        elif type(other) is not BorelScalar:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.from_int(other)
        elif type(other) is not BorelScalar:
            return NotImplemented
        merged = dict(self.terms)
        for uv, coeff in other.terms.items():
            merged[uv] = merged.get(uv, 0) + coeff
        return BorelScalar(merged)

    __radd__ = __add__

    def __neg__(self):
        return BorelScalar({uv: -c for uv, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return BorelScalar({uv: other * c for uv, c in self.terms.items()})
        if type(other) is not BorelScalar:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (ux, vx), cx in self.terms.items():
            for (uy, vy), cy in other.terms.items():
                uv = (ux + uy, vx + vy)
                out[uv] = out.get(uv, 0) + cx * cy
        return BorelScalar(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return join_signed([signed_term(self.terms[uv], monomial_text(uv))
                            for uv in sorted(self.terms)])

    __repr__ = __str__


class BorelElement:
    """A Borel cohomology class of X(p, q) in normal form.

    A polynomial in the degree-2s generator c with BorelScalar
    coefficients, reduced modulo the monic relation c^p * (c + e^2)^q.
    """

    __slots__ = ("sp", "coeffs")

    def __init__(self, sp: ProjSpace, coeffs: dict[int, BorelScalar]):
        work = {k: v for k, v in coeffs.items() if v}
        if any(k < 0 for k in work):
            raise ValueError("negative c-exponent")
        N = sp.p + sp.q
        for top in range(max(work, default=0), N - 1, -1):
            # subtract lead * c^(top-N) * relation: it clears c^top and changes
            # only lower degrees, so one pass from the top degree down is enough
            lead = work.get(top)
            if lead:
                _accumulate(work, _c_binomial(-lead, top - N + sp.p, sp.q))
        self.sp = sp
        self.coeffs = {k: v for k, v in work.items() if v}

    @classmethod
    def zero(cls, sp: ProjSpace) -> "BorelElement":
        return cls(sp, {})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorelElement):
            return NotImplemented
        return self.sp == other.sp and self.coeffs == other.coeffs

    def __add__(self, other: "BorelElement") -> "BorelElement":
        if self.sp != other.sp:
            raise ValueError("elements over different spaces")
        merged = dict(self.coeffs)
        _accumulate(merged, other.coeffs)
        return BorelElement(self.sp, merged)

    def __mul__(self, other: "BorelElement") -> "BorelElement":
        if self.sp != other.sp:
            raise ValueError("elements over different spaces")
        out: dict[int, BorelScalar] = {}
        for k1, v1 in self.coeffs.items():
            _accumulate(out, {k1 + k2: v1 * v2 for k2, v2 in other.coeffs.items()})
        return BorelElement(self.sp, out)

    def __str__(self) -> str:
        chunks = []
        for k in sorted(self.coeffs):
            scal = self.coeffs[k]
            body = "1" if k == 0 else ("c" if k == 1 else f"c^{k}")
            text = str(scal)
            if k == 0:
                chunks.append(text)
            elif text == "1":
                chunks.append(body)
            elif "+" in text or (" - " in text) or text.startswith("-"):
                chunks.append(f"({text})*{body}")
            else:
                chunks.append(f"{text}*{body}")
        return join_signed(chunks)

    __repr__ = __str__


def _c_binomial(scalar: BorelScalar, a: int, b: int) -> dict[int, BorelScalar]:
    """scalar * c^a * (c + e^2)^b as a raw coefficient dict."""
    return {
        a + j: scalar * BorelScalar.monomial(2 * (b - j), 0, comb(b, j))
        for j in range(b + 1)
    }


def _accumulate(out: dict[int, BorelScalar], terms: dict[int, BorelScalar]) -> None:
    for k, v in terms.items():
        out[k] = out[k] + v if k in out else v


def borel_relation(sp: ProjSpace) -> dict[int, BorelScalar]:
    """The defining relation c^p (c+e^2)^q as a raw coefficient dict."""
    return _c_binomial(BorelScalar.from_int(1), sp.p, sp.q)


def borel_map(x: ModuleElement, n1: int) -> BorelElement:
    """Push a Burnside class into Borel cohomology.

    The multiplicative map sends z0 to 1, z1 to xi, cw to c and cxw to
    xi^-1 * (c + e^2); the result is multiplied by xi^n1 so that every
    line bundle is counted with rank 2s, matching the Borel closed forms.
    On the point ring it kills the kappa family (u < 0) and keeps
    e^u*xi^v, a transfer tau(i^2v) or g going to 2*xi^v.
    """
    out: dict[int, BorelScalar] = {}
    for mono, coeff in x.terms.items():
        if coeff.u < 0:  # the kappa family maps to 0
            continue
        shift = mono.t - mono.b + n1  # the power of xi beside c^a * (c + e^2)^b
        image = (2 * coeff.c if coeff.v < 0 else coeff.c) + 2 * coeff.g
        scalar = BorelScalar.monomial(coeff.u, coeff.v + shift, image)
        _accumulate(out, _c_binomial(scalar, mono.a, mono.b))
    return BorelElement(x.sp, out)


def borel_euler_closed(F: _euler.BundleSum) -> BorelElement:
    """Closed Borel Euler class, three parity cases (context enforced)."""
    _euler.require_context(F)
    _, (n, n0, n1), dd = F.classified
    sp = F.sp

    leading = BorelElement(sp, {n: BorelScalar.from_int(dd.delta)})
    if dd.delta % 2:
        return BorelElement(sp, _c_binomial(BorelScalar.from_int(dd.delta), n0, n - n0))
    if dd.delta0 % 2 or dd.delta1 % 2:
        tail = _c_binomial(BorelScalar.monomial(2 * (n - n0 - n1), 0), n0, n1)
        return leading + BorelElement(sp, tail)
    return leading


COMPARE_NOTE = "Borel theory carries no fixed-point data"


@dataclass(frozen=True)
class CompareReport:
    """Side-by-side Euler classes of two bundle sums in all three theories:
    ``flags`` says, per theory, whether the two classes are equal."""

    sp: ProjSpace
    degrees_a: _euler.DegreeTriple
    degrees_b: _euler.DegreeTriple
    flags: dict[str, bool]


def compare(FA: _euler.BundleSum, FB: _euler.BundleSum) -> CompareReport:
    """Compare the Euler classes of two sums in the three theories."""
    if FA.sp != FB.sp:
        raise ValueError("bundle sums over different spaces")
    for F in (FA, FB):
        try:
            _euler.require_context(F)
        except ValueError as exc:
            raise ValueError(f"{F}: {exc}") from None
    a, b = _euler.EulerReport(FA), _euler.EulerReport(FB)
    return CompareReport(
        sp=FA.sp,
        degrees_a=a.degrees,
        degrees_b=b.degrees,
        flags={
            "burnside": a.product_class == b.product_class,
            "zconst": _z_mapped(a) == _z_mapped(b),
            "borel": _borel_mapped(a) == _borel_mapped(b),
        },
    )


# The classes each coarser theory compares, (closed form, mapped product),
# as functions of a report, which computes each once (``EulerReport.kept``).
_CLASSES = {
    "zconst": (lambda r: z_euler_closed(r.F), lambda r: z_map(r.product_class)),
    "borel": (
        lambda r: borel_euler_closed(r.F),
        lambda r: borel_map(r.product_class, r.ranks.n_fix1),
    ),
}
_z_mapped, _borel_mapped = _CLASSES["zconst"][1], _CLASSES["borel"][1]


def closed_class(report: _euler.EulerReport, theory: str):
    """The closed-form Euler class of the report's bundle sum in ``theory``."""
    return report.kept(_CLASSES[theory][0])


def _z_fixed_parity(r: _euler.EulerReport) -> bool:
    """The constant-Z fixed points remember only the fixed degrees mod 2."""
    (_, n0, n1), dd = r.ranks, r.degrees
    fix0, fix1 = z_fixed(r.kept(_z_mapped))
    exp0 = {n0: 1} if dd.delta0 % 2 and n0 < r.F.sp.p else {}
    exp1 = {n1: 1} if dd.delta1 % 2 and n1 < r.F.sp.q else {}
    return fix0.as_dict() == exp0 and fix1.as_dict() == exp1


# The one table of named checks: the Burnside rows, then the coarser theories.
CHECKS = _euler.BURNSIDE_CHECKS + tuple(
    _euler.Check(theory, "closed_equals_mapped_product", True,
                 lambda r, c=closed, m=mapped: r.kept(c) == r.kept(m))
    for theory, (closed, mapped) in _CLASSES.items()
) + (
    _euler.Check("zconst", "product", False,
                 lambda r: r.kept(_z_mapped) == _euler.euler_product(r.F, ZHElement)),
    _euler.Check("zconst", "fixed_parity", False, _z_fixed_parity),
)
