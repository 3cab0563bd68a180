"""Constant-Z and Borel coefficient variants of the Euler-class theory.

The Burnside theory maps onto two coarser theories, both respecting Euler
classes:

* constant-Z coefficients, obtained by killing kappa (so g = 2, the
  e^-m*kappa classes vanish, and e becomes 2-torsion).  Only the normal
  form changes, so its scalar ``ZHElement`` is ``HElement`` with a
  different ``__init__``: same monomials, same product table, same module
  engine;
* Borel cohomology, obtained by further inverting xi; its point ring is
  Z[e, xi, xi^-1]/(2e), the projective-space ring collapses to a single
  polynomial generator c with c^p * (c + e^2)^q = 0, and the fixed-point
  information disappears entirely.  Its scalar ``BorelScalar`` is another
  normal form on the shared core ``hscalar.Scalar``, with exponent pairs
  (m, n) for monomials.

All three scalar rings share one arithmetic and one printer, and refuse
to mix with each other.

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
from .hscalar import (
    E,
    EIK,
    EXI,
    G,
    HElement,
    HMonomial,
    MONO_ONE,
    ONE,
    Scalar,
    TAUINV,
    XI,
)
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

    def __init__(self, terms: dict[HMonomial, int]):
        folded: dict[HMonomial, int] = {}
        for mono, coeff in terms.items():
            if mono.kind == EIK:
                continue
            if mono.kind == G:
                mono, coeff = MONO_ONE, 2 * coeff
            elif mono.kind == E:
                coeff %= 2  # no other kind folds onto e^m
            folded[mono] = folded.get(mono, 0) + coeff
        super().__init__(folded)

    def __mul__(self, other) -> "ZHElement":
        # own binding: bench/tracer.py counts constant-Z products through
        # vars(ZHElement)["__mul__"]
        return super().__mul__(other)

    __rmul__ = __mul__


def to_constZ(x: HElement) -> ZHElement:
    """Change of coefficients to the constant-Z theory (set kappa = 0)."""
    return ZHElement.from_burnside(x)


def z_map(x: ModuleElement) -> ModuleElement:
    """Push a Burnside-coefficient class into the constant-Z theory."""
    return ModuleElement(
        x.sp, {m: to_constZ(c) for m, c in x.terms.items()}, ZHElement
    )


def z_euler_closed(F: _euler.BundleSum) -> ModuleElement:
    """Closed constant-Z Euler class, three parity cases (context enforced)."""
    _euler.require_context(F)
    _, (n, n0, n1), dd = F.classified
    car = _euler.closed_carriers(F)
    pn = raw_monomial(F.sp, *car.pn, ZHElement)

    if dd.delta % 2:
        return pn.scale(dd.delta)
    result = pn.scale(to_constZ(car.tau_n)).scale(dd.delta // 2)
    if dd.delta0 % 2 or dd.delta1 % 2:
        e_pow = ZHElement({HMonomial(E, 2 * (n - n0 - n1)): 1})
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
    """An element of Z[e, xi, xi^-1]/(2e): monomials e^m * xi^n, m >= 0.

    A normal form on the shared scalar core (``hscalar.Scalar``): the
    monomial is the exponent pair (m, n), the product adds exponents, and
    coefficients are integers for m = 0 and live in Z/2 for m >= 1.
    """

    __slots__ = ()

    _UNIT = (0, 0)

    @staticmethod
    def _mono_mul(x: tuple[int, int], y: tuple[int, int]):
        return (((x[0] + y[0], x[1] + y[1]), 1),)

    @staticmethod
    def _mono_text(mono: tuple[int, int]) -> str:
        factors = [f if k == 1 else f"{f}^{k}" for f, k in zip(("e", "xi"), mono) if k]
        return "*".join(factors) or "1"

    def __init__(self, terms: dict[tuple[int, int], int]):
        clean = {}
        for (m, n), coeff in terms.items():
            if m < 0:
                raise ValueError("negative e-exponent in Borel scalar")
            if m >= 1:
                coeff %= 2
            if coeff:
                clean[(m, n)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, m: int, n: int, coeff: int = 1) -> "BorelScalar":
        return cls({(m, n): coeff})


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
        while True:
            top = max((k for k, v in work.items() if k >= N and v), default=None)
            if top is None:
                break
            # subtract lead * c^(top-N) * relation, clearing c^top; this can
            # reintroduce degrees in [N, top), so take the maximum again
            _accumulate(work, _c_binomial(-work[top], top - N + sp.p, sp.q))
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


_BOREL_SCALAR = {
    ONE: lambda m, n: BorelScalar.from_int(1),
    G: lambda m, n: BorelScalar.from_int(2),
    E: lambda m, n: BorelScalar.monomial(m, 0),
    EIK: lambda m, n: BorelScalar.from_int(0),
    XI: lambda m, n: BorelScalar.monomial(0, n),
    EXI: lambda m, n: BorelScalar.monomial(m, n),
    TAUINV: lambda m, n: BorelScalar.monomial(0, -n, 2),
}


def borel_map(x: ModuleElement, n1: int) -> BorelElement:
    """Push a Burnside class into Borel cohomology.

    The multiplicative map sends z0 to 1, z1 to xi, cw to c and cxw to
    xi^-1 * (c + e^2); the result is multiplied by xi^n1 so that every
    line bundle is counted with rank 2s, matching the Borel closed forms.
    """
    out: dict[int, BorelScalar] = {}
    for mono, coeff in x.terms.items():
        scal = BorelScalar.from_int(0)
        for hm, c in coeff.terms.items():
            scal = scal + _BOREL_SCALAR[hm.kind](hm.m, hm.n) * c
        scal = scal * BorelScalar.monomial(0, mono.t - mono.b + n1)
        _accumulate(out, _c_binomial(scal, mono.a, mono.b))
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


@dataclass(frozen=True)
class CompareReport:
    """Side-by-side Euler classes of two bundle sums in all three theories."""

    sp: ProjSpace
    degrees_a: _euler.DegreeTriple
    degrees_b: _euler.DegreeTriple
    burnside_equal: bool
    zconst_equal: bool
    borel_equal: bool
    note: str = "Borel theory carries no fixed-point data"

    @property
    def flags(self) -> dict[str, bool]:
        return {
            "burnside": self.burnside_equal,
            "zconst": self.zconst_equal,
            "borel": self.borel_equal,
        }


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
        burnside_equal=a.product_class == b.product_class,
        zconst_equal=_z_mapped(a) == _z_mapped(b),
        borel_equal=_borel_mapped(a) == _borel_mapped(b),
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
