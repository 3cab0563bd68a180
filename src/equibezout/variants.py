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
  information disappears entirely.  The Borel point ring has one monomial
  e^u*xi^v in each grading, and the relation is homogeneous with c in the
  grading of e^2, so in a homogeneous class the coefficient of c^k is one
  monomial c_k*e^(u - 2k)*xi^v.  A class ``BorelElement`` is therefore its
  grading (u, v) and one integer c_k per power of c, with no scalar type:
  a Burnside scalar keeps its exponents, and its integer is c for the
  plain monomials, 2c for a transfer tau(i^2v) = 2*xi^v, 2 for g and 0 for
  the kappa family.

The two point rings ``HElement`` and ``ZHElement`` share their operators
and refuse to mix with each other or with Borel classes.

Each theory has its own closed Bezout formula, evaluated here directly
from the ranks and degrees.  ``compare`` answers one question per theory,
whether the Euler classes of two sums are equal, which exhibits the
information loss (distinct Burnside classes with equal Z and Borel images).
"""

from __future__ import annotations

from . import euler as _euler
from .grading import join_signed
from .hscalar import HElement, monomial_text, signed_term
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
    raw_pn, tau_n = _euler.closed_carriers(F)
    pn = raw_monomial(F.sp, *raw_pn, ZHElement)

    if dd.delta % 2:
        return pn.scale(dd.delta)
    result = pn.scale(ZHElement.from_burnside(tau_n)).scale(dd.delta // 2)
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


class BorelElement:
    """A homogeneous Borel cohomology class of X(p, q) in normal form.

    The class sum_k c_k*e^(u - 2k)*xi^v*c^k: its grading, the exponents
    (u, v) of e^u*xi^v with c in the grading of e^2, and ``coeffs``
    mapping k to the integer c_k.  The constructor is the normal form per
    power: c_k is an integer where u - 2k = 0, lives in Z/2 where
    u - 2k >= 1 (2e = 0) and must vanish where u - 2k < 0 (e has no
    inverse); the powers of c are reduced modulo the monic relation
    c^p * (c + e^2)^q, and zero is stored at (0, 0), so all zeros are equal.
    """

    __slots__ = ("sp", "u", "v", "coeffs")

    def __init__(self, sp: ProjSpace, u: int, v: int, coeffs: dict[int, int]):
        work = {k: c for k, c in coeffs.items() if c}
        if any(k < 0 for k in work):
            raise ValueError("negative c-exponent")
        N = sp.p + sp.q
        for top in range(max(work, default=0), N - 1, -1):
            # subtract lead * c^(top-N) * relation: it clears c^top and changes
            # only lower degrees, so one pass from the top degree down is enough
            lead = _in_group(u, top, work.get(top, 0))
            if lead:
                for k in _c_binomial(top - N + sp.p, sp.q):
                    work[k] = work.get(k, 0) - lead
        work = {k: _in_group(u, k, c) for k, c in work.items()}
        self.coeffs = {k: c for k, c in work.items() if c}
        self.sp = sp
        self.u, self.v = (u, v) if self.coeffs else (0, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorelElement):
            return NotImplemented
        return (self.sp == other.sp and self.coeffs == other.coeffs
                and self.u == other.u and self.v == other.v)

    def __add__(self, other: "BorelElement") -> "BorelElement":
        if not isinstance(other, BorelElement):
            return NotImplemented
        if self.sp != other.sp:
            raise ValueError("elements over different spaces")
        if not (self and other):
            return self if self else other
        if (self.u, self.v) != (other.u, other.v):
            raise ValueError(f"mixed gradings: e^{other.u}*xi^{other.v} vs "
                             f"e^{self.u}*xi^{self.v}")
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged.get(k, 0) + c
        return BorelElement(self.sp, self.u, self.v, merged)

    def __mul__(self, other: "BorelElement") -> "BorelElement":
        if not isinstance(other, BorelElement):
            return NotImplemented
        if self.sp != other.sp:
            raise ValueError("elements over different spaces")
        out: dict[int, int] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return BorelElement(self.sp, self.u + other.u, self.v + other.v, out)

    def coeff_text(self, k: int) -> str:
        """The coefficient of c^k, c_k*e^(u - 2k)*xi^v, as text."""
        return signed_term(self.coeffs[k], monomial_text((self.u - 2 * k, self.v)))

    def __str__(self) -> str:
        chunks = []
        for k in sorted(self.coeffs):
            body = "c" if k == 1 else f"c^{k}"
            text = self.coeff_text(k)
            if k == 0:
                chunks.append(text)
            elif text == "1":
                chunks.append(body)
            elif text.startswith("-"):
                chunks.append(f"({text})*{body}")
            else:
                chunks.append(f"{text}*{body}")
        return join_signed(chunks)

    __repr__ = __str__


def _in_group(u: int, k: int, c: int) -> int:
    """c as the coefficient of e^(u - 2k) in Z[e]/(2e): c itself at e^0,
    c mod 2 above it, and no group below it (ValueError for c != 0)."""
    if u > 2 * k:
        return c % 2
    if u < 2 * k and c:
        raise ValueError(f"no Borel group at e^{u - 2 * k}: e has no inverse")
    return c


def _c_binomial(a: int, b: int):
    """The powers of c whose coefficient in c^a * (c + e^2)^b is odd.

    The term of c^(a+j) is comb(b, j)*e^(2(b-j)), so for j < b only the
    parity of comb(b, j) counts, and by Lucas's theorem it is odd exactly
    when the bits of j are bits of b: the powers are a + j for the submasks
    j of b, from a + b (coefficient 1) down.
    """
    j = b
    while True:
        yield a + j
        if not j:
            return
        j = (j - 1) & b


def borel_map(x: ModuleElement, n1: int) -> BorelElement:
    """Push a Burnside class into Borel cohomology.

    The multiplicative map sends z0 to 1, z1 to xi, cw to c and cxw to
    xi^-1 * (c + e^2); the result is multiplied by xi^n1 so that every
    line bundle is counted with rank 2s, matching the Borel closed forms.
    On the point ring the kappa family goes to 0, tau(i^2v) to 2*xi^v, g
    to 2, and the plain monomials to themselves.
    """
    out: dict[int, int] = {}
    grading = (0, 0)
    for mono, coeff in x.terms.items():
        if coeff.u < 0:  # the kappa family
            continue
        c = (2 * coeff.c if coeff.v < 0 else coeff.c) + 2 * coeff.g
        # c*e^u*xi^v * xi^(t - b + n1) * c^a * (c + e^2)^b; as x is homogeneous,
        # every term lands in the same grading
        grading = (coeff.u + 2 * (mono.a + mono.b), coeff.v + mono.t - mono.b + n1)
        for k in _c_binomial(mono.a, mono.b):
            out[k] = out.get(k, 0) + c
    return BorelElement(x.sp, *grading, out)


def borel_euler_closed(F: _euler.BundleSum) -> BorelElement:
    """Closed Borel Euler class, three parity cases (context enforced)."""
    _euler.require_context(F)
    _, (n, n0, n1), dd = F.classified
    sp = F.sp

    # every case lies in the grading of c^n, that of e^(2n)
    if dd.delta % 2:
        return BorelElement(sp, 2 * n, 0, dict.fromkeys(_c_binomial(n0, n - n0), dd.delta))
    leading = BorelElement(sp, 2 * n, 0, {n: dd.delta})
    if dd.delta0 % 2 or dd.delta1 % 2:
        return leading + BorelElement(sp, 2 * n, 0, dict.fromkeys(_c_binomial(n0, n1), 1))
    return leading


COMPARE_NOTE = "Borel theory carries no fixed-point data"


def compare(FA: _euler.BundleSum, FB: _euler.BundleSum) -> dict[str, bool]:
    """Whether the Euler classes of two sums are equal, per theory."""
    if FA.sp != FB.sp:
        raise ValueError("bundle sums over different spaces")
    for F in (FA, FB):
        try:
            _euler.require_context(F)
        except ValueError as exc:
            raise ValueError(f"{F}: {exc}") from None
    a, b = _euler.EulerReport(FA), _euler.EulerReport(FB)
    return {
        "burnside": a.product_class == b.product_class,
        "zconst": _z_mapped(a) == _z_mapped(b),
        "borel": _borel_mapped(a) == _borel_mapped(b),
    }


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
