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
  information disappears entirely.

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
    TAUINV,
    XI,
)
from .projmod import (
    _FIXED_SHAPE,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
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
    """Closed form of the constant-Z Euler class (three parity cases)."""
    violations = _euler.context_check(F)
    if violations:
        raise ValueError("; ".join(violations))
    r = _euler.ranks(F)
    dd = _euler.degrees(F)
    car = _euler.closed_carriers(F)
    pn = raw_monomial(F.sp, *car.pn, ZHElement)

    if dd.delta % 2:
        return pn.scale(dd.delta)
    result = pn.scale(to_constZ(car.tau_n)).scale(dd.delta // 2)
    if dd.delta0 % 2 or dd.delta1 % 2:
        n, n0, n1 = r.n_total, r.n_fix0, r.n_fix1
        e_pow = ZHElement({HMonomial(E, 2 * (n - n0 - n1)): 1})
        pkm1 = raw_monomial(F.sp, 0, 0, n0, n1, ZHElement)
        result = result + pkm1.scale(e_pow)
    return result


_Z_FIXED = {ONE: 1, E: 1, XI: 0, EXI: 0, TAUINV: 0}


def z_fixed(x: ModuleElement) -> tuple[NoneqPoly, NoneqPoly]:
    """Fixed-point values in the constant-Z theory, mod-2 coefficients.

    The constant-Z fixed-point map is the mod-2 reduction of the Burnside
    one, so it only remembers the parities of the fixed degrees.
    """
    p, q = x.sp.p, x.sp.q
    out0: dict[int, int] = {}
    out1: dict[int, int] = {}
    for mono, coeff in x.terms.items():
        value = sum(c * _Z_FIXED[m.kind] for m, c in coeff.terms.items()) % 2
        if not value:
            continue
        shape0, shape1 = _FIXED_SHAPE[mono.family]
        if shape0 is not None:
            out0[mono.a] = (out0.get(mono.a, 0) + value) % 2
        if shape1 is not None:
            out1[mono.b] = (out1.get(mono.b, 0) + value) % 2
    return (
        NoneqPoly.make(p, out0).reduce_mod(2),
        NoneqPoly.make(q, out1).reduce_mod(2),
    )


class BorelScalar:
    """An element of Z[e, xi, xi^-1]/(2e): monomials e^m * xi^n, m >= 0.

    Coefficients are integers for m = 0 and live in Z/2 for m >= 1.
    """

    __slots__ = ("terms",)

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
    def from_int(cls, c: int) -> "BorelScalar":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, m: int, n: int, coeff: int = 1) -> "BorelScalar":
        return cls({(m, n): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = BorelScalar.from_int(other)
        if not isinstance(other, BorelScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "BorelScalar":
        if isinstance(other, int):
            other = BorelScalar.from_int(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return BorelScalar(merged)

    __radd__ = __add__

    def __neg__(self) -> "BorelScalar":
        return BorelScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "BorelScalar":
        if isinstance(other, int):
            other = BorelScalar.from_int(other)
        return self + (-other)

    def __mul__(self, other) -> "BorelScalar":
        if isinstance(other, int):
            return BorelScalar({k: other * c for k, c in self.terms.items()})
        if not isinstance(other, BorelScalar):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (m1, n1), c1 in self.terms.items():
            for (m2, n2), c2 in other.terms.items():
                key = (m1 + m2, n1 + n2)
                out[key] = out.get(key, 0) + c1 * c2
        return BorelScalar(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        chunks = []
        for (m, n) in sorted(self.terms):
            coeff = self.terms[(m, n)]
            factors = []
            if m == 1:
                factors.append("e")
            elif m:
                factors.append(f"e^{m}")
            if n == 1:
                factors.append("xi")
            elif n:
                factors.append(f"xi^{n}")
            body = "*".join(factors)
            if not body:
                chunk = str(abs(coeff))
            elif abs(coeff) == 1:
                chunk = body
            else:
                chunk = f"{abs(coeff)}*{body}"
            chunks.append(("-" if coeff < 0 else "") + chunk)
        return join_signed(chunks)

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
        rel = _relation_tail(sp)  # c^(p+q) = -(lower terms)
        while True:
            top = max((k for k, v in work.items() if k >= N and v), default=None)
            if top is None:
                break
            lead = work.pop(top)
            # rewriting can reintroduce degrees below top but at or above N,
            # so keep taking the current maximum rather than a fixed sweep
            for j, scal in rel:
                key = top - N + sp.p + j
                work[key] = work.get(key, BorelScalar.from_int(0)) - lead * scal
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
        assert self.sp == other.sp
        merged = dict(self.coeffs)
        for k, v in other.coeffs.items():
            merged[k] = merged.get(k, BorelScalar.from_int(0)) + v
        return BorelElement(self.sp, merged)

    def __sub__(self, other: "BorelElement") -> "BorelElement":
        return self + other.scale(-1)

    def scale(self, c) -> "BorelElement":
        return BorelElement(self.sp, {k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other: "BorelElement") -> "BorelElement":
        assert self.sp == other.sp
        out: dict[int, BorelScalar] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = k1 + k2
                out[key] = out.get(key, BorelScalar.from_int(0)) + v1 * v2
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


def _relation_tail(sp: ProjSpace) -> list[tuple[int, BorelScalar]]:
    # c^p * (c + e^2)^q is monic of degree p+q; the tail below the top is
    # sum_j C(q, j) e^(2(q-j)) c^(p+j) for j < q
    return [
        (j, BorelScalar.monomial(2 * (sp.q - j), 0, comb(sp.q, j)))
        for j in range(sp.q)
    ]


def borel_relation(sp: ProjSpace) -> dict[int, BorelScalar]:
    """The defining relation c^p (c+e^2)^q as a raw coefficient dict."""
    out = {sp.p + sp.q: BorelScalar.from_int(1)}
    for j, scal in _relation_tail(sp):
        out[sp.p + j] = scal
    return out


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
        for j in range(mono.b + 1):
            key = mono.a + j
            term = scal * BorelScalar.monomial(2 * (mono.b - j), 0, comb(mono.b, j))
            out[key] = out.get(key, BorelScalar.from_int(0)) + term
    return BorelElement(x.sp, out)


def borel_euler_closed(F: _euler.BundleSum) -> BorelElement:
    """Closed form of the Borel Euler class (three parity cases)."""
    violations = _euler.context_check(F)
    if violations:
        raise ValueError("; ".join(violations))
    r = _euler.ranks(F)
    dd = _euler.degrees(F)
    n, n0, n1 = r.n_total, r.n_fix0, r.n_fix1
    sp = F.sp

    def c_times_binomial(a: int, b: int, prefactor: BorelScalar) -> BorelElement:
        # prefactor * c^a * (c + e^2)^b
        out = {}
        for j in range(b + 1):
            out[a + j] = prefactor * BorelScalar.monomial(2 * (b - j), 0, comb(b, j))
        return BorelElement(sp, out)

    leading = BorelElement(sp, {n: BorelScalar.from_int(dd.delta)})
    if dd.delta % 2:
        return c_times_binomial(n0, n - n0, BorelScalar.from_int(dd.delta))
    if dd.delta0 % 2 or dd.delta1 % 2:
        tail = c_times_binomial(n0, n1, BorelScalar.monomial(2 * (n - n0 - n1), 0))
        return leading + tail
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
        violations = _euler.context_check(F)
        if violations:
            raise ValueError(f"{F}: " + "; ".join(violations))
    ea = _euler.euler_product(FA)
    eb = _euler.euler_product(FB)
    n1a = _euler.ranks(FA).n_fix1
    n1b = _euler.ranks(FB).n_fix1
    return CompareReport(
        sp=FA.sp,
        degrees_a=_euler.degrees(FA),
        degrees_b=_euler.degrees(FB),
        burnside_equal=ea == eb,
        zconst_equal=z_map(ea) == z_map(eb),
        borel_equal=borel_map(ea, n1a) == borel_map(eb, n1b),
    )
