"""Exact arithmetic in the even-column part of the equivariant point ring.

The coefficient ring for everything in this package is the RO(C2)-graded
equivariant cohomology of a point with Burnside-ring coefficients.  We
only ever need its even-column part, which has one monomial group at each
pair of signed exponents (u, v) of e and xi, in grading -2v + (u + 2v)*s.
The monomials come in three families:

    plain      e^u * xi^v     u, v >= 0 (1 at the origin; a Z/2 class
                              when u, v >= 1, as 2*e*xi = 0)
    kappa      e^u * kappa    u < 0, v = 0 (kappa = 2 - g)
    transfer   tau(i^2v)      u = 0, v <= 0 (the transfer of a power of
                              the nonequivariant invertible class i;
                              g = tau(1) at the origin)

so degree 0 is the Burnside ring on 1 and g, with g^2 = 2g.  Each of the
two other families continues along its axis (u for kappa, v for the
transfers) past the origin into the plain monomials: e^u*kappa is
kappa = 2 - g at u = 0 and 2e^u for u > 0, and tau(i^2v) is 2*xi^v for
v > 0.  A monomial is the tuple ``(family, u, v)`` (:class:`HMonomial`):
it hashes, compares and orders as that bare exponent tuple, with tuple's
C slots, and (u, v) alone fixes its grading.

An :class:`HElement` is a graded-homogeneous integer combination of these
monomials in normal form (no zero coefficients, e^u*xi^v coefficients
reduced mod 2 when u, v >= 1), on the ring core :class:`Scalar` that the
constant-Z and Borel scalars share.  In a product the signed exponents
always add, and the monomial product is three laws:

* plain times plain is the plain monomial at the sum;
* a product with a family member is zero when the sum has a nonzero
  exponent across the axis of a family factor (e*tau(y) = tau(rho(e)*y) = 0,
  xi*e^-m*kappa = 0, and kappa*tau(y) = tau(rho(kappa)*y) = 0, as kappa's
  u < 0 lies across the transfer axis);
* otherwise it is the family member at the sum, doubled when both factors
  are members (kappa^2 = 2*kappa, tau(x)*tau(y) = tau(x*rho(tau(y))) =
  2*tau(xy)).

The maps out of the ring are laws on the fields as well: the restriction
rho to the nonequivariant point is 1 on the plain monomials with u = 0,
2 on the transfers and 0 elsewhere; the fixed-point map is 1 on the plain
monomials with v = 0, 2 on the kappa family and 0 elsewhere.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .grading import PiBDegree, join_signed

PLAIN, KAPPA, TRANSFER = range(3)  # the families, plain first: 1 prints before g


def _exists(family: int, u: int, v: int) -> bool:
    """Whether the family has a monomial at signed exponents (u, v)."""
    if family == PLAIN:
        return u >= 0 and v >= 0
    if family == KAPPA:
        return u < 0 and v == 0
    return family == TRANSFER and u == 0 and v <= 0


def monomial_text(uv: tuple[int, int]) -> str:
    """e^u*xi^v as text, leaving out zero exponents ("1" at the origin)."""
    factors = [f if k == 1 else f"{f}^{k}" for f, k in zip(("e", "xi"), uv) if k]
    return "*".join(factors) or "1"


class HMonomial(tuple):
    """One monomial of the point ring: the tuple ``(family, u, v)``.

    The constructor rejects exponents where the family has no group.  Being
    a tuple, a monomial hashes, compares and orders as its bare exponent
    tuple, with tuple's own C slots (so ``HMonomial(PLAIN, 1, 0) == (0, 1,
    0)``); the fields and the grading (a ``PiBDegree`` with no ``W1`` part)
    are read-only properties, the grading computed on each read.
    """

    __slots__ = ()

    def __new__(cls, family: int, u: int, v: int):
        if not _exists(family, u, v):
            raise ValueError(f"no point-ring monomial HMonomial(family={family}, u={u}, v={v})")
        return tuple.__new__(cls, (family, u, v))

    def __getnewargs__(self):
        return tuple(self)

    family = property(itemgetter(0))
    u = property(itemgetter(1))
    v = property(itemgetter(2))

    @property
    def grading(self) -> PiBDegree:
        _, u, v = self
        return PiBDegree(0, -2 * v, u + 2 * v)

    def __repr__(self) -> str:
        return "HMonomial(family={}, u={}, v={})".format(*self)

    def __str__(self) -> str:
        family, u, v = self
        if family == KAPPA:
            return f"e^{u}*kappa"
        if family == TRANSFER:
            return f"tau(i^{2 * v})" if v else "g"
        return monomial_text((u, v))


MONO_ONE = HMonomial(PLAIN, 0, 0)
MONO_G = HMonomial(TRANSFER, 0, 0)


def _member(family: int, w: int) -> list[tuple[HMonomial, int]]:
    """The member at w of a family along its axis, e^w*kappa or tau(i^2w),
    for any integer w, as (monomial, coefficient) pairs."""
    uv = (w, 0) if family == KAPPA else (0, w)
    if w > 0:  # e^w*kappa = 2e^w, tau(i^2w) = 2*xi^w
        return [(HMonomial(PLAIN, *uv), 2)]
    if w == 0 and family == KAPPA:
        return [(MONO_ONE, 2), (MONO_G, -1)]  # kappa = 2 - g
    return [(HMonomial(family, *uv), 1)]


def _mono_mul(x: HMonomial, y: HMonomial) -> list[tuple[HMonomial, int]]:
    """Product of two monomials as a list of (monomial, coefficient) pairs,
    by the three laws of the module docstring."""
    if x[0] > y[0]:
        x, y = y, x  # y is a family member when either factor is
    fx, ux, vx = x
    fy, uy, vy = y
    if not (fx or ux or vx):
        return [(y, 1)]
    if not (fy or uy or vy):
        return [(x, 1)]
    u, v = ux + uy, vx + vy
    if fy == PLAIN:
        return [(HMonomial(PLAIN, u, v), 1)]
    along, across = (u, v) if fy == KAPPA else (v, u)
    if across:  # a kappa factor is always across the transfer axis
        return []
    if fx == PLAIN:
        return _member(fy, along)
    return [(mono, 2 * c) for mono, c in _member(fy, along)]


class Scalar:
    """Integer combinations of monomials in a normal form: the shared core.

    Supports ==, hash, +, -, * (with elements of the same class and with
    ints), exact halving and the signed ``coeff*monomial`` text.  Arithmetic
    builds its results with ``type(self)``, whose ``__init__`` puts a dict
    of terms into normal form; a subclass supplies that and three hooks:
    the unit monomial ``_UNIT``, the monomial product ``_mono_mul`` (a list
    of (monomial, coefficient) pairs), and ``_mono_text`` for printing.  The
    terms print in the natural order of their monomials.  Scalars of
    different classes never mix.
    """

    __slots__ = ("terms",)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def from_int(cls, c: int):
        return cls({cls._UNIT: c})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.from_int(other)
        elif type(other) is not type(self):
            return NotImplemented  # scalars of different rings never mix
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = self.from_int(other)
        elif type(other) is not type(self):
            return NotImplemented
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            merged[mono] = merged.get(mono, 0) + coeff
        return type(self)(merged)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({m: other * c for m, c in self.terms.items()})
        if type(other) is not type(self):
            return NotImplemented
        mono_mul = self._mono_mul
        out: dict = {}
        for mx, cx in self.terms.items():
            for my, cy in other.terms.items():
                for mono, c in mono_mul(mx, my):
                    out[mono] = out.get(mono, 0) + cx * cy * c
        return type(self)(out)

    __rmul__ = __mul__

    def divide_by_two(self):
        """Exact division by 2; raises ArithmeticError when not divisible."""
        halved = {}
        for mono, coeff in self.terms.items():
            if coeff % 2:
                raise ArithmeticError(f"{self} is not divisible by 2")
            halved[mono] = coeff // 2
        return type(self)(halved)

    def __str__(self) -> str:
        """Canonical text form: signed sum of coeff*monomial."""
        chunks = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            body = self._mono_text(mono)
            if body == "1":
                chunk = str(abs(coeff))
            elif abs(coeff) == 1:
                chunk = body
            else:
                chunk = f"{abs(coeff)}*{body}"
            chunks.append(("-" if coeff < 0 else "") + chunk)
        return join_signed(chunks)

    __repr__ = __str__


class HElement(Scalar):
    """A homogeneous element of the point ring in normal form.

    The grading is read off the support; the zero element is
    grading-agnostic.  A subclass that only changes the normal form in
    ``__init__`` is a quotient ring with the same monomials and monomial
    product (see ``variants.ZHElement``).

    >>> g = HElement.monomial(MONO_G)
    >>> print(g * g)
    2*g
    >>> print(kappa() * kappa() - 2 * kappa())
    0
    """

    __slots__ = ()

    _UNIT = MONO_ONE
    _mono_mul = staticmethod(_mono_mul)
    _mono_text = staticmethod(HMonomial.__str__)

    def __init__(self, terms: dict[HMonomial, int]):
        clean: dict[HMonomial, int] = {}
        first = None  # (u, v) determines the grading, so compare those
        for mono, coeff in terms.items():
            _, u, v = mono
            if u and v:  # e^u*xi^v with u, v >= 1
                coeff %= 2
            if not coeff:
                continue
            if first is None:
                first, fu, fv = mono, u, v
            elif u != fu or v != fv:
                raise ValueError(
                    f"mixed gradings in element: {mono.grading} vs {first.grading}"
                )
            clean[mono] = coeff
        self.terms = clean

    # own binding: bench/tracer.py times point-ring products through
    # vars(HElement)["__mul__"]
    __mul__ = __rmul__ = Scalar.__mul__

    @classmethod
    def monomial(cls, mono: HMonomial, coeff: int = 1) -> "HElement":
        return cls({mono: coeff})

    @classmethod
    def from_burnside(cls, x: "HElement") -> "HElement":
        """Carry a Burnside scalar into this ring's normal form."""
        return cls(dict(x.terms))

    @property
    def grading(self) -> PiBDegree | None:
        """Common grading of the support; None for the zero element."""
        for mono in self.terms:
            return mono.grading
        return None

    # hooks used by the generic module rewrite engine.  Each is built on
    # first use and then shared: one value per ring class (and per n for
    # ring_xi), keyed by the class, so a subclass never gets its parent's.
    # Sharing is safe because no scalar is changed in place.

    @classmethod
    @cache
    def ring_one(cls) -> "HElement":
        return cls.from_int(1)

    @classmethod
    @cache
    def ring_u(cls) -> "HElement":
        # the unit u = 1 - kappa = g - 1, with u^2 = 1
        return cls({MONO_G: 1, MONO_ONE: -1})

    @classmethod
    @cache
    def ring_e2(cls) -> "HElement":
        return cls.monomial(HMonomial(PLAIN, 2, 0))

    @classmethod
    @cache
    def ring_xi(cls, n: int) -> "HElement":
        return cls.monomial(HMonomial(PLAIN, 0, n))


def one() -> HElement:
    return HElement.from_int(1)


def g() -> HElement:
    return HElement.monomial(MONO_G)


def kappa() -> HElement:
    return e_power_kappa(0)


def e(m: int = 1) -> HElement:
    return HElement.monomial(HMonomial(PLAIN, m, 0))


def einvkappa(m: int) -> HElement:
    return HElement.monomial(HMonomial(KAPPA, -m, 0))


def xi(n: int = 1) -> HElement:
    return HElement.monomial(HMonomial(PLAIN, 0, n))


def exi(m: int, n: int) -> HElement:
    return HElement.monomial(HMonomial(PLAIN, m, n))


def tauinv(n: int) -> HElement:
    return HElement.monomial(HMonomial(TRANSFER, 0, -n))


def tau_iota(k: int) -> HElement:
    """tau(i^2k) for any integer k: tau(1) = g and tau(i^2k) = 2*xi^k."""
    return HElement(dict(_member(TRANSFER, k)))


def e_power_kappa(j: int) -> HElement:
    """e^j * kappa for any integer j (2e^j for j > 0, kappa at j = 0)."""
    return HElement(dict(_member(KAPPA, j)))


def h_rho(x: HElement) -> tuple[int, int]:
    """Restriction to the nonequivariant point: (coefficient, iota exponent).

    The image lands in Z[i^(+-1)] and is an integer multiple of a single
    power of i; the second component is that power (0 when the image is 0).
    The transfer classes restrict to twice a power of i.
    """
    total = 0
    carrier = 0
    for mono, coeff in x.terms.items():
        if mono.family == TRANSFER:
            total += 2 * coeff
        elif mono.family == PLAIN and not mono.u:
            total += coeff
        else:
            continue
        carrier = mono.u + 2 * mono.v  # the s part of the grading
    if total == 0:
        return (0, 0)
    return (total, carrier)


def h_fixed(x: HElement) -> int:
    """Value of the fixed-point map, an integer."""
    total = 0
    for mono, coeff in x.terms.items():
        if mono.family == KAPPA:
            total += 2 * coeff
        elif mono.family == PLAIN and not mono.v:
            total += coeff
    return total


def in_T(x: HElement) -> bool:
    """Membership in the subgroup T of allowed Euler-class coefficients.

    T consists of the whole degree-0 ring, all multiples of e^m and of
    e^-m*kappa and of tau(i^-2n), and the even multiples of xi^n (these
    being the integer multiples of tau(i^2n)).  No e^m*xi^n class is in T.
    """
    # only plain monomials have v > 0
    return not any(mono.v > 0 and (mono.u or coeff % 2) for mono, coeff in x.terms.items())


def in_Ie(x: HElement) -> bool:
    """Membership in the ideal I_e inside T.

    On top of T-membership this requires the unit coefficient in degree 0
    and all e^m coefficients to be even.
    """
    return in_T(x) and not any(
        mono.family == PLAIN and not mono.v and coeff % 2
        for mono, coeff in x.terms.items()
    )


def monomials_in_grading(a: int, b: int) -> list[HMonomial]:
    """Generators of the even-column point ring in grading ``a + b*s``."""
    if a % 2:
        return []
    # e^u * xi^v has grading -2v + (u + 2v)*s
    u, v = a + b, -a // 2
    return [HMonomial(f, u, v) for f in (PLAIN, KAPPA, TRANSFER) if _exists(f, u, v)]
