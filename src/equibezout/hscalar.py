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

so degree 0 is the Burnside ring on 1 and g, with g^2 = 2g, and every other
grading holds one group: Z/2 at u, v >= 1, Z elsewhere on the axes and in
the plain quadrant, and nothing off them.  Each of the two other families
continues along its axis (u for kappa, v for the transfers) past the origin
into the plain monomials: e^u*kappa is kappa = 2 - g at u = 0 and 2e^u for
u > 0, and tau(i^2v) is 2*xi^v for v > 0.  A monomial is the tuple
``(family, u, v)`` (:class:`HMonomial`), the form in which it prints and
parses; it hashes, compares and orders as that bare tuple, with tuple's C
slots.

A homogeneous element is therefore four integers, :class:`HElement`
``(u, v, c, g)``: ``c`` is the coefficient of the one monomial at (u, v)
other than g, whose family the signs of u and v fix (kappa for u < 0,
transfer for v < 0, plain otherwise), and ``g`` is the coefficient of g,
nonzero only at the origin.  In a product the signed exponents always add,
and the product of two family members is three laws (``_family_product``):

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


def _text_at(u: int, v: int) -> str:
    """The monomial at (u, v) other than g, as text."""
    if u < 0:
        return f"e^{u}*kappa"
    if v < 0:
        return f"tau(i^{2 * v})"
    return monomial_text((u, v))


def signed_term(coeff: int, body: str) -> str:
    """``coeff*body`` with its sign in front, the factor 1 and the body "1"
    left out."""
    if body == "1":
        chunk = str(abs(coeff))
    elif abs(coeff) == 1:
        chunk = body
    else:
        chunk = f"{abs(coeff)}*{body}"
    return "-" + chunk if coeff < 0 else chunk


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
        return "g" if self == MONO_G else _text_at(self[1], self[2])


MONO_ONE = HMonomial(PLAIN, 0, 0)
MONO_G = HMonomial(TRANSFER, 0, 0)


def _family_product(fx: int, fy: int, u: int, v: int) -> tuple[int, int]:
    """The product of a family-``fx`` and a family-``fy`` monomial whose
    exponents sum to (u, v), as (coefficient at (u, v), coefficient of g),
    by the three laws of the module docstring."""
    if fx > fy:
        fx, fy = fy, fx  # fy is a family member when either factor is
    if fy == PLAIN:
        return 1, 0
    along, across = (u, v) if fy == KAPPA else (v, u)
    if across:  # a kappa factor is always across the transfer axis
        return 0, 0
    k = 1 if fx == PLAIN else 2
    if along > 0:  # e^w*kappa = 2e^w, tau(i^2w) = 2*xi^w
        return 2 * k, 0
    if along < 0:
        return k, 0
    return (2 * k, -k) if fy == KAPPA else (0, k)  # kappa = 2 - g, tau(1) = g


class Scalar:
    """The operators a scalar ring derives from its own ``+``, ``-x`` and
    ``from_int``."""

    __slots__ = ()

    @classmethod
    def zero(cls):
        return cls.from_int(0)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


class HElement(Scalar):
    """A homogeneous element of the point ring: the fields (u, v, c, g) of
    the module docstring.

    The constructor is the normal form: it reduces c mod 2 at u, v >= 1 and
    raises ValueError for a nonzero c where the ring has no group or a
    nonzero g off the origin.  Zero is grading-agnostic: it is stored at the
    origin, so all zeros are equal and hash alike.  A subclass that only
    changes the normal form in ``__init__`` is a quotient ring with the same
    product (see ``variants.ZHElement``).  Scalars of different classes
    never mix.

    >>> g = HElement.monomial(MONO_G)
    >>> print(g * g)
    2*g
    >>> print(kappa() * kappa() - 2 * kappa())
    0
    """

    __slots__ = ("u", "v", "c", "g")

    def __init__(self, u: int, v: int, c: int, g: int = 0):
        if u and v:  # off both axes: Z/2 at u, v >= 1 and no group elsewhere
            if u > 0 < v:
                c %= 2
            elif c:
                raise ValueError(f"no point-ring group at u={u}, v={v}")
        if g and (u or v):
            raise ValueError(f"a g term at u={u}, v={v}: g lies at the origin")
        if not (c or g):
            u = v = 0
        self.u = u
        self.v = v
        self.c = c
        self.g = g

    @classmethod
    def monomial(cls, mono: HMonomial, coeff: int = 1) -> "HElement":
        return cls(0, 0, 0, coeff) if mono == MONO_G else cls(mono[1], mono[2], coeff)

    @classmethod
    def from_int(cls, c: int) -> "HElement":
        return cls(0, 0, c)

    @classmethod
    def from_burnside(cls, x: "HElement") -> "HElement":
        """Carry a Burnside scalar into this ring's normal form."""
        return cls(x.u, x.v, x.c, x.g)

    @property
    def grading(self) -> PiBDegree | None:
        """The grading of (u, v); None for the zero element."""
        if not (self.c or self.g):
            return None
        return PiBDegree(0, -2 * self.v, self.u + 2 * self.v)

    def __bool__(self) -> bool:
        return bool(self.c or self.g)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            if not isinstance(other, int):
                return NotImplemented  # scalars of different rings never mix
            other = self.from_int(other)
        return (self.c == other.c and self.g == other.g
                and self.u == other.u and self.v == other.v)

    def __hash__(self):
        return hash((self.u, self.v, self.c, self.g))

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, int):
                return NotImplemented
            other = self.from_int(other)
        if self.u == other.u and self.v == other.v:
            return type(self)(self.u, self.v, self.c + other.c, self.g + other.g)
        if not other:
            return self
        if not self:
            return other
        raise ValueError(f"mixed gradings in element: {other.grading} vs {self.grading}")

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.u, self.v, -self.c, -self.g)

    def __mul__(self, other):
        cls = type(self)
        if type(other) is not cls:
            if not isinstance(other, int):
                return NotImplemented
            return cls(self.u, self.v, self.c * other, self.g * other)
        xu, xv, xc, xg = self.u, self.v, self.c, self.g
        yu, yv, yc, yg = other.u, other.v, other.c, other.g
        u, v = xu + yu, xv + yv
        fx = KAPPA if xu < 0 else TRANSFER if xv < 0 else PLAIN
        fy = KAPPA if yu < 0 else TRANSFER if yv < 0 else PLAIN
        c, g = _family_product(fx, fy, u, v)
        c, g = xc * yc * c, xc * yc * g
        if xg or yg:  # a factor with a g term sits at the origin
            for f1, f2, k in ((fx, TRANSFER, xc * yg), (TRANSFER, fy, xg * yc),
                              (TRANSFER, TRANSFER, xg * yg)):
                if k:
                    dc, dg = _family_product(f1, f2, u, v)
                    c, g = c + k * dc, g + k * dg
        return cls(u, v, c, g)

    __rmul__ = __mul__

    def divide_by_two(self):
        """Exact division by 2; raises ArithmeticError when not divisible."""
        if self.c % 2 or self.g % 2:
            raise ArithmeticError(f"{self} is not divisible by 2")
        return type(self)(self.u, self.v, self.c // 2, self.g // 2)

    def __str__(self) -> str:
        """Canonical text form: signed sum of coeff*monomial, 1 before g."""
        chunks = [signed_term(self.c, _text_at(self.u, self.v))] if self.c else []
        if self.g:
            chunks.append(signed_term(self.g, "g"))
        return join_signed(chunks)

    __repr__ = __str__

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
        return cls(0, 0, -1, 1)

    @classmethod
    @cache
    def ring_e2(cls) -> "HElement":
        return cls(2, 0, 1)

    @classmethod
    @cache
    def ring_xi(cls, n: int) -> "HElement":
        return cls(0, n, 1)


def one() -> HElement:
    return HElement.from_int(1)


def g() -> HElement:
    return HElement(0, 0, 0, 1)


def kappa() -> HElement:
    return e_power_kappa(0)


def e(m: int = 1) -> HElement:
    return HElement(m, 0, 1)


def einvkappa(m: int) -> HElement:
    return HElement(-m, 0, 1)


def xi(n: int = 1) -> HElement:
    return HElement(0, n, 1)


def exi(m: int, n: int) -> HElement:
    return HElement(m, n, 1)


def tauinv(n: int) -> HElement:
    return HElement(0, -n, 1)


def tau_iota(k: int) -> HElement:
    """tau(i^2k) for any integer k: tau(1) = g and tau(i^2k) = 2*xi^k."""
    return HElement(0, k, *_family_product(PLAIN, TRANSFER, 0, k))


def e_power_kappa(j: int) -> HElement:
    """e^j * kappa for any integer j (2e^j for j > 0, kappa at j = 0)."""
    return HElement(j, 0, *_family_product(PLAIN, KAPPA, j, 0))


def h_rho(x: HElement) -> tuple[int, int]:
    """Restriction to the nonequivariant point: (coefficient, iota exponent).

    The image lands in Z[i^(+-1)] and is an integer multiple of a single
    power of i; the second component is that power (0 when the image is 0).
    The transfer classes restrict to twice a power of i.
    """
    if x.u:  # e^u*xi^v with u >= 1 and the kappa family restrict to 0
        return (0, 0)
    total = (2 * x.c if x.v < 0 else x.c) + 2 * x.g
    return (total, 2 * x.v) if total else (0, 0)


def h_fixed(x: HElement) -> int:
    """Value of the fixed-point map, an integer."""
    if x.v:  # xi^v with v >= 1 and the transfers other than g fix to 0
        return 0
    return 2 * x.c if x.u < 0 else x.c


def in_T(x: HElement) -> bool:
    """Membership in the subgroup T of allowed Euler-class coefficients.

    T consists of the whole degree-0 ring, all multiples of e^m and of
    e^-m*kappa and of tau(i^-2n), and the even multiples of xi^n (these
    being the integer multiples of tau(i^2n)).  No e^m*xi^n class is in T.
    """
    return not (x.v > 0 and (x.u or x.c % 2))


def in_Ie(x: HElement) -> bool:
    """Membership in the ideal I_e inside T.

    On top of T-membership this requires the unit coefficient in degree 0
    and all e^m coefficients to be even.
    """
    return in_T(x) and not (x.v == 0 and x.u >= 0 and x.c % 2)


def monomials_in_grading(a: int, b: int) -> list[HMonomial]:
    """Generators of the even-column point ring in grading ``a + b*s``."""
    if a % 2:
        return []
    # e^u * xi^v has grading -2v + (u + 2v)*s
    u, v = a + b, -a // 2
    return [HMonomial(f, u, v) for f in (PLAIN, KAPPA, TRANSFER) if _exists(f, u, v)]
