"""Exact arithmetic in the even-column part of the equivariant point ring.

The coefficient ring for everything in this package is the RO(C2)-graded
equivariant cohomology of a point with Burnside-ring coefficients.  We
only ever need its even-column part, which is spanned by the monomials

    1, g            (degree 0; the Burnside ring, g^2 = 2g)
    e^m             (degree m*s)
    e^-m * kappa    (degree -m*s, where kappa = 2 - g)
    xi^n            (degree -2n + 2n*s)
    e^m * xi^n      (degree -2n + (m+2n)*s; a Z/2 class, 2*e*xi = 0)
    tau(i^-2n)      (degree 2n - 2n*s; transfer of a negative power of
                     the nonequivariant invertible class i)

Every monomial sits at signed exponents (u, v) of e and xi: the plain
monomials e^m*xi^n at (m, n) >= 0, the kappa family e^-m*kappa at (-m, 0)
and the transfers tau(i^-2n) at (0, -n).  Each family continues through
the origin: e^j*kappa is kappa = 2 - g at j = 0 and 2e^j for j > 0, and
tau(i^2k) is tau(1) = g at k = 0 and 2*xi^k for k > 0.

An :class:`HElement` is a graded-homogeneous integer combination of these
monomials in normal form (no zero coefficients, e^m*xi^n coefficients
reduced mod 2), on the ring core :class:`Scalar` that the constant-Z and
Borel scalars share.  The monomial product is three laws on the signed
exponents, which always add:

* plain times plain is the plain monomial at the sum;
* plain times a family member is the family member at the sum, and zero
  when the plain monomial has a nonzero exponent across the family's axis
  (e*tau(y) = tau(rho(e)*y) = 0, xi*e^-m*kappa = 0);
* two members of one family give twice the member at the sum
  (kappa^2 = 2*kappa, tau(x)*tau(y) = tau(x*rho(tau(y))) = 2*tau(xy)), and
  kappa times a transfer is zero (kappa*tau(y) = tau(rho(kappa)*y) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .grading import PiBDegree, join_signed

ONE = "one"
G = "g"
E = "e"  # e^m, m >= 1
EIK = "eik"  # e^-m * kappa, m >= 1
XI = "xi"  # xi^n, n >= 1
EXI = "exi"  # e^m * xi^n, m, n >= 1; coefficient lives in Z/2
TAUINV = "tauinv"  # tau(i^-2n), n >= 1

_KINDS = (ONE, G, E, EIK, XI, EXI, TAUINV)


@dataclass(frozen=True, order=True)
class HMonomial:
    """One monomial of the point ring, tagged by kind.

    ``m`` is the e-exponent (or kappa shift), ``n`` the xi (or inverse-iota)
    exponent; unused slots stay 0.  The grading (a ``PiBDegree`` with no
    ``W1`` part) and the hash are computed once, at construction; neither
    takes part in ==, ordering or repr.
    """

    kind: str
    m: int = 0
    n: int = 0
    grading: PiBDegree = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kind, m, n = self.kind, self.m, self.n
        if kind in (ONE, G):
            if m or n:
                raise ValueError(f"bad exponents for {kind}: {self}")
            grading = PiBDegree(0, 0, 0)
        elif kind in (E, EIK):
            if m < 1 or n != 0:
                raise ValueError(f"bad exponents for {kind}: {self}")
            grading = PiBDegree(0, 0, m if kind == E else -m)
        elif kind in (XI, TAUINV):
            if n < 1 or m != 0:
                raise ValueError(f"bad exponents for {kind}: {self}")
            grading = PiBDegree(0, -2 * n, 2 * n) if kind == XI else PiBDegree(0, 2 * n, -2 * n)
        elif kind == EXI:
            if m < 1 or n < 1:
                raise ValueError(f"bad exponents for exi: {self}")
            grading = PiBDegree(0, -2 * n, m + 2 * n)
        else:
            raise ValueError(f"unknown monomial kind {kind!r}")
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "_hash", hash((kind, m, n)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if self.kind == ONE:
            return "1"
        if self.kind == G:
            return "g"
        if self.kind == E:
            return "e" if self.m == 1 else f"e^{self.m}"
        if self.kind == EIK:
            return f"e^-{self.m}*kappa"
        if self.kind == XI:
            return "xi" if self.n == 1 else f"xi^{self.n}"
        if self.kind == EXI:
            return f"{HMonomial(E, self.m)}*{HMonomial(XI, n=self.n)}"
        return f"tau(i^-{2 * self.n})"


MONO_ONE = HMonomial(ONE)
MONO_G = HMonomial(G)


def _at(u: int, v: int) -> HMonomial | None:
    """The monomial at signed exponents (u, v); None where the group is zero."""
    if v == 0:
        return HMonomial(E, u) if u > 0 else HMonomial(EIK, -u) if u else MONO_ONE
    if u == 0:
        return HMonomial(XI, n=v) if v > 0 else HMonomial(TAUINV, n=-v)
    return HMonomial(EXI, u, v) if u > 0 and v > 0 else None


def _kappa_at(j: int) -> list[tuple[HMonomial, int]]:
    """e^j * kappa for any integer j, as (monomial, coefficient) pairs."""
    if j == 0:
        return [(MONO_ONE, 2), (MONO_G, -1)]  # kappa = 2 - g
    return [(_at(j, 0), 1 if j < 0 else 2)]


def _tau_at(k: int) -> list[tuple[HMonomial, int]]:
    """tau(i^2k) for any integer k, as (monomial, coefficient) pairs."""
    if k == 0:
        return [(MONO_G, 1)]  # tau(1) = g
    return [(_at(0, k), 1 if k < 0 else 2)]


# the family of each family kind: the axis of the signed exponents it
# moves along (0 for e, 1 for xi) and its normaliser
_FAMILY = {EIK: (0, _kappa_at), G: (1, _tau_at), TAUINV: (1, _tau_at)}


def _mono_mul(x: HMonomial, y: HMonomial) -> list[tuple[HMonomial, int]]:
    """Product of two monomials as a list of (monomial, coefficient) pairs,
    by the three laws of the module docstring."""
    if x.kind == ONE:
        return [(y, 1)]
    if y.kind == ONE:
        return [(x, 1)]
    fx, fy = _FAMILY.get(x.kind), _FAMILY.get(y.kind)
    # signed exponents add; a family member's are (-m, -n), so g's are (0, 0)
    sx, sy = (-1 if fx else 1), (-1 if fy else 1)
    uv = (sx * x.m + sy * y.m, sx * x.n + sy * y.n)
    if not (fx or fy):  # plain * plain
        return [(_at(*uv), 1)]
    if fx and fy:  # one family twice, or kappa * transfer
        if fx != fy:
            return []
        axis, at = fx
        return [(mono, 2 * c) for mono, c in at(uv[axis])]
    axis, at = fx or fy  # plain * family member
    return [] if uv[1 - axis] else at(uv[axis])


class Scalar:
    """Integer combinations of monomials in a normal form: the shared core.

    Supports ==, hash, +, -, * (with elements of the same class and with
    ints), exact halving and the signed ``coeff*monomial`` text.  Arithmetic
    builds its results with ``type(self)``, whose ``__init__`` puts a dict
    of terms into normal form; a subclass supplies that and four hooks: the
    unit monomial ``_UNIT``, the monomial product ``_mono_mul`` (a list of
    (monomial, coefficient) pairs), and ``_mono_text`` / ``_mono_key`` for
    printing.  Scalars of different classes never mix.
    """

    __slots__ = ("terms",)

    _mono_key = None  # print the monomials in their natural order

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
        for mono in sorted(self.terms, key=self._mono_key):
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
    _mono_key = staticmethod(lambda mono: (_KINDS.index(mono.kind), mono.m, mono.n))

    def __init__(self, terms: dict[HMonomial, int]):
        clean: dict[HMonomial, int] = {}
        grading = None
        for mono, coeff in terms.items():
            if mono.kind == EXI:
                coeff %= 2
            if not coeff:
                continue
            if grading is None:
                grading = mono.grading
            elif mono.grading != grading:
                raise ValueError(
                    f"mixed gradings in element: {mono.grading} vs {grading}"
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
        return cls.monomial(HMonomial(E, 2))

    @classmethod
    @cache
    def ring_xi(cls, n: int) -> "HElement":
        return cls.monomial(HMonomial(XI, n=n))


def one() -> HElement:
    return HElement.from_int(1)


def g() -> HElement:
    return HElement.monomial(MONO_G)


def kappa() -> HElement:
    return e_power_kappa(0)


def e(m: int = 1) -> HElement:
    return HElement.monomial(HMonomial(E, m))


def einvkappa(m: int) -> HElement:
    return HElement.monomial(HMonomial(EIK, m))


def xi(n: int = 1) -> HElement:
    return HElement.monomial(HMonomial(XI, n=n))


def exi(m: int, n: int) -> HElement:
    return HElement.monomial(HMonomial(EXI, m, n))


def tauinv(n: int) -> HElement:
    return HElement.monomial(HMonomial(TAUINV, n=n))


def tau_iota(k: int) -> HElement:
    """tau(i^2k) for any integer k: tau(1) = g and tau(i^2k) = 2*xi^k."""
    return HElement(dict(_tau_at(k)))


def e_power_kappa(j: int) -> HElement:
    """e^j * kappa for any integer j (2e^j for j > 0, kappa at j = 0)."""
    return HElement(dict(_kappa_at(j)))


# images of the monomials under the two restriction maps
_RHO = {ONE: 1, G: 2, E: 0, EIK: 0, XI: 1, EXI: 0, TAUINV: 2}
_FIXED = {ONE: 1, G: 0, E: 1, EIK: 2, XI: 0, EXI: 0, TAUINV: 0}


def h_rho(x: HElement) -> tuple[int, int]:
    """Restriction to the nonequivariant point: (coefficient, iota exponent).

    The image lands in Z[i^(+-1)] and is an integer multiple of a single
    power of i; the second component is that power (0 when the image is 0).
    The transfer classes restrict to twice a power of i.
    """
    total = 0
    carrier = 0
    for mono, coeff in x.terms.items():
        v = _RHO[mono.kind]
        if v:
            total += coeff * v
            carrier = mono.grading.b
    if total == 0:
        return (0, 0)
    return (total, carrier)


def h_fixed(x: HElement) -> int:
    """Value of the fixed-point map, an integer."""
    return sum(coeff * _FIXED[mono.kind] for mono, coeff in x.terms.items())


def in_T(x: HElement) -> bool:
    """Membership in the subgroup T of allowed Euler-class coefficients.

    T consists of the whole degree-0 ring, all multiples of e^m and of
    e^-m*kappa and of tau(i^-2n), and the even multiples of xi^n (these
    being the integer multiples of tau(i^2n)).  No e^m*xi^n class is in T.
    """
    for mono, coeff in x.terms.items():
        if mono.kind == EXI:
            return False
        if mono.kind == XI and coeff % 2:
            return False
    return True


def in_Ie(x: HElement) -> bool:
    """Membership in the ideal I_e inside T.

    On top of T-membership this requires the unit coefficient in degree 0
    and all e^m coefficients to be even.
    """
    if not in_T(x):
        return False
    for mono, coeff in x.terms.items():
        if mono.kind in (ONE, E) and coeff % 2:
            return False
    return True


def monomials_in_grading(a: int, b: int) -> list[HMonomial]:
    """Generators of the even-column point ring in grading ``a + b*s``."""
    if a % 2:
        return []
    # e^u * xi^v has grading -2v + (u + 2v)*s
    mono = _at(a + b, -a // 2)
    if mono is MONO_ONE:
        return [MONO_ONE, MONO_G]
    return [mono] if mono else []
