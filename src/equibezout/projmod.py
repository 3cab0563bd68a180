"""The cohomology of a finite equivariant projective space as a free module.

``X(p, q)`` is the complex projective space of ``C^p + (C^sigma)^q``.  Its
cohomology is a free module over the point ring with one basis element
``P_i`` in each extended degree class ``m``, for ``0 <= i < p+q``, where
``P_i`` restricts to ``c^i`` nonequivariantly.  Multiplicatively the ring
is generated by four classes, written here ``z0``, ``z1``, ``cw``, ``cxw``,
subject to

    z0*z1 = xi,   z1*cxw = (1-kappa)*z0*cw + e^2,   cw^p * cxw^q = 0,

together with "divided" classes ``z0^-k * cw^p`` and ``z1^-k * cxw^q``
(the unique elements returning ``cw^p`` resp. ``cxw^q`` after multiplying
back by the zeta power).  Every basis element is a monomial
``z0^s * z1^t * cw^a * cxw^b`` falling into one of six families; see
:class:`BasisMonomial`.  A basis monomial is the tuple
``(p, q, s, t, a, b)``: it hashes and compares equal to that bare exponent
tuple, with tuple's C slots, and its space ``.sp`` is rebuilt from
``(p, q)`` on each read.

Products are computed by a terminating rewrite system.  One step multiplies
a basis monomial by a generator monomial z0^s z1^t cw^a cxw^b of total
degree at most ``STEP_DEGREE`` = 3 and normalises the result in one call:
``gen_mul(step, x, coeff, out)``, where ``step`` is the exponent tuple
``(s, t, a, b)``.  ``_steps`` cuts a longer monomial into such steps.  A
line class, whose monomials have degree at most 3, is one step per
monomial, and ``_mul_into`` adds the terms of a product times a tuple of
``(step, coeff)`` pairs into one dict, one ``gen_mul`` per term and pair:
``mod_mul`` multiplies through it, and so does ``euler.euler_product``,
which keeps one dict across all its line classes.  A step starts from the
term's coefficient, so a walk does one scalar operation per rewrite rule
that fires, not one per image: a product by u, or a monomial shift by e^2
or xi^k (``HElement.shift``), which builds no constant.  It adds its images
into ``out``, the walk's dict for the next step, so a step builds no dict
or element of its own.  ``_mul_into`` scales each term before its step, so
a term that the scaling kills (2-torsion, as 2*e*xi = 0) takes no step at
all.  ``_normalize`` builds each image itself: it checks the family (a
``ValueError``, not an assert, with the text of ``_basis``), builds no
``ProjSpace`` and adds the image to ``out``.  The rules, one branch of
``_normalize`` each and fired in this order, with u = 1-kappa:

    vanish              cw^p * cxw^q = 0
    zeta cancel         z0*z1 = xi, and z0 * z1^-k = xi * z1^-(k+1) on a tower
    z1 cw^p division    z1^t * cw^p = xi^t * z0^-t * cw^p
    z0 cxw^q division   z0^s * cxw^q = xi^s * z1^-s * cxw^q
    z1*cxw              z1*cxw = u*z0*cw + e^2
    cxw tower           z1^t * cxw^b = xi * z1^(t-2) * cw * cxw^(b-1)
                                     + e^2 * z1^(t-1) * cxw^(b-1)   (t <= 0, b > q)
    z0^2*cw             z0^2 * cw = xi*cxw + e^2*z0, also for cw^(p+1)

The rules with one image fire before those with two, so a monomial that
both kinds match is rewritten in place, not branched: z1^t*cw^a*cxw^b with
a >= p and b > 0 takes one division, not the two images of z1*cxw, and
``raw_monomial`` can apply the same three rules to a whole exponent before
it walks.  The last two rules follow from z1*cxw by u*xi = xi and u*e^2 =
-e^2, which hold in both engine rings, so only the z1*cxw rule multiplies
by u.  The cxw tower rule is z1*cxw = u*z0*cw + e^2 applied once, from the
left: z1^t*cxw^b = z1^(t-1) * (u*z0*cw + e^2) * cxw^(b-1), with z0*z1^(t-1)
= xi*z1^(t-2) on the tower.  It holds for every b > q, and each image keeps
b - 1 powers of cxw, which the rule lowers again until b = q.  A
one-generator step reaches the tower with b = q + 1 at most, but a step
with cxw^2 or more goes higher, so the images must keep b - 1, not q.

Every rule is an identity of the ring, so whatever basis monomials a
rewrite ends in represent the product; a rewrite that stopped at a pattern
outside the six families would raise in ``_normalize``, not return a wrong
class.  That the rules reach a basis monomial from x times any step of
degree at most 3, for every basis monomial x, is checked against the walk
of one generator at a time: exhaustively in the test suite for X(p, q) with
p, q <= 3, and by a wider run over p, q <= 6 in both rings (404,740 cases,
every degree class with |m| <= p + q + 2, all agreeing with the rules in
the order above; 8 s on one Xeon core).  The cap on a step's degree is
for speed (steps of degree up to 5 agree as well, for p, q <= 3): the
two-image rules recurse, so normalising a whole summed exponent of degree k
branches up to 2^k ways, while a walk merges equal images in its dict after
each step.  Over X(24, 24), cw^20 * cw^20 made 314 ``_normalize`` calls in
steps of degree 3 and 131,071 in one step of degree 20.  The operator
identities in the test suite exercise every rule.

The engine is generic over the coefficient ring, and a step's ring is the
class of its coefficient: the Burnside ring ``HElement``, or the constant-Z
``ZHElement``, ``HElement`` with another normal form (kappa = 0, so the
unit 1-kappa collapses to 1).  The relations hold over both, so no step
takes the ring as an argument: ``_normalize`` reads u from the
coefficient's class, ``coeff.ring_u()``, one shared value per class, and
``coeff.shift(i, j)`` is ``coeff`` times e^i*xi^j.  A zero coefficient is
tested on the fields ``c`` and ``g``, which both rings share.  Engine
results are homogeneous by construction, so the engine builds them with the
private ``ModuleElement._trusted``, which skips the per-term grading check
that the public constructor makes: once per product, walk or ``apply_gen``
call, never per step.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .grading import PiBDegree, join_signed
from .hscalar import HElement, h_fixed, h_rho, in_T, signed_term

ALPHA = "alpha"  # z1^t * cw^a            t >= 1, a <= p-1
BETA = "beta"  # z0^s * cxw^b             s >= 1, b <= q-1
GAMMA = "gamma"  # cw^a * cxw^b           a <= p, b <= q, (a,b) != (p,q)
DELTA = "delta"  # z0 * cw^a * cxw^b      1 <= a <= p, b <= q-1
EPS = "eps"  # z0^s * cw^p * cxw^b        s <= -1, b <= q-1 (divided)
ZETAF = "zetaf"  # z1^t * cw^a * cxw^q    t <= -1, a <= p-1 (divided)

# the largest total degree of one rewrite step; see the module docstring
STEP_DEGREE = 3


class UnsupportedProductError(ValueError):
    """Raised when both factors of a product carry divided monomials."""


class ProjSpace(tuple):
    """The projective space X(p, q), the tuple ``(p, q)``; requires p + q > 0."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p < 0 or q < 0 or p + q == 0:
            raise ValueError(f"invalid projective space X({p},{q})")
        return tuple.__new__(cls, (p, q))

    def __getnewargs__(self):
        return tuple(self)

    p = property(itemgetter(0))
    q = property(itemgetter(1))

    def __repr__(self) -> str:
        return "ProjSpace(p={}, q={})".format(*self)

    def __str__(self) -> str:
        return "X({},{})".format(*self)


def _family(p: int, q: int, s: int, t: int, a: int, b: int) -> str | None:
    if a < 0 or b < 0:
        return None
    if s == 0 and t >= 1 and a <= p - 1 and b == 0:
        return ALPHA
    if s >= 1 and t == 0 and a == 0 and b <= q - 1:
        return BETA
    if s == 0 and t == 0 and a <= p and b <= q and (a, b) != (p, q):
        return GAMMA
    if s == 1 and t == 0 and 1 <= a <= p and b <= q - 1:
        return DELTA
    if s <= -1 and t == 0 and a == p and b <= q - 1:
        return EPS
    if s == 0 and t <= -1 and a <= p - 1 and b == q:
        return ZETAF
    return None


def _basis(p: int, q: int, s: int, t: int, a: int, b: int) -> "BasisMonomial":
    """The basis monomial z0^s * z1^t * cw^a * cxw^b over X(p, q); raises
    ``ValueError`` when the exponents fall in none of the six families."""
    if _family(p, q, s, t, a, b) is None:
        raise _not_basis(p, q, s, t, a, b)
    return tuple.__new__(BasisMonomial, (p, q, s, t, a, b))


def _not_basis(p: int, q: int, s: int, t: int, a: int, b: int) -> ValueError:
    return ValueError(f"not a basis monomial of X({p},{q}): z0^{s}*z1^{t}*cw^{a}*cxw^{b}")


class BasisMonomial(tuple):
    """A canonical monomial z0^s * z1^t * cw^a * cxw^b over a fixed X(p, q).

    Exactly one of the six families holds; the constructor rejects any
    other exponent pattern.  The monomial is the tuple ``(p, q, s, t, a,
    b)``, so it hashes and compares as that bare exponent tuple, with
    tuple's own C slots, and monomials over different spaces differ.  The
    fields are read-only properties; ``sp`` is rebuilt from ``(p, q)`` on
    each read.  Derived data: the degree class ``mclass``, the position
    ``(A, B) = (a - s, s + b)`` in that class, and the restriction index
    ``i = a + b`` (the monomial restricts to ``c^i``).
    """

    __slots__ = ()

    def __new__(cls, sp: ProjSpace, s: int, t: int, a: int, b: int):
        return _basis(sp.p, sp.q, s, t, a, b)

    def __getnewargs__(self):
        return (self.sp, *self[2:])

    s = property(itemgetter(2))
    t = property(itemgetter(3))
    a = property(itemgetter(4))
    b = property(itemgetter(5))

    @property
    def sp(self) -> ProjSpace:
        return ProjSpace(self[0], self[1])

    @property
    def mclass(self) -> int:
        _, _, s, t, a, b = self
        return t - s + a - b

    @property
    def pos(self) -> tuple[int, int]:
        _, _, s, _, a, b = self
        return (a - s, s + b)

    @property
    def index(self) -> int:
        return self[4] + self[5]

    @property
    def grading(self) -> PiBDegree:
        A, B = self.pos
        return PiBDegree(self.mclass, 2 * A, 2 * B)

    def __repr__(self) -> str:
        return "BasisMonomial(sp={!r}, s={}, t={}, a={}, b={})".format(self.sp, *self[2:])

    def __str__(self) -> str:
        parts = []
        for name, exp in zip(("z0", "z1", "cw", "cxw"), self[2:]):
            if exp == 1:
                parts.append(name)
            elif exp:
                parts.append(f"{name}^{exp}")
        return "*".join(parts) if parts else "1"


def _basis_tuples(p: int, q: int, m: int) -> list[tuple[int, int, int, int]]:
    out = []
    a = b = 0  # generator exponents pushed forward so far
    while p and q:
        if m >= 0:
            out.append((0, m, a, b))
            p, m, a = p - 1, m - 1, a + 1
        else:
            out.append((-m, 0, a, b))
            q, m, b = q - 1, m + 1, b + 1
    if p:
        return out + [(0, m - j, a + j, b) for j in range(p)]
    return out + [(-m - j, 0, a, b + j) for j in range(q)]


def basis(sp: ProjSpace, m: int) -> list[BasisMonomial]:
    """The preferred basis of the degree class ``m``, ordered by index.

    Built by the pushforward recursion, run as a loop: peel off a pure
    zeta power and push the basis of the next smaller space forward by
    ``cw`` (m >= 0) or ``cxw`` (m < 0); the base cases are the
    single-variable spaces where one zeta class is invertible.

    >>> [str(P) for P in basis(ProjSpace(1, 1), 0)]
    ['1', 'z0*cw']
    """
    monos = [BasisMonomial(sp, *tup) for tup in _basis_tuples(sp.p, sp.q, m)]
    monos.sort(key=lambda x: x.index)
    if [x.index for x in monos] != list(range(sp.p + sp.q)):
        raise ValueError(f"the basis of class m={m} over {sp} is not indexed 0..p+q-1")
    return monos


class ModuleElement:
    """A finite combination of basis monomials with point-ring coefficients.

    Every coefficient is of the class ``ring``, and all terms must sit in
    a single total degree (monomial degree plus coefficient degree); the
    zero element is degree-agnostic.  Supports +, -, scaling by integers
    and scalars, and * via the rewrite engine; elements over different
    rings do not add.
    """

    __slots__ = ("sp", "ring", "terms")

    def __init__(self, sp: ProjSpace, terms: dict, ring=HElement):
        clean = {}
        grading = None
        p, q = sp.p, sp.q
        for mono, coeff in terms.items():
            if type(coeff) is not ring:
                raise ValueError(f"coefficient {coeff} not in {ring.__name__}")
            if not coeff:
                continue
            if mono[0] != p or mono[1] != q:
                raise ValueError(f"monomial {mono} not over {sp}")
            total = mono.grading + coeff.grading
            if grading is None:
                grading = total
            elif total != grading:
                raise ValueError(f"mixed gradings: {total} vs {grading}")
            clean[mono] = coeff
        self.sp = sp
        self.ring = ring
        self.terms = clean

    @classmethod
    def _trusted(cls, sp: ProjSpace, terms: dict, ring) -> "ModuleElement":
        """Wrap ``terms`` without the grading check; zero coefficients are
        dropped.  Only for results that are homogeneous by construction."""
        self = object.__new__(cls)
        self.sp = sp
        self.ring = ring
        self.terms = {mono: coeff for mono, coeff in terms.items() if coeff}
        return self

    @classmethod
    def zero(cls, sp: ProjSpace, ring=HElement) -> "ModuleElement":
        return cls(sp, {}, ring)

    @classmethod
    def unit(cls, sp: ProjSpace, ring=HElement) -> "ModuleElement":
        return cls(sp, {BasisMonomial(sp, 0, 0, 0, 0): ring.ring_one()}, ring)

    @property
    def grading(self) -> PiBDegree | None:
        for mono, coeff in self.terms.items():
            return mono.grading + coeff.grading
        return None

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.sp == other.sp and self.terms == other.terms

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if self.sp != other.sp:
            raise ValueError("elements over different spaces")
        if self.ring is not other.ring:
            raise ValueError("elements over different rings")
        # both operands are homogeneous, so one grading each decides the sum
        if self.terms and other.terms and other.grading != self.grading:
            raise ValueError(f"mixed gradings: {other.grading} vs {self.grading}")
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = merged.get(mono)
            merged[mono] = coeff if prev is None else prev + coeff
        return ModuleElement._trusted(self.sp, merged, self.ring)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement._trusted(
            self.sp, {m: -c for m, c in self.terms.items()}, self.ring
        )

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        """Multiply every coefficient by the scalar (or integer) ``c``."""
        return ModuleElement._trusted(
            self.sp, {m: coeff * c for m, coeff in self.terms.items()}, self.ring
        )

    def __mul__(self, other):
        if isinstance(other, ModuleElement):
            return mod_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def divide_by_two(self) -> "ModuleElement":
        return ModuleElement._trusted(
            self.sp, {m: c.divide_by_two() for m, c in self.terms.items()}, self.ring
        )

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda mc: (mc[0].index, mc[0].a))

    def __str__(self) -> str:
        chunks = []
        for mono, coeff in self.sorted_terms():
            ctext = str(coeff)
            mtext = str(mono)
            if mtext == "1":
                chunks.append(ctext)
            elif ctext == "1":
                chunks.append(mtext)
            elif ctext == "-1":
                chunks.append(f"-{mtext}")
            elif coeff.c and coeff.g:
                chunks.append(f"({ctext})*{mtext}")
            else:
                chunks.append(f"{ctext}*{mtext}")
        return join_signed(chunks)

    __repr__ = __str__


def _normalize(p: int, q: int, coeff, s, t, a, b, out: dict) -> None:
    """Rewrite z0^s z1^t cw^a cxw^b * coeff over X(p, q) into normal form,
    into ``out``.

    One branch per rule of the module docstring, named in its comment: a
    rule with one image rewrites the exponents in place, a rule with two
    recurses.  A rule's constant e^2 or xi^k is applied as a monomial shift
    of the coefficient, and ``u`` as a product by the coefficient class's
    ``ring_u``.  A zero coefficient (a constant times a torsion class) ends
    the rewrite at once; it is tested on the fields both engine rings share.  The image is checked
    against the six families, built and added to ``out`` here.
    """
    if not (coeff.c or coeff.g):
        return
    if a >= p and b >= q:  # vanish: cw^p * cxw^q = 0
        return
    if s * t and max(s, t) > 0:  # zeta cancel: z0*z1 = xi, on a tower too
        k = min(s, t) if s > 0 and t > 0 else max(s, t)
        coeff, s, t = coeff.shift(0, k), s - k, t - k
    if t > 0 and a >= p:  # z1 cw^p division: z1^t*cw^p = xi^t*z0^-t*cw^p
        coeff, s, t = coeff.shift(0, t), -t, 0
    if s > 0 and b >= q:  # z0 cxw^q division: z0^s*cxw^q = xi^s*z1^-s*cxw^q
        coeff, s, t = coeff.shift(0, s), 0, -s
    if t > 0 and b:  # z1*cxw = u*z0*cw + e^2
        _normalize(p, q, coeff * coeff.ring_u(), s + 1, t - 1, a + 1, b - 1, out)
        _normalize(p, q, coeff.shift(2, 0), s, t - 1, a, b - 1, out)
        return
    if b > q:  # cxw tower: z1^t*cxw^b for every t <= 0 and b > q
        _normalize(p, q, coeff.shift(0, 1), s, t - 2, a + 1, b - 1, out)
        _normalize(p, q, coeff.shift(2, 0), s, t - 1, a, b - 1, out)
        return
    if (s >= 2 and a) or a > p:  # z0^2*cw = xi*cxw + e^2*z0, and cw^(p+1)
        _normalize(p, q, coeff.shift(0, 1), s - 2, t, a - 1, b + 1, out)
        _normalize(p, q, coeff.shift(2, 0), s - 1, t, a - 1, b, out)
        return
    if _family(p, q, s, t, a, b) is None:
        raise _not_basis(p, q, s, t, a, b)
    mono = tuple.__new__(BasisMonomial, (p, q, s, t, a, b))
    prev = out.get(mono)
    out[mono] = coeff if prev is None else prev + coeff


def gen_mul(step: tuple, x: BasisMonomial, coeff, out: dict) -> None:
    """Normalise ``coeff * step * x`` into ``out``, one rewrite step.

    ``step`` is the exponent tuple ``(s, t, a, b)`` of the generator
    monomial z0^s z1^t cw^a cxw^b, of total degree at most ``STEP_DEGREE``
    (see the module docstring); ``_steps`` cuts a longer monomial into such
    steps.  ``coeff`` is the rewrite's starting coefficient, and its class
    is the ring the step works in.  The images come out already scaled: a
    rewrite rule multiplies it by its ring constant once, and an image that is a bare monomial costs no product at
    all.  ``out`` maps basis monomials to coefficients; each image is added
    to the coefficient already there, so a sum may leave a zero.

    >>> sp, out = ProjSpace(2, 2), {}
    >>> gen_mul((0, 0, 1, 0), BasisMonomial(sp, 0, 0, 0, 1), HElement.ring_one(), out)
    >>> [str(mono) for mono in out]
    ['cw*cxw']
    """
    p, q, s, t, a, b = x
    ds, dt, da, db = step
    _normalize(p, q, coeff, s + ds, t + dt, a + da, b + db, out)


def _steps(s: int, t: int, a: int, b: int) -> list[tuple[int, int, int, int]]:
    """Cut z0^s z1^t cw^a cxw^b (exponents >= 0) into generator monomials of
    degree at most ``STEP_DEGREE``, filled in the order z0, z1, cw, cxw.
    The unit is the one step ``(0, 0, 0, 0)``, so the list is never empty.

    >>> _steps(2, 1, 4, 0)
    [(2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 1, 0)]
    """
    steps, step, room = [], [0, 0, 0, 0], STEP_DEGREE
    for i, exp in enumerate((s, t, a, b)):
        while exp:
            k = min(exp, room)
            step[i] += k
            exp -= k
            room -= k
            if not room:
                steps.append(tuple(step))
                step, room = [0, 0, 0, 0], STEP_DEGREE
    if room < STEP_DEGREE or not steps:
        steps.append(tuple(step))
    return steps


def _walk(terms: dict, steps) -> dict:
    """Multiply ``terms`` by each generator monomial of ``steps`` in turn;
    every step normalises the images of all terms, each started from its
    term's coefficient, into one new dict.  The result may hold zero
    coefficients."""
    for step in steps:
        out: dict = {}
        for mono, coeff in terms.items():
            gen_mul(step, mono, coeff, out)
        terms = out
    return terms


GENERATORS = {"z0": (1, 0, 0, 0), "z1": (0, 1, 0, 0), "cw": (0, 0, 1, 0), "cxw": (0, 0, 0, 1)}


def apply_gen(gen: str, x: ModuleElement) -> ModuleElement:
    """Multiply ``x`` by one generator, named as in ``GENERATORS``, in
    normal form.

    >>> print(apply_gen("z1", raw_monomial(ProjSpace(2, 2), 0, 0, 0, 1)))
    e^2 + (-1 + g)*z0*cw
    """
    step = GENERATORS.get(gen)
    if step is None:
        raise ValueError(f"unknown generator {gen!r}")
    return ModuleElement._trusted(x.sp, _walk(x.terms, (step,)), x.ring)


def is_divided(x: BasisMonomial) -> bool:
    return x.s < 0 or x.t < 0


def raw_monomial(sp: ProjSpace, s: int, t: int, a: int, b: int, ring=HElement) -> ModuleElement:
    """Normal form of the formal monomial z0^s z1^t cw^a cxw^b.

    Negative ``s`` requires ``a >= p`` (the divided cw^p tower) and
    negative ``t`` requires ``b >= q``.  Both negative is rejected: since
    z0 * z1 = xi, z0^-1 * z1^-1 would be xi^-1, which the point ring does
    not have.  A basis monomial is returned as it is, and a monomial with
    cw^p * cxw^q vanishes.  Otherwise the rules of the module docstring
    that have one image fire on the whole exponent, in ``_normalize``'s
    order: the zeta cancel, then the z1 cw^p and z0 cxw^q divisions.  What
    they leave starts from one basis monomial, z0^min(s,0) z1^min(t,0)
    cw^min(a,p) cxw^min(b,q), and only the rest of the exponent, z0^max(s,0)
    z1^max(t,0) cw^max(a-p,0) cxw^max(b-q,0), is walked.  So the walk does
    not follow a zeta exponent that the cancel or a division consumes.
    """
    if a < 0 or b < 0:
        raise ValueError("cw/cxw exponents must be nonnegative")
    if s < 0 and t < 0:
        raise ValueError("z0 and z1 exponents cannot both be negative: the "
                         "product would need xi^-1, which the point ring does not have")
    p, q = sp.p, sp.q
    if s < 0 and a < p:
        raise ValueError(f"z0^{s} requires a cw^{p} factor over {sp}")
    if t < 0 and b < q:
        raise ValueError(f"z1^{t} requires a cxw^{q} factor over {sp}")
    coeff = ring.ring_one()
    if _family(p, q, s, t, a, b) is not None:  # its own normal form
        mono = tuple.__new__(BasisMonomial, (p, q, s, t, a, b))
        return ModuleElement._trusted(sp, {mono: coeff}, ring)
    if a >= p and b >= q:  # vanish: cw^p * cxw^q = 0
        return ModuleElement.zero(sp, ring)
    if s * t and max(s, t) > 0:  # zeta cancel: z0*z1 = xi, on a tower too
        k = min(s, t) if s > 0 and t > 0 else max(s, t)
        coeff, s, t = coeff.shift(0, k), s - k, t - k
    if t > 0 and a >= p:  # z1 cw^p division: z1^t*cw^p = xi^t*z0^-t*cw^p
        coeff, s, t = coeff.shift(0, t), -t, 0
    if s > 0 and b >= q:  # z0 cxw^q division: z0^s*cxw^q = xi^s*z1^-s*cxw^q
        coeff, s, t = coeff.shift(0, s), 0, -s
    s0, t0, a0, b0 = min(s, 0), min(t, 0), min(a, p), min(b, q)
    start, rest = _basis(p, q, s0, t0, a0, b0), (s - s0, t - t0, a - a0, b - b0)
    terms = _walk({start: coeff}, _steps(*rest)) if any(rest) else {start: coeff}
    return ModuleElement._trusted(sp, terms, ring)


def _mul_into(terms: dict, factor, out: dict) -> None:
    """Add ``terms`` times the sum of ``coeff * step`` over ``factor``, a
    tuple of ``(step, coeff)`` pairs, into ``out``: one ``gen_mul`` per term
    and pair.  Each term is scaled by the pair's coefficient before its
    step, so a term that is zero, or that the scaling kills (a torsion
    product), takes no step.  ``terms`` may hold zero coefficients, and
    ``out`` may be left with some."""
    for step, coeff in factor:
        for term, c in terms.items():
            if c.c or c.g:  # a walk may leave a zero; scaling it is wasted work
                c = c * coeff
                if c.c or c.g:  # a torsion product: nothing to rewrite
                    gen_mul(step, term, c, out)


def _degree(x: ModuleElement) -> int:
    """The total degrees of ``x``'s monomials, summed; for an element free
    of divided monomials."""
    return sum(s + t + a + b for _, _, s, t, a, b in x.terms)


def mod_mul(x: ModuleElement, y: ModuleElement) -> ModuleElement:
    """Product of module elements.

    One factor must be free of divided monomials, and that factor is cut
    into steps.  When neither has any, the one whose monomials have the
    smaller summed degree is cut, so a long monomial times a short sum
    takes a few steps, not a walk along the long one.  Each monomial of the
    cut factor is cut into generator monomials by ``_steps``: the leading
    steps are walked over the other factor (a line class has none, its
    monomials having degree at most 3), and ``_mul_into`` takes the last
    one, scaled by the monomial's coefficient, from each walked term
    straight into the product.
    """
    if x.sp != y.sp:
        raise ValueError("elements over different spaces")
    if x.ring is not y.ring:
        raise ValueError("elements over different rings")
    x_divided = any(is_divided(m) for m in x.terms)
    if any(is_divided(m) for m in y.terms):
        if x_divided:
            raise UnsupportedProductError(
                "both factors contain divided monomials; no generator factorization"
            )
        x, y = y, x
    elif not x_divided and _degree(y) > _degree(x):
        x, y = y, x
    out: dict = {}
    for mono, coeff in y.terms.items():
        *lead, last = _steps(*mono[2:])
        _mul_into(_walk(x.terms, lead), ((last, coeff),), out)
    return ModuleElement._trusted(x.sp, out, x.ring)


def coeff_vector(x: ModuleElement, m: int) -> list:
    """Coefficients of ``x`` against the ordered basis of the degree class
    ``m``: ``p + q`` pairs ``(i, coefficient)``; absent terms are zero."""
    vector = []
    zero = x.ring.ring_one() * 0
    by_mono = dict(x.terms)
    for mono in basis(x.sp, m):
        vector.append((mono.index, by_mono.pop(mono, zero)))
    if by_mono:
        raise ValueError(f"terms outside the basis of class m={m}: {list(by_mono)}")
    return vector


class NoneqPoly(NamedTuple):
    """A truncated integer polynomial in c: Z[c]/(c^N)."""

    N: int
    coeffs: tuple

    @classmethod
    def make(cls, N: int, coeffs: dict[int, int]) -> "NoneqPoly":
        clean = {k: v for k, v in coeffs.items() if v and 0 <= k < N}
        return cls(N, tuple(sorted(clean.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def reduce_mod(self, n: int) -> "NoneqPoly":
        return NoneqPoly.make(self.N, {k: v % n for k, v in self.coeffs})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        return join_signed([signed_term(v, "1" if k == 0 else "c" if k == 1 else f"c^{k}")
                            for k, v in self.coeffs])


def mod_rho(x: ModuleElement) -> NoneqPoly:
    """Restriction to nonequivariant cohomology, in Z[c]/(c^(p+q))."""
    N = x.sp.p + x.sp.q
    out: dict[int, int] = {}
    for mono, coeff in x.terms.items():
        value, _ = h_rho(coeff)
        if value:
            out[mono.index] = out.get(mono.index, 0) + value
    return NoneqPoly.make(N, out)


def mod_fixed(x: ModuleElement) -> tuple[NoneqPoly, NoneqPoly]:
    """Fixed-point restriction: a pair over Z[c]/(c^p) and Z[c]/(c^q)."""
    p, q = x.sp.p, x.sp.q
    out0: dict[int, int] = {}
    out1: dict[int, int] = {}
    for mono, coeff in x.terms.items():
        value = h_fixed(coeff)
        if not value:
            continue
        # a power of z0 (z1), divided or not, vanishes on the first (second)
        # fixed component; the rest restricts to c^a (c^b) there
        if mono.s == 0:
            out0[mono.a] = out0.get(mono.a, 0) + value
        if mono.t == 0:
            out1[mono.b] = out1.get(mono.b, 0) + value
    return (NoneqPoly.make(p, out0), NoneqPoly.make(q, out1))


def in_tildeT(x: ModuleElement) -> bool:
    """True when every coefficient lies in the subgroup T."""
    return all(in_T(c) for c in x.terms.values())
