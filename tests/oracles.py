"""Test-side oracles, and spellings that only the tests use.

The package writes a scalar only as ``HElement(u, v, c, g)`` or with its
constructors ``g``, ``e``, ``xi``, ``tau_iota`` and ``e_power_kappa``.  The
tests keep an older vocabulary as independent oracles: a monomial is the
plain tuple ``(family, u, v)``, and ``exists`` is the table of where each
family has a group, written here apart from the constructor it checks.
``euler_product_fold`` is the Euler class as one ``mod_mul`` per line,
the product that ``euler.euler_product`` folds into one dict.  The
generator gradings ``DEG_*`` and the real ``rank_triple`` of a degree are
written here from the paper, apart from the grading code they check.
"""

from math import comb

from equibezout.euler import euler_line
from equibezout.grading import PiBDegree, RankTriple
from equibezout.hscalar import KAPPA, PLAIN, TRANSFER, HElement, e_power_kappa
from equibezout.projmod import ModuleElement, mod_mul

FAMILIES = (PLAIN, KAPPA, TRANSFER)
ONE, G = (PLAIN, 0, 0), (TRANSFER, 0, 0)  # 1 and g = tau(1), the origin's two


# Gradings of the multiplicative generators of the cohomology of projective
# space, (m, a, b) for m*W1 + a + b*s: the two Euler classes sit in the
# bundle degrees omega = 2 + W1 and chi(omega) = 2 + W0, with
# W0 = 2s - 2 - W1, and the zeta classes in the degrees shifted down by 2.
DEG_CW = PiBDegree(1, 2, 0)
DEG_CXW = PiBDegree(-1, 0, 2)
DEG_Z1 = PiBDegree(1, 0, 0)
DEG_Z0 = PiBDegree(-1, -2, 2)


def rank_triple(x: PiBDegree) -> RankTriple:
    """Real rank triple of a degree: (a+b, a, a-2m), twice the complex
    ranks on an Euler grading."""
    return RankTriple(x.a + x.b, x.a, x.a - 2 * x.m)


def exists(family: int, u: int, v: int) -> bool:
    """Whether the family has a monomial at signed exponents (u, v)."""
    if family == PLAIN:
        return u >= 0 and v >= 0
    if family == KAPPA:
        return u < 0 and v == 0
    return family == TRANSFER and u == 0 and v <= 0


def scalar(mono: tuple, coeff: int = 1, ring=HElement) -> HElement:
    """``coeff`` times the monomial ``(family, u, v)``, in ``ring``."""
    return ring(0, 0, 0, coeff) if mono == G else ring(mono[1], mono[2], coeff)


def monomials_in_grading(a: int, b: int) -> list[tuple]:
    """The monomials in grading ``a + b*s``; e^u * xi^v has grading
    -2v + (u + 2v)*s, and odd columns hold none."""
    if a % 2:
        return []
    u, v = a + b, -a // 2
    return [(f, u, v) for f in FAMILIES if exists(f, u, v)]


def scalars_in_grading(a: int, b: int) -> list[HElement]:
    """Generators of the point-ring group in grading ``a + b*s``."""
    return [scalar(mono) for mono in monomials_in_grading(a, b)]


def one() -> HElement:
    return HElement.from_int(1)


def kappa() -> HElement:
    return e_power_kappa(0)


def einvkappa(m: int) -> HElement:
    return HElement(-m, 0, 1)


def exi(m: int, n: int) -> HElement:
    return HElement(m, n, 1)


def tauinv(n: int) -> HElement:
    return HElement(0, -n, 1)


def borel_relation(sp) -> dict[int, int]:
    """The defining relation c^p (c+e^2)^q of Borel cohomology over
    ``sp``, as a raw coefficient dict keyed by the power of c: the integer
    comb(q, j) of comb(q, j)*e^(2(q-j))*c^(p+j), in the grading of
    e^(2(p+q))."""
    return {sp.p + j: comb(sp.q, j) for j in range(sp.q + 1)}


def euler_product_fold(F, ring=HElement) -> ModuleElement:
    """The Euler class of the bundle sum ``F`` as the unit times each line
    class in turn, one ``mod_mul`` and one ``ModuleElement`` per line."""
    out = ModuleElement.unit(F.sp, ring)
    for L in F.lines:
        out = mod_mul(out, euler_line(L, F.sp, ring))
    return out
