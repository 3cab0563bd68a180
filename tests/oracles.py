"""Test-side oracles, and spellings that only the tests use.

The package writes a scalar only as ``HElement(u, v, c, g)`` or with its
constructors ``g``, ``e``, ``xi``, ``tau_iota`` and ``e_power_kappa``.  The
tests keep an older vocabulary as independent oracles: a monomial is the
plain tuple ``(family, u, v)``, and ``exists`` is the table of where each
family has a group, written here apart from the constructor it checks.
``euler_product_fold`` is the Euler class as one ``mod_mul`` per line,
the product that ``euler.euler_product`` folds into one dict.
"""

from equibezout.euler import euler_line
from equibezout.hscalar import KAPPA, PLAIN, TRANSFER, HElement, e_power_kappa
from equibezout.projmod import ModuleElement, mod_mul
from equibezout.variants import BorelScalar, _c_binomial

FAMILIES = (PLAIN, KAPPA, TRANSFER)
ONE, G = (PLAIN, 0, 0), (TRANSFER, 0, 0)  # 1 and g = tau(1), the origin's two


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


def borel_relation(sp) -> dict[int, BorelScalar]:
    """The defining relation c^p (c+e^2)^q of Borel cohomology over
    ``sp``, as a raw coefficient dict keyed by the power of c."""
    return _c_binomial(BorelScalar.from_int(1), sp.p, sp.q)


def euler_product_fold(F, ring=HElement) -> ModuleElement:
    """The Euler class of the bundle sum ``F`` as the unit times each line
    class in turn, one ``mod_mul`` and one ``ModuleElement`` per line."""
    out = ModuleElement.unit(F.sp, ring)
    for L in F.lines:
        out = mod_mul(out, euler_line(L, F.sp, ring))
    return out
