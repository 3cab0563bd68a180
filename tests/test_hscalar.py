"""Arithmetic in the point ring: the monomial product and its consequences."""

import itertools
import subprocess
import sys

import pytest

from equibezout import hscalar as hs
from equibezout.grading import PiBDegree
from equibezout.hscalar import (
    KAPPA,
    PLAIN,
    TRANSFER,
    HElement,
    e,
    e_power_kappa,
    g,
    h_fixed,
    h_rho,
    in_Ie,
    in_T,
    tau_iota,
    xi,
)
from equibezout.projmod import ModuleElement, ProjSpace
from equibezout.variants import BorelElement, ZHElement, borel_map
from oracles import (
    FAMILIES,
    G,
    ONE,
    einvkappa,
    exi,
    exists,
    kappa,
    one,
    scalar,
    scalars_in_grading,
    tauinv,
)

# The seven kinds the monomials were once tagged with, by name: the monomial
# of each kind with exponents (m, n), an unused slot being 0, as the tuple
# (family, u, v) of signed exponents.  The oracle tables below are keyed by
# these names.
KINDS = {
    "one": lambda m, n: ONE,
    "g": lambda m, n: G,
    "e": lambda m, n: (PLAIN, m, 0),
    "eik": lambda m, n: (KAPPA, -m, 0),
    "xi": lambda m, n: (PLAIN, 0, n),
    "exi": lambda m, n: (PLAIN, m, n),
    "tauinv": lambda m, n: (TRANSFER, 0, -n),
}


def kind_of(mono):
    """The name in KINDS of a monomial's kind."""
    family, u, v = mono
    if family == KAPPA:
        return "eik"
    if family == TRANSFER:
        return "tauinv" if v else "g"
    return ("one", "xi", "e", "exi")[2 * bool(u) + bool(v)]


def kinded(max_index=6):
    """(kind, m, n, monomial) for every monomial with exponents <= max_index."""
    r = range(1, max_index + 1)
    exponents = {
        "one": [(0, 0)], "g": [(0, 0)],
        "e": [(i, 0) for i in r], "eik": [(i, 0) for i in r],
        "xi": [(0, i) for i in r], "tauinv": [(0, i) for i in r],
        "exi": list(itertools.product(r, r)),
    }
    return [(kind, m, n, KINDS[kind](m, n)) for kind, mn in exponents.items() for m, n in mn]


def all_monomials(max_index=6):
    return [mono for *_, mono in kinded(max_index)]


MONOS = all_monomials()
ELEMS = [scalar(m) for m in MONOS]


def test_constructor_matches_the_existence_oracle():
    # the existence law lives in the package only in HElement's normal form:
    # a group where a family has a monomial, Z/2 at u, v >= 1, g at the origin
    built = 0
    for u, v in itertools.product(range(-4, 5), repeat=2):
        if any(exists(f, u, v) for f in FAMILIES):
            x = HElement(u, v, 1)
            assert (x.u, x.v, x.c, x.g) == (u, v, 1, 0)
            assert (not HElement(u, v, 2)) == (u > 0 and v > 0)
            built += 1
        else:
            with pytest.raises(ValueError, match="no point-ring group"):
                HElement(u, v, 1)
        if u or v:
            with pytest.raises(ValueError, match="a g term"):
                HElement(u, v, 0, 1)
    assert built == 25 + 4 + 4  # plain u, v >= 0; kappa u < 0; transfer v < 0
    assert HElement(0, 0, 0, 1).g == 1


def test_monomial_grading_from_exponents():
    from_exponents = {
        "one": lambda m, n: (0, 0),
        "g": lambda m, n: (0, 0),
        "e": lambda m, n: (0, m),
        "eik": lambda m, n: (0, -m),
        "xi": lambda m, n: (-2 * n, 2 * n),
        "exi": lambda m, n: (-2 * n, m + 2 * n),
        "tauinv": lambda m, n: (2 * n, -2 * n),
    }
    assert {kind for kind, *_ in kinded()} == set(from_exponents) == set(KINDS)
    for kind, m, n, mono in kinded():
        assert kind_of(mono) == kind
        _, u, v = mono
        assert scalar(mono).grading == PiBDegree(0, *from_exponents[kind](m, n))
        assert scalar(mono).grading == PiBDegree(0, -2 * v, u + 2 * v)


# The maps out of the ring as tables per kind, the form they had before
# they became laws on the signed exponents: the restriction and fixed-point
# values, the Borel image as {(e, xi) exponents: coefficient}, the
# constant-Z fold as (the kind it lands on, factor, modulus) or None where
# the monomial dies, and the coefficients c for which c times the monomial
# lies in T and in I_e.
RHO = {"one": 1, "g": 2, "e": 0, "eik": 0, "xi": 1, "exi": 0, "tauinv": 2}
FIXED = {"one": 1, "g": 0, "e": 1, "eik": 2, "xi": 0, "exi": 0, "tauinv": 0}
BOREL_SCALAR = {
    "one": lambda m, n: {(0, 0): 1},
    "g": lambda m, n: {(0, 0): 2},
    "e": lambda m, n: {(m, 0): 1},
    "eik": lambda m, n: {},
    "xi": lambda m, n: {(0, n): 1},
    "exi": lambda m, n: {(m, n): 1},
    "tauinv": lambda m, n: {(0, -n): 2},
}
Z_FOLD = {"one": ("one", 1, None), "g": ("one", 2, None), "e": ("e", 1, 2), "eik": None,
          "xi": ("xi", 1, None), "exi": ("exi", 1, 2), "tauinv": ("tauinv", 1, None)}
ALL, EVEN, NONE = (lambda c: True), (lambda c: c % 2 == 0), (lambda c: False)
IN_T = {"one": ALL, "g": ALL, "e": ALL, "eik": ALL, "xi": EVEN, "exi": NONE, "tauinv": ALL}
IN_IE = {"one": EVEN, "g": ALL, "e": EVEN, "eik": ALL, "xi": EVEN, "exi": NONE,
         "tauinv": ALL}


POINT = ProjSpace(1, 1)


def borel_image(x):
    """The Borel image of the scalar x: the image of its class times 1, a
    c^0 class."""
    return borel_map(ModuleElement.unit(POINT).scale(x), 0)


def test_ring_maps_match_the_per_kind_tables():
    for kind, m, n, mono in kinded():
        for c in (1, 2, 3, -1, -4):
            x = scalar(mono, c)
            if not x:
                continue  # an even multiple of e^m*xi^n
            rho = RHO[kind] * c
            assert h_rho(x) == ((rho, x.grading.b) if rho else (0, 0)), x
            assert h_fixed(x) == FIXED[kind] * c, x
            borel = (0, 0, {})  # the fields (u, v, coeffs) of the image
            for (u, v), k in BOREL_SCALAR[kind](m, n).items():
                coeff = k * c % 2 if u else k * c
                if coeff:
                    borel = (u, v, {0: coeff})
            b = borel_image(x)
            assert type(b) is BorelElement and (b.u, b.v, b.coeffs) == borel, x
            fold = (0, 0, 0, 0)  # the fields (u, v, c, g) of the image
            if Z_FOLD[kind]:
                target, factor, modulus = Z_FOLD[kind]
                coeff = factor * c % modulus if modulus else factor * c
                if coeff:
                    fold = (*KINDS[target](m, n)[1:], coeff, 0)
            z = ZHElement.from_burnside(x)
            assert (z.u, z.v, z.c, z.g) == fold, x
            assert in_T(x) == IN_T[kind](c), x
            assert in_Ie(x) == (IN_T[kind](c) and IN_IE[kind](c)), x
    # degree 0 holds both 1 and g, and each map adds their rows
    for a, b in itertools.product(range(-2, 3), repeat=2):
        x = a * one() + b * g()
        rho = a * RHO["one"] + b * RHO["g"]
        assert h_rho(x) == (rho, 0)
        assert h_fixed(x) == a * FIXED["one"] + b * FIXED["g"]
        assert borel_image(x) == BorelElement(POINT, 0, 0, {0: a + 2 * b})
        assert ZHElement.from_burnside(x) == ZHElement.from_int(a + 2 * b)
        assert in_T(x) and in_Ie(x) == (a % 2 == 0)


def test_degree_zero_prints_1_before_g():
    # natural order of the monomials, whatever order the terms came in
    assert str(kappa()) == str(HElement(0, 0, 2, -1)) == "2 - g"
    assert str(3 * g() - 5) == "-5 + 3*g"
    # constant-Z folds g to 2; the Borel image sends g to 2 as well
    assert str(ZHElement.from_burnside(2 - g())) == "0"
    assert str(ZHElement.from_burnside(3 + g())) == "5"
    assert str(borel_image(2 - g())) == "0"
    assert str(borel_image(3 + g())) == "5"
    # the Borel image of a scalar is one signed monomial e^u*xi^v
    assert [str(BorelElement(POINT, u, v, {0: c})) for u, v, c in
            ((0, -1, -1), (0, 0, 2), (1, 0, 1), (3, -2, -1), (0, 2, -3), (2, 0, 2))] == [
        "-xi^-1", "2", "e", "e^3*xi^-2", "-3*xi^2", "0"]
    assert str(borel_image(-tauinv(1))) == "-2*xi^-1"


def test_add_same_grading():
    assert g() + g() == 2 * g()
    assert exi(1, 1) + exi(1, 1) == HElement(0, 0, 0)  # 2*e*xi = 0
    assert kappa() + g() == HElement.from_int(2)


def test_add_grading_mismatch_raises():
    with pytest.raises(ValueError):
        e(1) + xi(1)


def test_specific_identities():
    assert g() * g() == 2 * g()
    assert e(1) * g() == HElement(0, 0, 0)
    assert g() * xi(1) == 2 * xi(1)
    assert 2 * (e(1) * xi(1)) == HElement(0, 0, 0)
    assert kappa() * kappa() == 2 * kappa()
    assert (1 - kappa()) * (1 - kappa()) == one()
    assert e(1) * einvkappa(1) == kappa()
    assert tauinv(1) * tauinv(1) == 2 * tauinv(2)


# one representative product per unordered pair of kinds, with the identity
# it must equal; the e^m * e^-k*kappa and xi^k * tau(i^-2n) walks are pinned
# below, at and above the origin
KIND_PAIR_PRODUCTS = [
    (one(), one(), one()),
    (one(), g(), g()),
    (one(), e(3), e(3)),
    (one(), einvkappa(2), einvkappa(2)),
    (one(), xi(2), xi(2)),
    (one(), exi(1, 2), exi(1, 2)),
    (one(), tauinv(2), tauinv(2)),
    (g(), g(), 2 * g()),
    (g(), e(2), HElement(0, 0, 0)),
    (g(), einvkappa(2), HElement(0, 0, 0)),  # g * kappa = 0
    (g(), xi(3), 2 * xi(3)),  # g = tau(1), tau(1) * xi^3 = tau(i^6)
    (g(), exi(2, 1), HElement(0, 0, 0)),
    (g(), tauinv(3), 2 * tauinv(3)),
    (e(2), e(3), e(5)),
    (e(1), einvkappa(3), einvkappa(2)),
    (e(3), einvkappa(3), 2 - g()),  # kappa = 2 - g
    (e(5), einvkappa(2), 2 * e(3)),  # e^3 * kappa = 2e^3
    (e(2), xi(3), exi(2, 3)),
    (e(2), exi(1, 3), exi(3, 3)),
    (e(2), tauinv(1), HElement(0, 0, 0)),
    (einvkappa(1), einvkappa(2), 2 * einvkappa(3)),  # kappa^2 = 2kappa
    (einvkappa(2), xi(1), HElement(0, 0, 0)),
    (einvkappa(2), exi(3, 2), HElement(0, 0, 0)),
    (einvkappa(2), tauinv(1), HElement(0, 0, 0)),
    (xi(1), xi(2), xi(3)),
    (xi(2), exi(1, 1), exi(1, 3)),
    (xi(1), tauinv(3), tauinv(2)),
    (xi(3), tauinv(3), g()),  # tau(1) = g
    (xi(5), tauinv(3), 2 * xi(2)),  # tau(i^4) = 2xi^2
    (exi(1, 1), exi(2, 3), exi(3, 4)),
    (exi(1, 2), tauinv(1), HElement(0, 0, 0)),
    (tauinv(1), tauinv(2), 2 * tauinv(3)),  # tau(x)tau(y) = 2tau(xy)
]


def test_product_of_every_pair_of_kinds():
    def kind(x):
        (mono,) = [m for m in MONOS if scalar(m) == x]
        return kind_of(mono)

    pairs = {frozenset((kind(x), kind(y))) for x, y, _ in KIND_PAIR_PRODUCTS}
    assert pairs == {frozenset(p) for p in itertools.combinations_with_replacement(KINDS, 2)}
    assert len(pairs) == 28
    for x, y, expected in KIND_PAIR_PRODUCTS:
        assert x * y == expected, (x, y)
        assert y * x == expected, (y, x)


def test_tau_iota_convention():
    assert tau_iota(0) == g()
    assert tau_iota(2) == 2 * xi(2)
    assert tau_iota(-2) == tauinv(2)
    assert e_power_kappa(0) == kappa()
    assert e_power_kappa(4) == 2 * e(4)
    assert e_power_kappa(-4) == einvkappa(4)


def test_commutativity_exhaustive():
    for x, y in itertools.product(ELEMS, repeat=2):
        assert x * y == y * x


def test_associativity_exhaustive():
    products = {}
    for i, x in enumerate(ELEMS):
        for j, y in enumerate(ELEMS):
            products[i, j] = x * y
    for i, x in enumerate(ELEMS):
        for j in range(len(ELEMS)):
            for k, z in enumerate(ELEMS):
                assert products[i, j] * z == x * products[j, k]


def test_distributivity():
    # the only grading with two independent monomials is degree 0
    mixed = [HElement.from_int(1) + g(), 2 - g(), 3 * g() - 5]
    for combo in mixed:
        for z in ELEMS:
            expected = sum(
                (scalar(m, c) * z for m, c in ((ONE, combo.c), (G, combo.g))),
                HElement(0, 0, 0),
            )
            assert combo * z == expected
    for c in (-3, -1, 2, 4):
        for x, z in zip(ELEMS[::5], ELEMS[::7]):
            assert (c * x) * z == c * (x * z)


def test_grading_additivity_of_products():
    for x, y in itertools.product(ELEMS[::3], ELEMS[::4]):
        p = x * y
        if p:
            gx, gy = x.grading, y.grading
            assert p.grading == PiBDegree(0, gx.a + gy.a, gx.b + gy.b)


def test_rho_examples():
    assert h_rho(g()) == (2, 0)
    assert h_rho(einvkappa(3)) == (0, 0)
    assert h_rho(xi(2)) == (1, 4)  # carrier i^4
    assert h_rho(tauinv(2)) == (2, -4)
    assert h_rho(8 * tau_iota(2)) == (16, 4)
    assert h_rho(e(8)) == (0, 0)


def test_fixed_examples():
    assert h_fixed(e(8)) == 1
    assert h_fixed(kappa()) == 2
    assert h_fixed(8 * tau_iota(2)) == 0
    assert h_fixed(g()) == 0
    assert h_fixed(einvkappa(2)) == 2


def test_rho_and_fixed_are_ring_maps():
    for x, y in itertools.product(ELEMS, repeat=2):
        p = x * y
        rx, ry, rp = h_rho(x), h_rho(y), h_rho(p)
        assert rp[0] == rx[0] * ry[0]
        if rp[0]:
            assert rp[1] == rx[1] + ry[1]
        assert h_fixed(p) == h_fixed(x) * h_fixed(y)


def test_in_T_examples():
    assert in_T(e(5))
    assert not in_T(exi(1, 1))
    assert in_T(one() + g())
    assert in_T(2 * xi(3))
    assert not in_T(5 * xi(3))
    assert in_T(tauinv(4))
    assert in_T(HElement(0, 0, 0))


def test_in_T_support_locations():
    # T lives on the vertical axis or the slope -1 diagonal
    for elem in ELEMS:
        for c in (1, 2):
            x = c * elem
            if in_T(x) and x:
                grad = x.grading
                assert grad.a == 0 or grad.a + grad.b == 0


def test_in_Ie_examples():
    assert not in_Ie(one() + g())
    assert in_Ie(2 + g())
    assert in_Ie(kappa())
    assert in_Ie(2 * e(3))
    assert not in_Ie(e(3))
    assert in_Ie(einvkappa(2))
    assert in_Ie(tauinv(5))
    assert in_Ie(2 * xi(2))


def test_doubles_of_T_lie_in_Ie():
    # the quotient by I_e is all 2-torsion
    for elem in ELEMS:
        for c in (1, 3):
            x = c * elem
            if in_T(x):
                assert in_Ie(2 * x)


def test_Ie_is_an_ideal():
    generators = [2 * one(), g(), kappa(), einvkappa(2), tauinv(3), 2 * e(1), 2 * xi(1)]
    for gen in generators:
        assert in_Ie(gen)
        for elem in ELEMS:
            assert in_Ie(gen * elem)


def test_scalars_in_grading():
    # the test-side table of generators, against the scalars' own gradings
    assert scalars_in_grading(0, 0) == [one(), g()]
    assert scalars_in_grading(0, 3) == [e(3)]
    assert scalars_in_grading(0, -2) == [einvkappa(2)]
    assert scalars_in_grading(-4, 4) == [xi(2)]
    assert scalars_in_grading(-4, 7) == [exi(3, 2)]
    assert scalars_in_grading(6, -6) == [tauinv(3)]
    assert scalars_in_grading(6, -4) == []
    assert scalars_in_grading(3, -3) == []  # odd columns are out of scope
    for x in ELEMS:
        grad = x.grading
        assert x in scalars_in_grading(grad.a, grad.b)
    # and the other way: every scalar returned has the grading asked for
    for a, b in itertools.product(range(-12, 13), repeat=2):
        for x in scalars_in_grading(a, b):
            assert x.grading == PiBDegree(0, a, b)


def test_divide_by_two():
    assert (2 * xi(3)).divide_by_two() == xi(3)
    with pytest.raises(ArithmeticError):
        (3 * xi(1)).divide_by_two()
    with pytest.raises(ArithmeticError):
        exi(1, 1).divide_by_two()


def test_str_forms():
    assert str(kappa()) == "2 - g"
    assert str(einvkappa(2)) == "e^-2*kappa"
    assert str(tauinv(2)) == "tau(i^-4)"
    assert str(exi(3, 2)) == "e^3*xi^2"
    assert str(e(1)) == "e"
    assert str(16 * xi(2)) == "16*xi^2"
    assert str(HElement(0, 0, 0)) == "0"


# The product as it was before an element became its fields: a dict of
# monomial tuples, each pair multiplied by the three laws into (monomial,
# coefficient) pairs, the families' members written out by ``_member``.
def _member(family, w):
    uv = (w, 0) if family == KAPPA else (0, w)
    if w > 0:  # e^w*kappa = 2e^w, tau(i^2w) = 2*xi^w
        return [((PLAIN, *uv), 2)]
    if w == 0 and family == KAPPA:
        return [(ONE, 2), (G, -1)]  # kappa = 2 - g
    return [((family, *uv), 1)]


def _mono_mul(x, y):
    if x[0] > y[0]:
        x, y = y, x
    fx, ux, vx = x
    fy, uy, vy = y
    u, v = ux + uy, vx + vy
    if fy == PLAIN:
        return [((PLAIN, u, v), 1)]
    along, across = (u, v) if fy == KAPPA else (v, u)
    if across:
        return []
    if fx == PLAIN:
        return _member(fy, along)
    return [(mono, 2 * c) for mono, c in _member(fy, along)]


def dict_product(x, y):
    out = {}
    for mx, cx in x.items():
        for my, cy in y.items():
            for mono, c in _mono_mul(mx, my):
                out[mono] = out.get(mono, 0) + cx * cy * c
    return out


def from_terms(ring, terms):
    return sum((scalar(m, c, ring) for m, c in terms.items()), ring(0, 0, 0))


ORACLE_MONOS = [(f, u, v) for f in FAMILIES
                for u in range(-8, 9) for v in range(-8, 9) if exists(f, u, v)]
# the a + b*g elements of degree 0, as dicts of terms
ORIGIN_TERMS = [{ONE: a, G: b} for a, b in [(1, 1), (2, -1), (-3, 1), (0, 2), (-1, 3)]]


def oracle_mismatches(ring):
    """The products on which ``ring``'s law and the dict product disagree:
    every pair of monomials with |u|, |v| <= 8 under coefficients 1 and -3,
    and each a + b*g element times every monomial and every a + b*g."""
    cases = [({mx: cx}, {my: cy}) for mx in ORACLE_MONOS for my in ORACLE_MONOS
             for cx, cy in ((1, 1), (1, -3), (-3, -3))]
    cases += [(x, {m: c}) for x in ORIGIN_TERMS for m in ORACLE_MONOS for c in (1, -3)]
    cases += [(x, y) for x in ORIGIN_TERMS for y in ORIGIN_TERMS]
    return [(x, y) for x, y in cases
            if from_terms(ring, x) * from_terms(ring, y) != from_terms(ring, dict_product(x, y))]


@pytest.mark.parametrize("ring", [HElement, ZHElement], ids=lambda r: r.__name__)
def test_product_law_matches_the_dict_product(ring):
    assert len(ORACLE_MONOS) == 81 + 8 + 9
    assert oracle_mismatches(ring) == []


@pytest.mark.parametrize("ring", [HElement, ZHElement], ids=lambda r: r.__name__)
def test_dict_product_catches_tau_of_one_as_one(ring, monkeypatch):
    # a wrong law that writes 1 where tau(i^0) = g is due
    law = hs._family_product

    def tau1_as_one(fx, fy, u, v):
        c, g = law(fx, fy, u, v)
        return (c + g, 0) if max(fx, fy) == TRANSFER else (c, g)

    monkeypatch.setattr(hs, "_family_product", tau1_as_one)
    assert oracle_mismatches(ring)


def test_an_element_is_four_integers():
    assert HElement.__slots__ == ("u", "v", "c", "g")
    for x in (g(), kappa(), exi(2, 3), ZHElement.ring_u()):
        assert not hasattr(x, "__dict__")
    x = 3 - g()
    assert (x.u, x.v, x.c, x.g) == (0, 0, 3, -1)
    x = tau_iota(-2)
    assert (x.u, x.v, x.c, x.g) == (0, -2, 1, 0) and str(x) == "tau(i^-4)"


REJECTED = [
    ((-1, 1, 1), "no point-ring group at u=-1, v=1"),
    ((1, -1, 2), "no point-ring group at u=1, v=-1"),
    ((-2, -3, 1), "no point-ring group at u=-2, v=-3"),
    ((1, 0, 0, 1), "a g term at u=1, v=0"),
    ((0, -2, 1, 1), "a g term at u=0, v=-2"),
    ((-1, 0, 0, 1), "a g term at u=-1, v=0"),
]


@pytest.mark.parametrize("ring", [HElement, ZHElement], ids=lambda r: r.__name__)
def test_constructor_rejects_terms_where_the_ring_has_no_group(ring):
    for fields, message in REJECTED:
        with pytest.raises(ValueError, match=message):
            ring(*fields)
    # a zero coefficient is zero in every grading
    assert ring(-1, 1, 0) == ring(1, -1, 0, 0) == ring(0, 0, 0)


def test_constructor_rejects_under_python_O():
    script = (
        "from equibezout.hscalar import HElement\n"
        "from equibezout.variants import ZHElement\n"
        f"for fields, _ in {REJECTED!r}:\n"
        "    for ring in (HElement, ZHElement):\n"
        "        try:\n"
        "            ring(*fields)\n"
        "        except ValueError:\n"
        "            continue\n"
        "        raise SystemExit(f'{ring.__name__}{fields} was accepted')\n"
        "print('rejected')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected\n"


def test_zero_is_equal_and_hashes_alike_in_every_grading():
    zeros = [e(1) * g(), xi(1) * einvkappa(1), tauinv(2) * e(3), 2 * exi(1, 1),
             kappa() - kappa(), xi(4) * 0, HElement(-3, 2, 0), HElement(0, 0, 0)]
    assert all(z == HElement(0, 0, 0) and not z for z in zeros)
    assert len({hash(z) for z in zeros}) == 1 and len(set(zeros)) == 1
    assert all(z.grading is None and str(z) == "0" for z in zeros)
    # zero adds to an element of any grading
    assert zeros[0] + exi(1, 2) == exi(1, 2) == exi(1, 2) + zeros[1]
    z_zeros = [ZHElement.from_burnside(einvkappa(2)), ZHElement(3, 0, 2), ZHElement(0, 0, 0),
               ZHElement.from_burnside(2 - g())]
    assert all(z == ZHElement(0, 0, 0) for z in z_zeros)
    assert len({hash(z) for z in z_zeros}) == 1


def test_a_scalar_equal_to_an_int_hashes_as_the_int():
    # equal objects hash alike: an integer-valued scalar is found where its
    # int is, in both rings; ZHElement folds g = 2 into c at the origin
    for x, n in [(HElement.from_int(3), 3), (HElement.from_int(-5), -5),
                 (HElement(0, 0, 0), 0), (ZHElement(0, 0, 0, 1), 2),
                 (ZHElement(0, 0, 7, 2), 11), (ZHElement(0, 0, 0), 0)]:
        assert x == n and hash(x) == hash(n)
        assert n in {x} and x in {n}
    # g is not an int, and neither is a scalar off the origin
    assert g() != 1 and e(1) != 1 and 1 not in {g(), e(1)}
