"""Arithmetic in the point ring: the monomial product and its consequences."""

import itertools
import subprocess
import sys

import pytest

from equibezout import hscalar as hs
from equibezout.grading import PiBDegree
from equibezout.hscalar import (
    KAPPA,
    MONO_G,
    MONO_ONE,
    PLAIN,
    TRANSFER,
    HElement,
    HMonomial,
    e,
    e_power_kappa,
    einvkappa,
    exi,
    g,
    h_fixed,
    h_rho,
    in_Ie,
    in_T,
    kappa,
    monomials_in_grading,
    one,
    tau_iota,
    tauinv,
    xi,
)
from equibezout.projmod import ModuleElement, ProjSpace
from equibezout.variants import BorelScalar, ZHElement, borel_map

# The seven kinds the monomials were once tagged with, by name: the monomial
# of each kind with exponents (m, n), an unused slot being 0, as a family at
# signed exponents.  The oracle tables below are keyed by these names.
KINDS = {
    "one": lambda m, n: HMonomial(PLAIN, 0, 0),
    "g": lambda m, n: HMonomial(TRANSFER, 0, 0),
    "e": lambda m, n: HMonomial(PLAIN, m, 0),
    "eik": lambda m, n: HMonomial(KAPPA, -m, 0),
    "xi": lambda m, n: HMonomial(PLAIN, 0, n),
    "exi": lambda m, n: HMonomial(PLAIN, m, n),
    "tauinv": lambda m, n: HMonomial(TRANSFER, 0, -n),
}


def kind_of(mono):
    """The name in KINDS of a monomial's kind."""
    if mono.family == KAPPA:
        return "eik"
    if mono.family == TRANSFER:
        return "tauinv" if mono.v else "g"
    return ("one", "xi", "e", "exi")[2 * bool(mono.u) + bool(mono.v)]


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
ELEMS = [HElement.monomial(m) for m in MONOS]


def test_monomial_hash_contract():
    for mono in MONOS:
        twin = HMonomial(mono.family, mono.u, mono.v)
        assert twin is not mono and twin == mono and hash(twin) == hash(mono)
        assert {mono: "v"}[twin] == "v" and twin in {mono}
        assert str(twin) == str(mono)
        assert repr(twin) == f"HMonomial(family={mono.family}, u={mono.u}, v={mono.v})"
        assert HElement.monomial(twin, 3) == HElement.monomial(mono, 3)
        assert hash(HElement.monomial(twin, 3)) == hash(HElement.monomial(mono, 3))
    # ordering is that of the fields alone, plain first
    assert sorted(MONOS) == sorted(MONOS, key=lambda x: (x.family, x.u, x.v))
    assert all((x < y) == ((x.family, x.u, x.v) < (y.family, y.u, y.v))
               for x in MONOS[:20] for y in MONOS[:20])
    assert PLAIN < KAPPA < TRANSFER and MONO_ONE < MONO_G


def test_monomials_exist_only_where_their_family_has_a_group():
    for family, u, v in [(PLAIN, -1, 0), (PLAIN, 0, -1), (KAPPA, 0, 0), (KAPPA, 1, 0),
                         (KAPPA, -1, 1), (TRANSFER, 1, 0), (TRANSFER, 0, 1),
                         (TRANSFER, -1, -1), (3, 0, 0)]:
        with pytest.raises(ValueError, match="no point-ring monomial"):
            HMonomial(family, u, v)


def test_monomials_hash_and_compare_as_tuples():
    # dict lookups in the point-ring product use tuple's own C slots
    assert HMonomial.__hash__ is tuple.__hash__
    assert HMonomial.__eq__ is tuple.__eq__
    x = HMonomial(KAPPA, -2, 0)
    assert x == (KAPPA, -2, 0) and hash(x) == hash((KAPPA, -2, 0))
    assert (x.family, x.u, x.v, x.grading) == (KAPPA, -2, 0, PiBDegree(0, 0, -2))
    with pytest.raises(AttributeError):
        x.u = 0


def test_monomial_constructor_matches_the_existence_oracle():
    built = 0
    for family, u, v in itertools.product(range(-1, 4), range(-4, 5), range(-4, 5)):
        if hs._exists(family, u, v):
            assert HMonomial(family, u, v) == (family, u, v)
            built += 1
        else:
            with pytest.raises(ValueError, match="no point-ring monomial"):
                HMonomial(family, u, v)
    assert built == 25 + 4 + 5  # plain u, v >= 0; kappa u < 0; transfer v <= 0


def test_monomials_of_different_families_never_compare_equal():
    assert len(set(MONOS)) == len({(m.family, m.u, m.v) for m in MONOS}) == len(MONOS)
    assert MONO_ONE != MONO_G and HMonomial(PLAIN, 0, 0) == MONO_ONE


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
        assert mono.grading == PiBDegree(0, *from_exponents[kind](m, n))
        assert mono.grading == PiBDegree(0, -2 * mono.v, mono.u + 2 * mono.v)


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


def borel_image(x):
    """The Borel image of the scalar x, read off its class times 1."""
    sp = ProjSpace(1, 1)
    return borel_map(ModuleElement.unit(sp).scale(x), 0).coeffs.get(0, BorelScalar.zero())


def test_ring_maps_match_the_per_kind_tables():
    for kind, m, n, mono in kinded():
        for c in (1, 2, 3, -1, -4):
            x = HElement.monomial(mono, c)
            if not x:
                continue  # an even multiple of e^m*xi^n
            rho = RHO[kind] * c
            assert h_rho(x) == ((rho, mono.grading.b) if rho else (0, 0)), x
            assert h_fixed(x) == FIXED[kind] * c, x
            borel = {uv: k * c for uv, k in BOREL_SCALAR[kind](m, n).items()}
            assert borel_image(x) == BorelScalar(borel), x
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
        assert borel_image(x) == BorelScalar.from_int(a + 2 * b)
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
    # Borel scalars print by their exponent pairs
    assert str(BorelScalar({(1, 0): 1, (0, 0): 2, (0, -1): -1})) == "-xi^-1 + 2 + e"


def test_add_same_grading():
    assert g() + g() == 2 * g()
    assert exi(1, 1) + exi(1, 1) == HElement.zero()  # 2*e*xi = 0
    assert kappa() + g() == HElement.from_int(2)


def test_add_grading_mismatch_raises():
    with pytest.raises(ValueError):
        e(1) + xi(1)


def test_specific_identities():
    assert g() * g() == 2 * g()
    assert e(1) * g() == HElement.zero()
    assert g() * xi(1) == 2 * xi(1)
    assert 2 * (e(1) * xi(1)) == HElement.zero()
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
    (g(), e(2), HElement.zero()),
    (g(), einvkappa(2), HElement.zero()),  # g * kappa = 0
    (g(), xi(3), 2 * xi(3)),  # g = tau(1), tau(1) * xi^3 = tau(i^6)
    (g(), exi(2, 1), HElement.zero()),
    (g(), tauinv(3), 2 * tauinv(3)),
    (e(2), e(3), e(5)),
    (e(1), einvkappa(3), einvkappa(2)),
    (e(3), einvkappa(3), 2 - g()),  # kappa = 2 - g
    (e(5), einvkappa(2), 2 * e(3)),  # e^3 * kappa = 2e^3
    (e(2), xi(3), exi(2, 3)),
    (e(2), exi(1, 3), exi(3, 3)),
    (e(2), tauinv(1), HElement.zero()),
    (einvkappa(1), einvkappa(2), 2 * einvkappa(3)),  # kappa^2 = 2kappa
    (einvkappa(2), xi(1), HElement.zero()),
    (einvkappa(2), exi(3, 2), HElement.zero()),
    (einvkappa(2), tauinv(1), HElement.zero()),
    (xi(1), xi(2), xi(3)),
    (xi(2), exi(1, 1), exi(1, 3)),
    (xi(1), tauinv(3), tauinv(2)),
    (xi(3), tauinv(3), g()),  # tau(1) = g
    (xi(5), tauinv(3), 2 * xi(2)),  # tau(i^4) = 2xi^2
    (exi(1, 1), exi(2, 3), exi(3, 4)),
    (exi(1, 2), tauinv(1), HElement.zero()),
    (tauinv(1), tauinv(2), 2 * tauinv(3)),  # tau(x)tau(y) = 2tau(xy)
]


def test_product_of_every_pair_of_kinds():
    def kind(x):
        (mono,) = [m for m in MONOS if HElement.monomial(m) == x]
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
                (HElement.monomial(m, c) * z for m, c in ((MONO_ONE, combo.c), (MONO_G, combo.g))),
                HElement.zero(),
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
    assert in_T(HElement.zero())


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


def test_monomials_in_grading():
    assert monomials_in_grading(0, 0) == [MONO_ONE, MONO_G]
    assert monomials_in_grading(0, 3) == [HMonomial(PLAIN, 3, 0)]
    assert monomials_in_grading(0, -2) == [HMonomial(KAPPA, -2, 0)]
    assert monomials_in_grading(-4, 4) == [HMonomial(PLAIN, 0, 2)]
    assert monomials_in_grading(-4, 7) == [HMonomial(PLAIN, 3, 2)]
    assert monomials_in_grading(6, -6) == [HMonomial(TRANSFER, 0, -3)]
    assert monomials_in_grading(6, -4) == []
    assert monomials_in_grading(3, -3) == []  # odd columns are out of scope
    # consistency with the monomials' own gradings
    for mono in MONOS:
        grad = mono.grading
        assert mono in monomials_in_grading(grad.a, grad.b)
    # and the other way: every monomial returned has the grading asked for
    for a, b in itertools.product(range(-12, 13), repeat=2):
        for mono in monomials_in_grading(a, b):
            assert mono.grading == PiBDegree(0, a, b)


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
    assert str(HElement.zero()) == "0"


# The product as it was before an element became its fields: a dict of
# monomials, each pair multiplied by the three laws into (monomial,
# coefficient) pairs, the families' members written out by ``_member``.
def _member(family, w):
    uv = (w, 0) if family == KAPPA else (0, w)
    if w > 0:  # e^w*kappa = 2e^w, tau(i^2w) = 2*xi^w
        return [(HMonomial(PLAIN, *uv), 2)]
    if w == 0 and family == KAPPA:
        return [(MONO_ONE, 2), (MONO_G, -1)]  # kappa = 2 - g
    return [(HMonomial(family, *uv), 1)]


def _mono_mul(x, y):
    if x[0] > y[0]:
        x, y = y, x
    fx, ux, vx = x
    fy, uy, vy = y
    u, v = ux + uy, vx + vy
    if fy == PLAIN:
        return [(HMonomial(PLAIN, u, v), 1)]
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
    return sum((ring.monomial(m, c) for m, c in terms.items()), ring.zero())


ORACLE_MONOS = [HMonomial(f, u, v) for f in (PLAIN, KAPPA, TRANSFER)
                for u in range(-8, 9) for v in range(-8, 9) if hs._exists(f, u, v)]
# the a + b*g elements of degree 0, as dicts of terms
ORIGIN_TERMS = [{MONO_ONE: a, MONO_G: b} for a, b in [(1, 1), (2, -1), (-3, 1), (0, 2), (-1, 3)]]


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
    assert ring(-1, 1, 0) == ring(1, -1, 0, 0) == ring.zero()


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
             kappa() - kappa(), xi(4) * 0, HElement(-3, 2, 0), HElement.zero()]
    assert all(z == HElement.zero() and not z for z in zeros)
    assert len({hash(z) for z in zeros}) == 1 and len(set(zeros)) == 1
    assert all(z.grading is None and str(z) == "0" for z in zeros)
    # zero adds to an element of any grading
    assert zeros[0] + exi(1, 2) == exi(1, 2) == exi(1, 2) + zeros[1]
    z_zeros = [ZHElement.from_burnside(einvkappa(2)), ZHElement(3, 0, 2), ZHElement.zero(),
               ZHElement.from_burnside(2 - g())]
    assert all(z == ZHElement.zero() for z in z_zeros)
    assert len({hash(z) for z in z_zeros}) == 1
