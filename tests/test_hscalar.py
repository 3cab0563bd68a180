"""Arithmetic in the point ring: the monomial product and its consequences."""

import itertools

import pytest

from equibezout.grading import PiBDegree
from equibezout.hscalar import (
    E,
    EIK,
    EXI,
    G,
    ONE,
    HElement,
    HMonomial,
    MONO_G,
    MONO_ONE,
    TAUINV,
    XI,
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


def all_monomials(max_index=6):
    monos = [MONO_ONE, MONO_G]
    for i in range(1, max_index + 1):
        monos.append(HMonomial(E, i))
        monos.append(HMonomial(EIK, i))
        monos.append(HMonomial(XI, n=i))
        monos.append(HMonomial(TAUINV, n=i))
    for m in range(1, max_index + 1):
        for n in range(1, max_index + 1):
            monos.append(HMonomial(EXI, m, n))
    return monos


MONOS = all_monomials()
ELEMS = [HElement.monomial(m) for m in MONOS]


def test_monomial_hash_contract():
    for mono in MONOS:
        twin = HMonomial(mono.kind, mono.m, mono.n)
        assert twin is not mono and twin == mono and hash(twin) == hash(mono)
        assert {mono: "v"}[twin] == "v" and twin in {mono}
        assert str(twin) == str(mono)
        assert repr(twin) == f"HMonomial(kind={mono.kind!r}, m={mono.m}, n={mono.n})"
        assert HElement({twin: 3}) == HElement({mono: 3})
        assert hash(HElement({twin: 3})) == hash(HElement({mono: 3}))
    # ordering is that of the exponent fields alone
    assert sorted(MONOS) == sorted(MONOS, key=lambda x: (x.kind, x.m, x.n))
    assert all((x < y) == ((x.kind, x.m, x.n) < (y.kind, y.m, y.n))
               for x in MONOS[:20] for y in MONOS[:20])


def test_monomial_grading_from_exponents():
    from_exponents = {
        ONE: lambda m, n: (0, 0),
        G: lambda m, n: (0, 0),
        E: lambda m, n: (0, m),
        EIK: lambda m, n: (0, -m),
        XI: lambda m, n: (-2 * n, 2 * n),
        EXI: lambda m, n: (-2 * n, m + 2 * n),
        TAUINV: lambda m, n: (2 * n, -2 * n),
    }
    assert {mono.kind for mono in MONOS} == set(from_exponents)
    for mono in MONOS:
        assert mono.grading == PiBDegree(0, *from_exponents[mono.kind](mono.m, mono.n))


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
        (mono,) = x.terms
        return mono.kind

    pairs = {frozenset((kind(x), kind(y))) for x, y, _ in KIND_PAIR_PRODUCTS}
    assert pairs == {frozenset(p) for p in itertools.combinations_with_replacement(
        (ONE, G, E, EIK, XI, EXI, TAUINV), 2)}
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
                (HElement.monomial(m, c) * z for m, c in combo.terms.items()),
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
    assert monomials_in_grading(0, 3) == [HMonomial(E, 3)]
    assert monomials_in_grading(0, -2) == [HMonomial(EIK, 2)]
    assert monomials_in_grading(-4, 4) == [HMonomial(XI, n=2)]
    assert monomials_in_grading(-4, 7) == [HMonomial(EXI, 3, 2)]
    assert monomials_in_grading(6, -6) == [HMonomial(TAUINV, n=3)]
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
