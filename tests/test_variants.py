"""Constant-Z and Borel theories: maps, closed forms, information loss."""

import operator
import random

import pytest

from equibezout import hscalar as hs
from equibezout.euler import BundleSum, O, euler_product, ranks, xO
from equibezout.projmod import (
    BasisMonomial,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    basis,
    mod_mul,
)
from equibezout.variants import (
    BorelElement,
    BorelScalar,
    ZHElement,
    borel_euler_closed,
    borel_map,
    borel_relation,
    compare,
    z_euler_closed,
    z_fixed,
    z_map,
)


def bundle_sum(p, q, *lines):
    return BundleSum.make(ProjSpace(p, q), lines)


def zmono(sp, s, t, a, b, coeff=None):
    return ModuleElement(
        sp,
        {BasisMonomial(sp, s, t, a, b): ZHElement.from_int(1) if coeff is None else coeff},
        ZHElement,
    )


def test_from_burnside_examples():
    to_z = ZHElement.from_burnside
    assert to_z(hs.kappa()) == ZHElement.from_int(0)
    assert to_z(hs.g()) == ZHElement.from_int(2)
    assert to_z(3 * hs.e(2)) == ZHElement.ring_e2()
    assert to_z(hs.einvkappa(4)) == ZHElement.from_int(0)
    assert to_z(hs.tauinv(2)) == to_z(hs.tauinv(2))
    assert to_z(2 * hs.e(3)) == ZHElement.from_int(0)


def test_z_ring_is_2_torsion_on_e():
    e = ZHElement(1, 0, 1)
    assert e + e == ZHElement.from_int(0)
    assert e * e == ZHElement(2, 0, 1)


def test_burnside_and_constZ_scalars_never_mix():
    h, z = hs.e(2), ZHElement.ring_e2()
    assert h != z and z != h
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(h, z)
        with pytest.raises(TypeError):
            op(z, h)
    # integers act on both rings, and results keep the constant-Z class
    two = ZHElement.from_burnside(hs.g())
    for result in (two + 1, 1 - two, 3 * z, -z, z * z, z - z):
        assert type(result) is ZHElement
    assert (two * 3).divide_by_two() == 3
    with pytest.raises(ArithmeticError):
        z.divide_by_two()  # an e coefficient is always odd
    # the Borel scalars share the arithmetic but mix with neither ring
    b = BorelScalar.monomial(2, 0)
    for other in (h, z):
        assert b != other and other != b
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(b, other)
            with pytest.raises(TypeError):
                op(other, b)
    for result in (-b, b + 1, 1 + b, b * 3, 3 * b, b - 1, 1 - b, b * b):
        assert type(result) is BorelScalar


def test_ring_constants_are_shared_per_ring_class():
    hooks = (lambda r: r.ring_one(), lambda r: r.ring_u(), lambda r: r.ring_e2(),
             lambda r: r.ring_xi(1), lambda r: r.ring_xi(3))
    for ring in (hs.HElement, ZHElement):
        for hook in hooks:
            assert hook(ring) is hook(ring) and type(hook(ring)) is ring
    assert hs.HElement.ring_u() != hs.HElement.ring_one()
    assert ZHElement.ring_u() == ZHElement.ring_one()  # u = g - 1 folds to 1
    assert hs.HElement.ring_xi(1) is not hs.HElement.ring_xi(3)
    assert ZHElement.ring_xi(2) == ZHElement.from_burnside(hs.HElement.ring_xi(2))


def test_z_map_examples():
    sp = ProjSpace(5, 5)
    # the 4-fold twisted class is kappa-free and survives unchanged
    F = bundle_sum(5, 5, *[xO(2)] * 4)
    z = z_map(euler_product(F))
    expected = ModuleElement.unit(sp, ZHElement).scale(
        ZHElement(8, 0, 1)
    ) + zmono(sp, 0, 0, 2, 2, ZHElement(0, 2, 16))
    assert z == expected
    # (1 - kappa) z0 cw collapses to z0 cw
    x = ModuleElement(
        sp, {BasisMonomial(sp, 1, 0, 1, 0): hs.HElement.ring_u()}
    )
    assert z_map(x) == zmono(sp, 1, 0, 1, 0)
    # kappa-multiples die
    y = ModuleElement(sp, {BasisMonomial(sp, 0, 0, 1, 1): hs.einvkappa(2)})
    assert z_map(y) == ModuleElement.zero(sp, ZHElement)


def test_z_map_is_a_ring_map():
    rng = random.Random(97531)
    pool = [
        hs.one(),
        hs.g(),
        hs.kappa(),
        hs.e(1),
        hs.xi(1),
        hs.einvkappa(2),
        hs.tauinv(1),
        3 * hs.one(),
    ]
    checked = 0
    while checked < 200:
        sp = ProjSpace(rng.randint(1, 4), rng.randint(1, 4))
        m1 = rng.choice(basis(sp, rng.randint(-3, 3)))
        m2 = rng.choice(basis(sp, rng.randint(-3, 3)))
        if m2.s < 0 or m2.t < 0:
            continue
        x = ModuleElement(sp, {m1: rng.choice(pool)})
        y = ModuleElement(sp, {m2: rng.choice(pool)})
        assert z_map(mod_mul(x, y)) == mod_mul(z_map(x), z_map(y))
        checked += 1


def test_z_euler_closed_three_cases():
    # odd total degree: the class is just Delta times the diagonal carrier
    sp = ProjSpace(2, 2)
    got = z_euler_closed(bundle_sum(2, 2, O(3), xO(1)))
    assert got == zmono(sp, 0, 0, 1, 1, ZHElement.from_int(3))
    # even with an odd fixed degree: transfer term plus an e-power term
    sp = ProjSpace(5, 5)
    got = z_euler_closed(bundle_sum(5, 5, *[xO(2)] * 4))
    expected = zmono(
        sp, 0, 0, 2, 2, ZHElement(0, 2, 16)
    ) + ModuleElement.unit(sp, ZHElement).scale(ZHElement(8, 0, 1))
    assert got == expected
    # all degrees even: only the transfer term, the kappa term is gone
    sp = ProjSpace(2, 2)
    got = z_euler_closed(bundle_sum(2, 2, O(2)))
    assert got == zmono(
        sp, 1, 0, 1, 0, ZHElement(0, -1, 1)
    )


def test_z_functoriality_on_examples():
    for F in [
        bundle_sum(2, 2, O(3), xO(1)),
        bundle_sum(5, 5, *[xO(2)] * 4),
        bundle_sum(2, 2, O(2)),
        bundle_sum(3, 3, O(2), xO(2)),
        bundle_sum(2, 4, O(2), O(2), O(2), O(1)),
    ]:
        assert z_map(euler_product(F)) == z_euler_closed(F)
        assert euler_product(F, ZHElement) == z_euler_closed(F)


def test_z_fixed_examples():
    assert z_fixed(z_euler_closed(bundle_sum(2, 2, O(3), xO(1)))) == (
        NoneqPoly.make(2, {1: 1}),
        NoneqPoly.make(2, {1: 1}),
    )
    assert z_fixed(z_euler_closed(bundle_sum(3, 3, O(2), O(2)))) == (
        NoneqPoly.make(3, {}),
        NoneqPoly.make(3, {}),
    )
    sp = ProjSpace(2, 2)
    assert z_fixed(ModuleElement.unit(sp, ZHElement)) == (
        NoneqPoly.make(2, {0: 1}),
        NoneqPoly.make(2, {0: 1}),
    )


def test_borel_scalar_torsion():
    e2 = BorelScalar.monomial(2, 0)
    assert e2 + e2 == BorelScalar.from_int(0)
    # the integer-graded subring is the group cohomology pattern
    gen = BorelScalar.monomial(2, -1)  # e^2 * xi^-1, degree 2
    power = BorelScalar.from_int(1)
    for _ in range(5):
        power = power * gen
        assert power
        assert power + power == BorelScalar.from_int(0)


def test_borel_relation_reduces_to_zero():
    for p, q in [(1, 1), (2, 2), (2, 3), (5, 5)]:
        sp = ProjSpace(p, q)
        assert BorelElement(sp, borel_relation(sp)) == BorelElement.zero(sp)


def _times_relation_raw(x: BorelElement) -> dict:
    raw = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in borel_relation(x.sp).items():
            raw[k1 + k2] = raw.get(k1 + k2, BorelScalar.from_int(0)) + v1 * v2
    return raw


def test_borel_reduction_kills_relation_multiples():
    rng = random.Random(13579)
    for _ in range(100):
        sp = ProjSpace(rng.randint(1, 5), rng.randint(1, 5))
        x = BorelElement(
            sp,
            {
                k: BorelScalar.monomial(
                    rng.randint(0, 4), rng.randint(-3, 3), rng.randint(-5, 5)
                )
                for k in range(rng.randint(1, 6))
            },
        )
        assert BorelElement(sp, _times_relation_raw(x)) == BorelElement.zero(sp)
        # reduction is idempotent
        assert BorelElement(sp, dict(x.coeffs)) == x


def test_borel_reduction_cascading_overflow():
    # reducing the top degree can push coefficients back above the cutoff;
    # a high single term over a small space exercises the cascade
    sp = ProjSpace(1, 3)
    x = BorelElement(sp, {9: BorelScalar.from_int(1)})
    assert BorelElement(sp, _times_relation_raw(x)) == BorelElement.zero(sp)


def test_borel_map_line_bundles():
    sp = ProjSpace(3, 3)
    F = bundle_sum(3, 3, O(2))
    got = borel_map(euler_product(F), ranks(F).n_fix1)
    assert got == BorelElement(sp, {1: BorelScalar.from_int(2)})
    F = bundle_sum(3, 3, xO(2))
    got = borel_map(euler_product(F), ranks(F).n_fix1)
    assert got == BorelElement(
        sp, {1: BorelScalar.from_int(2), 0: BorelScalar.monomial(2, 0)}
    )
    for d in (-3, -2, 1, 4):
        F = bundle_sum(3, 3, O(d))
        assert borel_map(euler_product(F), ranks(F).n_fix1) == BorelElement(
            sp, {1: BorelScalar.from_int(d)}
        )
        F = bundle_sum(3, 3, xO(d))
        assert borel_map(euler_product(F), ranks(F).n_fix1) == BorelElement(
            sp, {1: BorelScalar.from_int(d), 0: BorelScalar.monomial(2, 0)}
        )


def test_borel_euler_closed_three_cases():
    # even degrees only: Delta * c^n
    sp = ProjSpace(3, 3)
    got = borel_euler_closed(bundle_sum(3, 3, O(2), xO(2)))
    assert got == BorelElement(sp, {2: BorelScalar.from_int(4)})
    # odd Delta: Delta * c^n0 * (c + e^2)^n1
    sp = ProjSpace(2, 2)
    got = borel_euler_closed(bundle_sum(2, 2, O(3), xO(1)))
    assert got == BorelElement(
        sp, {2: BorelScalar.from_int(3), 1: BorelScalar.monomial(2, 0)}
    )
    # even Delta with odd fixed degree
    sp = ProjSpace(5, 5)
    got = borel_euler_closed(bundle_sum(5, 5, *[xO(2)] * 4))
    assert got == BorelElement(
        sp, {4: BorelScalar.from_int(16), 0: BorelScalar.monomial(8, 0)}
    )


def test_borel_functoriality_on_examples():
    for F in [
        bundle_sum(2, 2, O(3), xO(1)),
        bundle_sum(5, 5, *[xO(2)] * 4),
        bundle_sum(2, 2, O(2)),
        bundle_sum(2, 4, O(2), O(2), O(2), O(1)),
    ]:
        got = borel_map(euler_product(F), ranks(F).n_fix1)
        assert got == borel_euler_closed(F)


def test_compare_information_loss():
    report = compare(
        bundle_sum(2, 2, O(3), xO(1)), bundle_sum(2, 2, O(1), xO(3))
    )
    assert report.flags == {"burnside": False, "zconst": True, "borel": True}
    assert tuple(report.degrees_a) == (3, 3, 1)
    assert tuple(report.degrees_b) == (3, 1, 3)


def test_compare_identical_and_distinct():
    F = bundle_sum(3, 3, O(2), xO(1))
    report = compare(F, F)
    assert report.flags == {"burnside": True, "zconst": True, "borel": True}
    report = compare(bundle_sum(3, 3, O(2)), bundle_sum(3, 3, O(4)))
    assert report.flags == {"burnside": False, "zconst": False, "borel": False}


def test_compare_rejects_bad_context():
    with pytest.raises(ValueError):
        compare(bundle_sum(1, 1, O(1), O(1)), bundle_sum(1, 1, O(1)))


@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_borel_elements_over_different_spaces_do_not_mix(op):
    x = BorelElement(ProjSpace(1, 1), {1: BorelScalar.from_int(1)})
    y = BorelElement(ProjSpace(3, 3), {4: BorelScalar.from_int(1)})
    with pytest.raises(ValueError, match="elements over different spaces"):
        op(x, y)
