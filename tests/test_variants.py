"""Constant-Z and Borel theories: maps, closed forms, information loss."""

import itertools
import operator
import random
from math import comb

import pytest

from equibezout import hscalar as hs
from equibezout.grading import join_signed
from equibezout.euler import BundleSum, degrees, euler_product, ranks
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
    ZHElement,
    _c_binomial,
    borel_euler_closed,
    borel_map,
    compare,
    z_euler_closed,
    z_fixed,
    z_map,
)
from oracles import O, borel_relation, einvkappa, kappa, one, tauinv, xO


POINT = ProjSpace(1, 1)  # a c^0 class over it is the image of a point-ring scalar


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
    assert to_z(kappa()) == ZHElement.from_int(0)
    assert to_z(hs.g()) == ZHElement.from_int(2)
    assert to_z(3 * hs.e(2)) == ZHElement(2, 0, 1)
    assert to_z(einvkappa(4)) == ZHElement.from_int(0)
    assert to_z(tauinv(2)) == to_z(tauinv(2))
    assert to_z(2 * hs.e(3)) == ZHElement.from_int(0)


def test_z_ring_is_2_torsion_on_e():
    e = ZHElement(1, 0, 1)
    assert e + e == ZHElement.from_int(0)
    assert e * e == ZHElement(2, 0, 1)


def test_burnside_and_constZ_scalars_never_mix():
    h, z = hs.e(2), ZHElement(2, 0, 1)
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
    # the Borel classes mix with neither ring, nor with integers
    b = BorelElement(POINT, 2, 0, {0: 1})
    for other in (h, z, 1):
        assert b != other and other != b
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(b, other)
            with pytest.raises(TypeError):
                op(other, b)
    five = BorelElement(POINT, 0, 0, {0: 5})
    for result in (b * b, b + b, b * five, five + five):
        assert type(result) is BorelElement
    # a Borel class is homogeneous: e^2 + 1 has no normal form
    one = BorelElement(POINT, 0, 0, {0: 1})
    with pytest.raises(ValueError, match="mixed gradings"):
        b + one
    with pytest.raises(ValueError, match="mixed gradings"):
        one + b


def test_ring_constants_are_shared_per_ring_class():
    hooks = (lambda r: r.ring_one(), lambda r: r.ring_u())
    for ring in (hs.HElement, ZHElement):
        for hook in hooks:
            assert hook(ring) is hook(ring) and type(hook(ring)) is ring
    assert hs.HElement.ring_u() != hs.HElement.ring_one()
    assert ZHElement.ring_u() == ZHElement.ring_one()  # u = g - 1 folds to 1
    # a rewrite that starts from xi^k shifts the shared one
    assert ZHElement.ring_one().shift(0, 2) == ZHElement.from_burnside(hs.xi(2))


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
    y = ModuleElement(sp, {BasisMonomial(sp, 0, 0, 1, 1): einvkappa(2)})
    assert z_map(y) == ModuleElement.zero(sp, ZHElement)


def test_z_map_is_a_ring_map():
    rng = random.Random(97531)
    pool = [
        one(),
        hs.g(),
        kappa(),
        hs.e(1),
        hs.xi(1),
        einvkappa(2),
        tauinv(1),
        3 * one(),
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
    e2 = BorelElement(POINT, 2, 0, {0: 1})
    assert e2 + e2 == BorelElement(POINT, 0, 0, {})
    # the integer-graded subring is the group cohomology pattern
    gen = BorelElement(POINT, 2, -1, {0: 1})  # e^2 * xi^-1, degree 2
    power = BorelElement(POINT, 0, 0, {0: 1})
    for _ in range(5):
        power = power * gen
        assert power
        assert power + power == BorelElement(POINT, 0, 0, {})


def test_borel_relation_reduces_to_zero():
    for p, q in [(1, 1), (2, 2), (2, 3), (5, 5)]:
        sp = ProjSpace(p, q)
        N = p + q
        assert BorelElement(sp, 2 * N, 0, borel_relation(sp)) == BorelElement(sp, 0, 0, {})


def _times_relation(x: BorelElement) -> BorelElement:
    """x times the relation, multiplied out by hand and then reduced."""
    raw = {}
    for k1, v1 in x.coeffs.items():
        for k2, v2 in borel_relation(x.sp).items():
            raw[k1 + k2] = raw.get(k1 + k2, 0) + v1 * v2
    return BorelElement(x.sp, x.u + 2 * (x.sp.p + x.sp.q), x.v, raw)


def random_homogeneous(rng, sp, kmax, umax, vmax, cmax):
    """A random homogeneous Borel class: c^k carries c_k*e^(u0 - 2k)*xi^v
    for k below a random top, c_k in [-cmax, cmax]."""
    top = rng.randint(1, kmax)
    u0, v = 2 * (top - 1) + rng.randint(0, umax), rng.randint(-vmax, vmax)
    return BorelElement(sp, u0, v, {k: rng.randint(-cmax, cmax) for k in range(top)})


def test_borel_reduction_kills_relation_multiples():
    rng = random.Random(13579)
    for _ in range(100):
        sp = ProjSpace(rng.randint(1, 5), rng.randint(1, 5))
        x = random_homogeneous(rng, sp, kmax=6, umax=4, vmax=3, cmax=5)
        assert _times_relation(x) == BorelElement(sp, 0, 0, {})
        # reduction is idempotent
        assert BorelElement(sp, x.u, x.v, dict(x.coeffs)) == x


def test_borel_reduction_cascading_overflow():
    # reducing the top degree can push coefficients back above the cutoff;
    # a high single term over a small space exercises the cascade
    sp = ProjSpace(1, 3)
    x = BorelElement(sp, 18, 0, {9: 1})
    assert _times_relation(x) == BorelElement(sp, 0, 0, {})


def test_borel_map_line_bundles():
    sp = ProjSpace(3, 3)
    F = bundle_sum(3, 3, O(2))
    got = borel_map(euler_product(F), ranks(F).n_fix1)
    assert got == BorelElement(sp, 2, 0, {1: 2})
    F = bundle_sum(3, 3, xO(2))
    got = borel_map(euler_product(F), ranks(F).n_fix1)
    assert got == BorelElement(sp, 2, 0, {1: 2, 0: 1})
    for d in (-3, -2, 1, 4):
        F = bundle_sum(3, 3, O(d))
        assert borel_map(euler_product(F), ranks(F).n_fix1) == BorelElement(
            sp, 2, 0, {1: d}
        )
        F = bundle_sum(3, 3, xO(d))
        assert borel_map(euler_product(F), ranks(F).n_fix1) == BorelElement(
            sp, 2, 0, {1: d, 0: 1}
        )


def test_borel_euler_closed_three_cases():
    # even degrees only: Delta * c^n
    sp = ProjSpace(3, 3)
    got = borel_euler_closed(bundle_sum(3, 3, O(2), xO(2)))
    assert got == BorelElement(sp, 4, 0, {2: 4})
    # odd Delta: Delta * c^n0 * (c + e^2)^n1
    sp = ProjSpace(2, 2)
    got = borel_euler_closed(bundle_sum(2, 2, O(3), xO(1)))
    assert got == BorelElement(sp, 4, 0, {2: 3, 1: 1})
    # even Delta with odd fixed degree
    sp = ProjSpace(5, 5)
    got = borel_euler_closed(bundle_sum(5, 5, *[xO(2)] * 4))
    assert got == BorelElement(sp, 8, 0, {4: 16, 0: 1})


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
    FA, FB = bundle_sum(2, 2, O(3), xO(1)), bundle_sum(2, 2, O(1), xO(3))
    assert compare(FA, FB) == {"burnside": False, "zconst": True, "borel": True}
    assert tuple(degrees(FA)) == (3, 3, 1)
    assert tuple(degrees(FB)) == (3, 1, 3)


def test_compare_identical_and_distinct():
    F = bundle_sum(3, 3, O(2), xO(1))
    assert compare(F, F) == {"burnside": True, "zconst": True, "borel": True}
    flags = compare(bundle_sum(3, 3, O(2)), bundle_sum(3, 3, O(4)))
    assert flags == {"burnside": False, "zconst": False, "borel": False}


def test_compare_rejects_bad_context():
    with pytest.raises(ValueError):
        compare(bundle_sum(1, 1, O(1), O(1)), bundle_sum(1, 1, O(1)))


@pytest.mark.parametrize("op", [operator.add, operator.mul])
def test_borel_elements_over_different_spaces_do_not_mix(op):
    x = BorelElement(ProjSpace(1, 1), 2, 0, {1: 1})
    y = BorelElement(ProjSpace(3, 3), 8, 0, {4: 1})
    with pytest.raises(ValueError, match="elements over different spaces"):
        op(x, y)


# The Borel scalar as it was before it became one monomial: a dict of
# coefficients keyed by the exponent pair (u, v) of e^u*xi^v, reduced mod 2
# at u >= 1, with the product adding exponents term by term.
def dict_normal(terms):
    return {uv: c % 2 if uv[0] else c for uv, c in terms.items() if (c % 2 if uv[0] else c)}


def dict_product(x, y):
    out = {}
    for (ux, vx), cx in x.items():
        for (uy, vy), cy in y.items():
            uv = (ux + uy, vx + vy)
            out[uv] = out.get(uv, 0) + cx * cy
    return dict_normal(out)


def dict_sum(x, y):
    out = dict(x)
    for uv, c in y.items():
        out[uv] = out.get(uv, 0) + c
    return dict_normal(out)


def dict_str(x):
    return join_signed([hs.signed_term(x[uv], hs.monomial_text(uv)) for uv in sorted(x)])


def as_dict(x):
    return {(x.u, x.v): x.coeffs[0]} if x else {}


def test_borel_scalar_matches_the_dict_oracle():
    # the Borel images of point-ring scalars are the c^0 classes
    pairs = [(u, v) for u in range(5) for v in range(-4, 5)]
    elems = [BorelElement(POINT, u, v, {0: c})
             for (u, v), c in itertools.product(pairs, (0, 1, -3))]
    for x in elems:
        assert str(x) == dict_str(as_dict(x)), x
        for y in elems:
            assert as_dict(x * y) == dict_product(as_dict(x), as_dict(y)), (x, y)
            assert str(x * y) == dict_str(dict_product(as_dict(x), as_dict(y))), (x, y)
            if (x.u, x.v) == (y.u, y.v) or not (x and y):
                assert as_dict(x + y) == dict_sum(as_dict(x), as_dict(y)), (x, y)


def test_borel_scalar_constructor_rejects_negative_e_and_g():
    with pytest.raises(ValueError, match="no Borel group at e\\^-1"):
        BorelElement(POINT, -1, 0, {0: 1})
    # the fields are the grading and the integers: no g term to reject
    assert BorelElement.__slots__ == ("sp", "u", "v", "coeffs")
    assert not hasattr(BorelElement(POINT, 1, 1, {0: 1}), "__dict__")
    assert (BorelElement(POINT, 3, -2, {0: 4}) == BorelElement(POINT, 0, 0, {})
            == BorelElement(POINT, 0, 5, {0: 0}))


def test_borel_coefficients_reduce_mod_2_above_e0():
    sp = ProjSpace(4, 4)
    # c_k lives in Z at e^0 (k = 2) and in Z/2 at e^2 (k = 1) and e^4 (k = 0)
    x = BorelElement(sp, 4, 1, {0: 3, 1: -4, 2: -6})
    assert x.coeffs == {0: 1, 2: -6}
    assert str(x) == "e^4*xi + (-6*xi)*c^2"
    # and in Z/2 at e^5, e^3 and e^1
    assert BorelElement(sp, 5, -2, {0: -7, 1: 5, 2: 2}).coeffs == {0: 1, 1: 1}


def test_borel_coefficient_below_e0_is_refused():
    sp = ProjSpace(2, 3)
    for u, k in ((0, 1), (3, 2), (1, 4), (-2, 0)):
        with pytest.raises(ValueError, match=f"no Borel group at e\\^{u - 2 * k}:"):
            BorelElement(sp, u, 0, {k: 1})
        assert BorelElement(sp, u, 0, {k: 0}) == BorelElement(sp, 0, 0, {})
    # above the relation's degree too, before it is reduced away
    with pytest.raises(ValueError, match="no Borel group"):
        BorelElement(sp, 9, 0, {5: 1})
    with pytest.raises(ValueError, match="negative c-exponent"):
        BorelElement(sp, 0, 0, {-1: 1})


def test_every_borel_zero_is_the_zero():
    sp = ProjSpace(2, 2)
    zero = BorelElement(sp, 0, 0, {})
    assert (zero.u, zero.v, zero.coeffs) == (0, 0, {}) and not zero
    zeros = [
        BorelElement(sp, 5, 3, {}),
        BorelElement(sp, 6, -1, {0: 2, 1: 4, 2: 0}),  # even multiples of e^6, e^4
        BorelElement(sp, 8, 0, borel_relation(sp)),  # the relation
        BorelElement(sp, 2, 0, {1: 3}) + BorelElement(sp, 2, 0, {1: -3}),
        BorelElement(sp, 3, 1, {0: 1}) * BorelElement(sp, 0, 0, {0: 2}),
        # (c^2 - e^4) * c^2, as c^4 = e^4*c^2 over X(2, 2)
        BorelElement(sp, 4, 0, {0: -1, 2: 1}) * BorelElement(sp, 4, 0, {2: 1}),
    ]
    for x in zeros:
        assert x == zero and (x.u, x.v) == (0, 0) and not x, x
        assert str(x) == "0"
    # a zero adds to a class of any grading
    x = BorelElement(sp, 3, -1, {1: 1})
    assert x + zeros[0] == x == zeros[1] + x


def test_borel_sum_of_two_gradings_is_refused():
    sp = ProjSpace(3, 3)
    # 1 + c is not homogeneous: c lies in the grading of e^2
    with pytest.raises(ValueError, match="mixed gradings"):
        BorelElement(sp, 0, 0, {0: 1}) + BorelElement(sp, 2, 0, {1: 1})
    with pytest.raises(ValueError, match="mixed gradings"):
        BorelElement(sp, 2, 0, {1: 1}) + BorelElement(sp, 2, 1, {1: 1})
    assert BorelElement(sp, 2, 0, {1: 1}) + BorelElement(sp, 2, 0, {0: 1}) == BorelElement(
        sp, 2, 0, {0: 1, 1: 1})


def test_borel_product_adds_the_gradings():
    sp = ProjSpace(3, 3)
    x = BorelElement(sp, 3, -1, {1: 1, 0: 1})  # e*xi^-1*c + e^3*xi^-1
    y = BorelElement(sp, 2, 4, {1: -5})  # -5*xi^4*c
    xy = x * y
    assert (xy.u, xy.v) == (5, 3) == (x.u + y.u, x.v + y.v)
    assert xy == BorelElement(sp, 5, 3, {2: 1, 1: 1}) == y * x
    one = BorelElement(sp, 0, 0, {0: 1})
    assert x * one == x == one * x
    square = BorelElement(sp, 4, 0, {2: 2})
    assert square * square == BorelElement(sp, 8, 0, {4: 4})


def test_c_binomial_keeps_the_odd_binomials():
    for a, b in itertools.product(range(3), range(71)):
        got = list(_c_binomial(a, b))
        assert got[0] == a + b and len(set(got)) == len(got)
        assert set(got) == {a + j for j in range(b + 1) if comb(b, j) % 2}
    assert len(list(_c_binomial(0, 15000))) == 2 ** bin(15000).count("1") == 128
