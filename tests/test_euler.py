"""Line-bundle classification, both Euler-class paths, degree recovery."""

import random

import pytest

from equibezout import euler, projmod
from equibezout import hscalar as hs
from equibezout.euler import (
    BURNSIDE_CHECKS,
    BundleSum,
    DegreeTriple,
    EulerReport,
    LineBundle,
    O,
    bezout_report,
    classify_line,
    closed_carriers,
    context_check,
    degrees,
    euler_closed,
    euler_line,
    euler_product,
    ranks,
    recover_degrees,
    xO,
)
from equibezout.grading import PiBDegree, RankTriple, euler_grading
from equibezout.projmod import (
    BasisMonomial,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    mod_fixed,
    mod_mul,
    mod_rho,
    raw_monomial,
)
from equibezout.variants import ZHElement, borel_euler_closed, z_euler_closed
from equibezout.verify import random_bundle_sum
from oracles import einvkappa, euler_product_fold, one, tauinv

U = hs.HElement.ring_u()


def mono_elem(sp, s, t, a, b, coeff=None):
    return ModuleElement(
        sp, {BasisMonomial(sp, s, t, a, b): one() if coeff is None else coeff}
    )


def bundle_sum(p, q, *lines):
    return BundleSum.make(ProjSpace(p, q), lines)


def test_classify():
    assert classify_line(O(3)) == "I"
    assert classify_line(O(2)) == "II"
    assert classify_line(O(0)) == "II"
    assert classify_line(O(-1)) == "I"
    assert classify_line(xO(2)) == "IV"
    assert classify_line(xO(-3)) == "III"


def test_ranks():
    assert ranks(bundle_sum(5, 5, *[xO(2)] * 4)) == RankTriple(4, 0, 0)
    assert ranks(bundle_sum(2, 2, O(2))) == RankTriple(1, 1, 1)
    assert ranks(bundle_sum(2, 2, O(3), xO(1))) == RankTriple(2, 1, 1)


def test_degrees():
    assert degrees(bundle_sum(5, 5, *[xO(2)] * 4)) == DegreeTriple(16, 1, 1)
    assert degrees(bundle_sum(2, 2, O(2))) == DegreeTriple(2, 2, 2)
    assert degrees(bundle_sum(2, 2, O(3), xO(1))) == DegreeTriple(3, 3, 1)
    # clamping once the fixed rank fills the fixed component
    assert degrees(bundle_sum(2, 3, O(1), O(1), O(2))) == DegreeTriple(2, 0, 2)


def test_context_check():
    assert context_check(bundle_sum(5, 5, *[xO(2)] * 4)) == []
    assert context_check(bundle_sum(1, 1, O(1), O(1)))  # n = p + q
    # three untwisted odd bundles on X(2,2): n1 = 0 < n - p = 1 fails
    violations = context_check(bundle_sum(2, 2, O(1), O(1), O(1)))
    assert violations and any("n1" in v for v in violations)
    # but a fixed rank at or above p alone is not a violation
    assert context_check(bundle_sum(2, 3, O(1), O(1), O(2))) == []


def test_euler_line_type_I():
    sp = ProjSpace(2, 2)
    assert euler_line(O(1), sp) == mono_elem(sp, 0, 0, 1, 0)
    got = euler_line(O(3), sp)
    expected = mono_elem(sp, 0, 0, 1, 0, 3 * one()) + mono_elem(
        sp, 1, 0, 2, 0, -einvkappa(2)
    )
    assert got == expected
    # oracle: restrictions of a degree-3 class of type I
    assert mod_rho(got) == NoneqPoly.make(4, {1: 3})
    assert mod_fixed(got) == (NoneqPoly.make(2, {1: 3}), NoneqPoly.make(2, {0: 1}))


def test_euler_line_type_II():
    sp = ProjSpace(2, 2)
    got = euler_line(O(2), sp)
    expected = mono_elem(sp, 1, 0, 1, 0, tauinv(1)) + mono_elem(
        sp, 0, 0, 1, 1, einvkappa(2)
    )
    assert got == expected


def test_euler_line_twisted_types():
    sp = ProjSpace(3, 3)
    assert euler_line(xO(1), sp) == mono_elem(sp, 0, 0, 0, 1)
    got = euler_line(xO(3), sp)
    expected = mono_elem(sp, 0, 0, 0, 1, one() + hs.g()) + mono_elem(
        sp, 1, 0, 1, 1, einvkappa(2)
    )
    assert got == expected
    got = euler_line(xO(2), sp)
    expected = ModuleElement.unit(sp).scale(hs.e(2)) + mono_elem(
        sp, 1, 0, 1, 0, hs.g()
    )
    assert got == expected
    assert euler_line(O(0), sp) == ModuleElement.zero(sp)


def test_euler_line_requires_both_components():
    with pytest.raises(ValueError):
        euler_line(O(1), ProjSpace(3, 0))


def engine_line(L, sp, ring):
    """The single-bundle class from its defining formulas, normalised by the
    rewrite engine in ``ring`` itself (not mapped from the Burnside class)."""
    def mono(s, t, a, b):
        return raw_monomial(sp, s, t, a, b, ring)

    d, rem = divmod(L.d, 2)
    g = ring.from_burnside(hs.g())
    eik2 = ring.from_burnside(einvkappa(2))
    if not L.twisted and rem:  # O(2d+1)
        return mono(0, 0, 1, 0) + (
            mono(0, 0, 1, 0).scale(g) + mono(0, 1, 1, 1).scale(eik2)
        ).scale(d)
    if not L.twisted:  # O(2d)
        tl = ring.from_burnside(tauinv(1))
        return (mono(1, 0, 1, 0).scale(tl) + mono(0, 0, 1, 1).scale(eik2)).scale(d)
    if rem:  # xO(2d+1)
        return mono(0, 0, 0, 1) + (
            mono(0, 0, 0, 1).scale(g) + mono(1, 0, 1, 1).scale(eik2)
        ).scale(d)
    e2 = ring.from_burnside(hs.e(2))  # xO(2d)
    return ModuleElement.unit(sp, ring).scale(e2) + mono(1, 0, 1, 0).scale(g).scale(d)


@pytest.mark.parametrize("ring", [hs.HElement, ZHElement], ids=lambda r: r.__name__)
def test_euler_line_matches_engine(ring):
    cases = 0
    for p in range(1, 9):
        for q in range(1, 9):
            sp = ProjSpace(p, q)
            for d in range(-9, 10):
                for L in (O(d), xO(d)):
                    got = euler_line(L, sp, ring)
                    assert got == engine_line(L, sp, ring), (L, sp)
                    assert got.ring is ring
                    assert all(type(c) is ring and c for c in got.terms.values())
                    cases += 1
    assert cases == 8 * 8 * 19 * 2


def test_euler_line_skips_the_rewrite_engine(monkeypatch):
    cases = [
        (L, sp, ring)
        for sp in (ProjSpace(1, 1), ProjSpace(3, 2))
        for L in (O(5), O(-4), xO(7), xO(2))  # the four types
        for ring in (hs.HElement, ZHElement)
    ]
    expected = [engine_line(*case) for case in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("euler_line reached the rewrite engine")

    monkeypatch.setattr(projmod, "gen_mul", refuse)
    monkeypatch.setattr(euler, "raw_monomial", refuse)
    monkeypatch.setattr(ModuleElement, "scale", refuse)
    assert [euler_line(*case) for case in cases] == expected


def long_sum():
    """59 lines of four distinct kinds over X(40, 40)."""
    F = BundleSum.make(ProjSpace(40, 40), [O(3)] * 20 + [xO(2)] * 10
                       + [O(2)] * 15 + [xO(1)] * 14)
    assert ranks(F) == RankTriple(59, 35, 29) and context_check(F) == []
    return F


def test_euler_product_work_is_bounded(monkeypatch):
    # a long product over a large space: each generator step starts from its
    # term's coefficient, so an image that is a bare monomial costs no
    # point-ring product (1,048 products before that, for the same steps),
    # and no rule multiplies by the unit u where it cancels (581 before that);
    # a step multiplies by a whole monomial of a line class, so each term of
    # the product takes one step per such monomial (406 one-generator steps
    # before that); a torsion product, zero once scaled, takes no step (278
    # steps before that).  A rule's constant e^2 or xi^k is a monomial
    # shift, counted as a product: 278 products and 62 shifts, 340 in all
    F = long_sum()
    calls = {"mul": 0, "gen_mul": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    product = counted("mul", hs.HElement.__mul__)
    monkeypatch.setattr(hs.HElement, "__mul__", product)
    monkeypatch.setattr(hs.HElement, "__rmul__", product)
    monkeypatch.setattr(hs.HElement, "shift", counted("mul", hs.HElement.shift))
    monkeypatch.setattr(projmod, "gen_mul", counted("gen_mul", projmod.gen_mul))
    got = euler_product(F)
    steps, products = calls["gen_mul"], calls["mul"]  # euler_closed adds its own
    assert got == euler_closed(F)
    assert steps == 200, steps
    assert products <= 340, products


def test_euler_product_builds_nothing_per_step(monkeypatch):
    # each distinct line class is built once per call, and the running
    # product is one dict across all the lines: no mod_mul, and one wrapper
    # per line class plus one for the result (63 wrappers when every line
    # took one mod_mul, 10,480 in 20 calls when every step made its own)
    F = long_sum()
    calls = {"line": 0, "mod_mul": 0, "trusted": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(euler, "euler_line", counted("line", euler.euler_line))
    for mod in (euler, projmod):
        monkeypatch.setattr(mod, "mod_mul", counted("mod_mul", mod.mod_mul))
    monkeypatch.setattr(ModuleElement, "_trusted",
                        classmethod(counted("trusted", ModuleElement._trusted.__func__)))
    got = euler_product(F)
    assert calls["line"] == len(set(F.lines)) == 4
    assert calls["mod_mul"] == 0
    assert calls["trusted"] == calls["line"] + 1 == 5
    calls.update(line=0, mod_mul=0, trusted=0)
    assert euler_product(F) == got and calls["line"] == 4  # nothing kept


def large_sum(rng):
    """A context-valid sum of (p + q) // 2 to p + q - 1 lines of nonzero
    degree |d| <= 9 over X(p, q), p, q in [40, 120], the size of the
    benchmark's large euler requests."""
    degrees = [d for d in range(-9, 10) if d]
    while True:
        p, q = rng.randint(40, 120), rng.randint(40, 120)
        n = rng.randint((p + q) // 2, p + q - 1)
        lines = [LineBundle(rng.random() < 0.5, rng.choice(degrees)) for _ in range(n)]
        F = BundleSum.make(ProjSpace(p, q), lines)
        if not context_check(F):
            return F


@pytest.mark.parametrize("ring", [hs.HElement, ZHElement], ids=lambda r: r.__name__)
def test_euler_product_matches_mod_mul_fold(ring):
    # the one-dict product against one mod_mul per line, on verify's
    # instances and on three sums of the benchmark's large size
    rng = random.Random(1)
    for _ in range(500):
        F = random_bundle_sum(rng, 6, 6, 5)
        assert euler_product(F, ring) == euler_product_fold(F, ring), F
    large = random.Random(1)
    for _ in range(3):
        F = large_sum(large)
        got = euler_product(F, ring)
        assert got and got == euler_product_fold(F, ring), F


def test_euler_product_four_fold_twisted_class():
    F = bundle_sum(5, 5, *[xO(2)] * 4)
    sp = F.sp
    expected = ModuleElement.unit(sp).scale(hs.e(8)) + mono_elem(
        sp, 0, 0, 2, 2, 16 * hs.xi(2)
    )
    assert euler_product(F) == expected
    assert euler_closed(F) == expected


def test_euler_product_trivial_cases():
    sp = ProjSpace(3, 3)
    assert euler_product(BundleSum.make(sp, [])) == ModuleElement.unit(sp)
    assert euler_product(bundle_sum(3, 3, O(1), xO(1))) == mono_elem(sp, 0, 0, 1, 1)


def test_empty_sum_is_monoidal_unit():
    empty = BundleSum.make(ProjSpace(3, 3), [])
    assert context_check(empty) == []
    assert ranks(empty) == RankTriple(0, 0, 0)
    assert degrees(empty) == DegreeTriple(1, 1, 1)
    assert euler_closed(empty) == ModuleElement.unit(empty.sp)


def test_euler_closed_type_II_generic():
    # case with even degrees: k = 3 and the transfer coefficient
    for p, q in [(2, 2), (3, 4)]:
        sp = ProjSpace(p, q)
        F = bundle_sum(p, q, O(2))
        expected = mono_elem(sp, 1, 0, 1, 0, tauinv(1)) + mono_elem(
            sp, 0, 0, 1, 1, einvkappa(2)
        )
        assert euler_closed(F) == expected


def test_euler_closed_mixed_example():
    sp = ProjSpace(2, 2)
    F = bundle_sum(2, 2, O(3), xO(1))
    expected = mono_elem(sp, 0, 0, 1, 1, 3 * one()) + mono_elem(
        sp, 1, 0, 2, 1, -einvkappa(2)
    )
    assert euler_closed(F) == expected
    assert euler_product(F) == expected


def test_euler_closed_on_tight_space():
    # O(2) on X(1,1): the kappa term dies since cw*cxw = 0 there
    sp = ProjSpace(1, 1)
    F = bundle_sum(1, 1, O(2))
    expected = mono_elem(sp, 1, 0, 1, 0, tauinv(1))
    assert euler_closed(F) == expected
    assert euler_product(F) == expected


def test_euler_closed_divided_carrier():
    # ranks push the diagonal carrier into the divided range
    F = bundle_sum(2, 4, O(2), O(2), O(2), O(1))
    sp = F.sp
    assert ranks(F) == RankTriple(4, 4, 3)
    assert degrees(F) == DegreeTriple(8, 0, 8)
    expected = mono_elem(sp, -1, 0, 2, 2, 4 * tauinv(1)) + mono_elem(
        sp, -2, 0, 2, 3, 4 * einvkappa(2)
    )
    assert euler_closed(F) == expected
    assert euler_product(F) == expected


@pytest.mark.parametrize("p, q, lines, raw, tau", [
    (1, 3, (O(1), O(2)), (-1, 0, 1, 1), hs.g()),  # the cw^p tower
    (3, 1, (O(2), xO(1)), (0, -1, 1, 1), hs.g()),  # the cxw^q tower
    (2, 2, (O(3), xO(1)), (0, 0, 1, 1), hs.g()),  # the middle branch
    (3, 3, (xO(2),) * 3, (1, 0, 2, 1), hs.tau_iota(1)),  # middle, odd n
    (3, 3, (O(2), O(2)), (0, 0, 1, 1), hs.tau_iota(-1)),  # middle, n0 = n1 = n
])
def test_closed_carriers_branches(p, q, lines, raw, tau):
    assert closed_carriers(bundle_sum(p, q, *lines)) == (raw, tau)


def test_recover_degrees():
    F = bundle_sum(5, 5, *[xO(2)] * 4)
    assert recover_degrees(euler_product(F)) == DegreeTriple(16, 1, 1)
    F = bundle_sum(2, 2, O(2))
    assert recover_degrees(euler_product(F)) == DegreeTriple(2, 2, 2)
    assert recover_degrees(ModuleElement.zero(ProjSpace(2, 2))) == DegreeTriple(0, 0, 0)


def test_zero_degree_bundles():
    # a d = 0 untwisted bundle kills the class; a twisted one leaves e^2
    sp = ProjSpace(2, 2)
    assert euler_product(bundle_sum(2, 2, O(0))) == ModuleElement.zero(sp)
    assert euler_closed(bundle_sum(2, 2, O(0))) == ModuleElement.zero(sp)
    F = bundle_sum(2, 2, xO(0))
    expected = ModuleElement.unit(sp).scale(hs.e(2))
    assert euler_product(F) == expected
    assert euler_closed(F) == expected
    assert recover_degrees(expected) == DegreeTriple(0, 1, 1)


def test_bezout_report_passes():
    report = bezout_report(bundle_sum(5, 5, *[xO(2)] * 4))
    assert isinstance(report, EulerReport)
    assert all(report.reported(BURNSIDE_CHECKS, "burnside").values())
    assert report.grading == PiBDegree(0, 0, 8)
    assert report.degrees == DegreeTriple(16, 1, 1)
    nonzero = {i: c for i, c in report.coefficients if c}
    assert set(nonzero) == {0, 4}

    report = bezout_report(bundle_sum(2, 2, O(3), xO(1)))
    assert all(report.reported(BURNSIDE_CHECKS, "burnside").values())
    assert report.degrees == DegreeTriple(3, 3, 1)
    vector = dict(report.coefficients)
    assert [vector[i] for i in range(4)] == [
        hs.HElement(0, 0, 0),
        hs.HElement(0, 0, 0),
        3 * one(),
        -einvkappa(2),
    ]


def test_bezout_report_rejects_bad_context():
    with pytest.raises(ValueError):
        bezout_report(bundle_sum(1, 1, O(1), O(1)))


@pytest.mark.parametrize(
    "F",
    [
        bundle_sum(1, 2, O(1), O(1)),
        bundle_sum(2, 2, *[O(1)] * 4),
        bundle_sum(1, 1, xO(1), xO(1)),
    ],
    ids=["X(1,2)-n1", "X(2,2)-n", "X(1,1)-twisted"],
)
def test_every_closed_form_enforces_the_context(F):
    # outside the context the closed formulas give wrong classes (e.g.
    # z1^-1*cxw for xO(1)+xO(1) over X(1,1), whose product is e^2*z1^-1*cxw)
    violations = context_check(F)
    assert violations
    for closed in (euler_closed, z_euler_closed, borel_euler_closed, bezout_report):
        with pytest.raises(ValueError) as info:
            closed(F)
        assert str(info.value) == "; ".join(violations)


def test_euler_grading_matches_class():
    for F in [
        bundle_sum(5, 5, *[xO(2)] * 4),
        bundle_sum(2, 2, O(3), xO(1)),
        bundle_sum(3, 3, O(2), xO(2)),
    ]:
        r = ranks(F)
        cls = euler_product(F)
        assert cls.grading == euler_grading(r.n_total, r.n_fix0, r.n_fix1)


def test_multiplicativity_with_clamp():
    F1 = bundle_sum(2, 3, O(1))
    F2 = bundle_sum(2, 3, O(2))
    total = bundle_sum(2, 3, O(1), O(2))
    assert mod_mul(euler_product(F1), euler_product(F2)) == euler_product(total)
    d1, d2, dt = degrees(F1), degrees(F2), degrees(total)
    assert dt.delta == d1.delta * d2.delta
    # combined n0 = 2 >= p, so the fixed degree clamps to 0 rather than 1*2
    assert dt.delta0 == 0
    assert d1.delta0 * d2.delta0 == 2
    assert dt.delta1 == d1.delta1 * d2.delta1
