"""Basis structure, the rewrite engine, and the two restriction maps."""

import copy
import itertools
import os
import pathlib
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from equibezout import hscalar as hs
from equibezout import projmod
from equibezout.euler import BundleSum, O, euler_product, xO
from equibezout.grading import PiBDegree
from equibezout.hscalar import HElement, h_fixed, h_rho
from equibezout.parsing import parse_module_element
from equibezout.projmod import (
    ALPHA,
    BETA,
    DELTA,
    EPS,
    GAMMA,
    ZETAF,
    BasisMonomial,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    UnsupportedProductError,
    apply_gen,
    basis,
    coeff_vector,
    gen_mul,
    in_tildeT,
    mod_fixed,
    mod_mul,
    mod_rho,
    raw_monomial,
)
from equibezout.variants import ZHElement, z_map
from oracles import einvkappa, kappa, one, scalars_in_grading, tauinv

U = HElement.ring_u()
Z1, CXW = projmod.GENERATORS["z1"], projmod.GENERATORS["cxw"]


def elem(sp, mono, coeff=None):
    return ModuleElement(sp, {mono: one() if coeff is None else coeff})


def step(gens, x, ring=HElement, coeff=None):
    """The images of ``coeff * gens * x`` (coeff defaults to one) as an
    element; ``gens`` is the exponent tuple of a generator monomial."""
    out = {}
    gen_mul(gens, x, ring, ring.ring_one() if coeff is None else coeff, out)
    return ModuleElement(x.sp, out, ring)


def test_projspace_validation():
    with pytest.raises(ValueError):
        ProjSpace(0, 0)
    with pytest.raises(ValueError):
        ProjSpace(-1, 2)


def test_basis_sizes_and_positions():
    for p in range(0, 11):
        for q in range(0, 11 - p):
            if p + q == 0:
                continue
            sp = ProjSpace(p, q)
            for m in range(-10, 11):
                monos = basis(sp, m)
                assert len(monos) == p + q
                assert [x.index for x in monos] == list(range(p + q))
                columns = {}
                for x in monos:
                    assert x.mclass == m
                    A, B = x.pos
                    assert A + B == x.index
                    columns[A] = columns.get(A, 0) + 1
                assert all(v <= 2 for v in columns.values())


DIAGRAMS_45 = {
    -6: {(-6, 6), (-5, 6), (-4, 6), (-3, 6), (-2, 6), (0, 5), (1, 5), (2, 5), (3, 5)},
    -3: {(-3, 3), (-2, 3), (-1, 3), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (3, 5)},
    0: {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 3), (3, 4), (4, 4)},
    2: {(0, 0), (1, 0), (2, 1), (3, 2), (2, 0), (3, 1), (4, 2), (5, 2), (6, 2)},
    6: {(6, -2), (7, -2), (8, -2), (9, -2), (10, -2), (0, 0), (1, 0), (2, 0), (3, 0)},
}


def test_basis_diagrams_X45():
    sp = ProjSpace(4, 5)
    for m, dots in DIAGRAMS_45.items():
        assert {x.pos for x in basis(sp, m)} == dots


def test_basis_m_minus6_monomials():
    got = [str(x) for x in basis(ProjSpace(4, 5), -6)]
    assert got == [
        "z0^6",
        "z0^5*cxw",
        "z0^4*cxw^2",
        "z0^3*cxw^3",
        "z0^2*cxw^4",
        "z1^-1*cxw^5",
        "z1^-2*cw*cxw^5",
        "z1^-3*cw^2*cxw^5",
        "z1^-4*cw^3*cxw^5",
    ]


def test_basis_m0_monomials():
    got = [str(x) for x in basis(ProjSpace(4, 5), 0)]
    assert got == [
        "1",
        "z0*cw",
        "cw*cxw",
        "z0*cw^2*cxw",
        "cw^2*cxw^2",
        "z0*cw^3*cxw^2",
        "cw^3*cxw^3",
        "z0*cw^4*cxw^3",
        "cw^4*cxw^4",
    ]


def test_basis_base_case():
    assert [str(x) for x in basis(ProjSpace(1, 0), 3)] == ["z1^3"]


def test_basis_with_a_missing_index_raises(monkeypatch):
    # the index check is a ValueError, so it also holds under python -O
    tuples = projmod._basis_tuples
    monkeypatch.setattr(projmod, "_basis_tuples", lambda p, q, m: tuples(p, q, m)[1:])
    with pytest.raises(ValueError, match="not indexed 0..p\\+q-1"):
        basis(ProjSpace(2, 3), 1)


def test_position_examples():
    sp = ProjSpace(4, 5)
    for exponents, expected in [
        ((1, 0, 1, 0), (0, 0, 1)),
        ((0, 0, 4, 4), (0, 4, 4)),
        ((6, 0, 0, 0), (-6, -6, 6)),
    ]:
        x = BasisMonomial(sp, *exponents)
        assert (x.mclass, *x.pos) == expected


def test_family_rejects_bad_monomials():
    sp = ProjSpace(2, 2)
    with pytest.raises(ValueError):
        BasisMonomial(sp, 0, 1, 0, 1)  # z1 with cxw is not in any family
    with pytest.raises(ValueError):
        BasisMonomial(sp, 0, 0, 2, 2)  # cw^p * cxw^q vanishes
    with pytest.raises(ValueError):
        BasisMonomial(sp, -1, 0, 1, 0)  # divided z0 without cw^p


def test_gen_mul_defining_relations():
    sp = ProjSpace(3, 3)
    unit = BasisMonomial(sp, 0, 0, 0, 0)
    cxw = BasisMonomial(sp, 0, 0, 0, 1)
    # z0 * z1 = xi
    assert apply_gen("z0", apply_gen("z1", elem(sp, unit))) == elem(sp, unit, hs.xi(1))
    # z1 * cxw = (1 - kappa) z0 cw + e^2
    got = step(Z1, cxw)
    expected = elem(sp, BasisMonomial(sp, 1, 0, 1, 0), U) + elem(sp, unit, hs.e(2))
    assert got == expected
    # cxw * (cw^p cxw^(q-1)) = 0
    top = BasisMonomial(sp, 0, 0, 3, 2)
    assert not step(CXW, top)


def test_gen_mul_divided_production():
    sp = ProjSpace(1, 1)
    cw = BasisMonomial(sp, 0, 0, 1, 0)
    got = step(Z1, cw)
    assert got == elem(sp, BasisMonomial(sp, -1, 0, 1, 0), hs.xi(1))
    # multiplying back by z0 recovers xi * cw
    assert apply_gen("z0", got) == elem(sp, cw, hs.xi(1))


def _step_coefficients(ring):
    """Scalars a walk can hand to ``gen_mul``: monomials in a few gradings
    and the multi-term u = g - 1 and kappa, carried into ``ring``."""
    burnside = [gen for a, b in ((0, 0), (0, 2), (0, -1), (-2, 2), (-2, 3), (2, -2))
                for gen in scalars_in_grading(a, b)]
    burnside += [hs.g() - 1, kappa()]
    return [ring.from_burnside(c) for c in burnside]


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_gen_mul_with_coefficient_matches_scaled_step(ring):
    coeffs = _step_coefficients(ring)
    checked = 0
    for p in range(1, 5):
        for q in range(1, 5):
            sp = ProjSpace(p, q)
            for m in range(-3, 4):
                for x in basis(sp, m):
                    for gen in projmod.GENERATORS.values():
                        one = step(gen, x, ring)
                        for c in coeffs:
                            assert step(gen, x, ring, c) == one.scale(c)
                        checked += 1
    assert checked == 4 * 7 * sum(p + q for p in range(1, 5) for q in range(1, 5))


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_gen_mul_into_a_dict_adds_the_step_images(ring):
    # the walk's form of a step: the images land in the caller's dict, added
    # to what is there, and everything else in the dict is left alone
    coeffs = [ring.ring_one(), ring.ring_u(), ring.from_burnside(kappa()),
              ring.ring_xi(1), ring(2, 0, 1)]
    checked = 0
    for sp in all_spaces(3):
        for m in range(-3, 4):
            for x in basis(sp, m):
                for gen in projmod.GENERATORS.values():
                    for c in coeffs:
                        images = step(gen, x, ring, c).terms
                        kept = object()
                        out = {"kept": kept, **images}
                        assert gen_mul(gen, x, ring, c, out) is None
                        assert out.pop("kept") is kept
                        assert {mono: v for mono, v in out.items() if v} == {
                            mono: v + v for mono, v in images.items() if v + v}
                    checked += 1
    assert checked == 4 * 7 * sum(sp.p + sp.q for sp in all_spaces(3))


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_tower_walks_cost_one_product_per_rewrite(ring, monkeypatch):
    # deep into both divided towers, and mirrored: every rule that fires
    # multiplies the coefficient once, by a product or by a monomial shift,
    # and u, which cancels against xi and e^2, is never multiplied in
    calls = {"mul": 0, "normalize": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    product = counted("mul", HElement.__mul__)
    monkeypatch.setattr(HElement, "__mul__", product)
    monkeypatch.setattr(HElement, "__rmul__", product)
    monkeypatch.setattr(HElement, "shift", counted("mul", HElement.shift))
    monkeypatch.setattr(projmod, "_normalize", counted("normalize", projmod._normalize))
    sp = ProjSpace(4, 4)
    work = {}
    for name, exps in {"cw^30": (0, 0, 30, 0), "cxw^30": (0, 0, 0, 30),
                       "z0^-1*cw^30": (-1, 0, 30, 0),
                       "z1^-1*cxw^30": (0, -1, 0, 30)}.items():
        calls.update(mul=0, normalize=0)
        assert raw_monomial(sp, *exps, ring=ring)
        work[name] = (calls["mul"], calls["normalize"])
    assert all(products <= steps for products, steps in work.values()), work
    assert work["cw^30"][0] == work["cxw^30"][0], work
    assert work["z0^-1*cw^30"][0] == work["z1^-1*cxw^30"][0], work


STEPS_TO_DEGREE_3 = [st for st in itertools.product(range(4), repeat=4) if sum(st) <= 3]


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_monomial_step_matches_the_one_generator_walk(ring):
    # one _normalize call takes x times any generator monomial of degree <= 3
    # to normal form: every such step agrees with apply_gen one generator at
    # a time, for every basis monomial of the classes |m| <= p + q + 2
    one = ring.ring_one()
    checked = 0
    for sp in all_spaces(3):
        for m in range(-(sp.p + sp.q) - 2, sp.p + sp.q + 3):
            for x in basis(sp, m):
                start = ModuleElement(sp, {x: one}, ring)
                for gens in STEPS_TO_DEGREE_3:
                    walked = start
                    for name, exp in zip(("z0", "z1", "cw", "cxw"), gens):
                        for _ in range(exp):
                            walked = apply_gen(name, walked)
                    assert step(gens, x, ring) == walked, (sp, x, gens)
                    checked += 1
    assert len(STEPS_TO_DEGREE_3) == 35
    assert checked == 35 * sum((sp.p + sp.q) * (2 * (sp.p + sp.q) + 5) for sp in all_spaces(3))


def test_steps_cut_a_monomial_into_steps_of_degree_at_most_3():
    for exps in itertools.product(range(5), range(5), range(8), range(8)):
        steps = projmod._steps(*exps)
        assert tuple(map(sum, zip(*steps))) == exps
        assert all(sum(st) == projmod.STEP_DEGREE for st in steps[:-1])
        assert 0 < sum(steps[-1]) <= projmod.STEP_DEGREE or steps == [(0, 0, 0, 0)]
    assert projmod._steps(0, 0, 0, 0) == [(0, 0, 0, 0)]


def test_apply_gen_refuses_an_unknown_generator():
    with pytest.raises(ValueError, match="unknown generator 'z2'"):
        apply_gen("z2", ModuleElement.unit(ProjSpace(1, 1)))


def test_mod_mul_of_long_powers_is_walked_in_short_steps(monkeypatch):
    # cw^20 * cw^20 over X(24, 24) walks steps of degree <= 3: 314 _normalize
    # calls; normalising the summed exponent in one step made 131,071
    calls = {"normalize": 0}
    normalize = projmod._normalize

    def counted(*args):
        calls["normalize"] += 1
        return normalize(*args)

    sp = ProjSpace(24, 24)
    x = raw_monomial(sp, 0, 0, 20, 0)
    monkeypatch.setattr(projmod, "_normalize", counted)
    got = mod_mul(x, x)
    assert calls["normalize"] <= 400, calls
    monkeypatch.undo()
    assert got == raw_monomial(sp, 0, 0, 40, 0)


def test_basis_monomial_hash_contract():
    for sp in all_spaces(3):
        for m in range(-3, 4):
            for x in basis(sp, m):
                twin = BasisMonomial(ProjSpace(sp.p, sp.q), x.s, x.t, x.a, x.b)
                assert twin is not x and twin == x and hash(twin) == hash(x)
                assert {x: "v"}[twin] == "v" and twin in {x}
                assert str(twin) == str(x)
                assert repr(twin) == (
                    f"BasisMonomial(sp=ProjSpace(p={sp.p}, q={sp.q}), "
                    f"s={x.s}, t={x.t}, a={x.a}, b={x.b})"
                )
                assert elem(sp, twin) == elem(sp, x)
    one = BasisMonomial(ProjSpace(2, 2), 0, 0, 0, 0)
    assert one != BasisMonomial(ProjSpace(2, 3), 0, 0, 0, 0)
    assert one != BasisMonomial(ProjSpace(2, 2), 0, 0, 1, 0)


def test_basis_monomials_hash_and_compare_as_tuples():
    # dict lookups in the rewrite engine use tuple's own C slots
    assert BasisMonomial.__hash__ is tuple.__hash__
    assert BasisMonomial.__eq__ is tuple.__eq__
    x = BasisMonomial(ProjSpace(3, 2), 1, 0, 2, 1)
    assert x == (3, 2, 1, 0, 2, 1) and hash(x) == hash((3, 2, 1, 0, 2, 1))
    assert (x.sp, x.s, x.t, x.a, x.b) == (ProjSpace(3, 2), 1, 0, 2, 1)
    with pytest.raises(AttributeError):
        x.s = 0


def test_basis_monomial_constructor_matches_the_family_oracle():
    box = range(-3, 4), range(-3, 4), range(-1, 6), range(-1, 6)
    built = 0
    for sp in all_spaces(4):
        for s, t, a, b in itertools.product(*box):
            if projmod._family(sp.p, sp.q, s, t, a, b) is None:
                with pytest.raises(ValueError, match="not a basis monomial"):
                    BasisMonomial(sp, s, t, a, b)
            else:
                assert BasisMonomial(sp, s, t, a, b) == (sp.p, sp.q, s, t, a, b)
                built += 1
    assert built > len(list(all_spaces(4)))


def test_basis_monomials_of_different_spaces_never_compare_equal():
    monos = [x for sp in all_spaces(3) for m in range(-3, 4) for x in basis(sp, m)]
    fields = {(x.sp, x.s, x.t, x.a, x.b) for x in monos}
    assert len(set(monos)) == len(fields)
    point = [(hs.PLAIN, 0, 0), (hs.TRANSFER, 0, 0), (hs.KAPPA, -1, 0), (hs.PLAIN, 1, 1)]
    assert not set(monos) & set(point)
    assert all(x != y for x in monos[:40] for y in point)


def test_family_guard_holds_without_asserts():
    # the guard on every emitted image is an if, not an assert
    code = (
        "from equibezout import projmod\n"
        "for exps in ((0, 1, 0, 1), (0, 0, 2, 2), (-1, 0, 1, 0)):\n"
        "    try:\n"
        "        projmod._basis(2, 2, *exps)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'accepted {exps}')\n"
        "print('guarded')\n"
    )
    src = str(pathlib.Path(projmod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (0, "guarded\n"), proc.stderr


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_euler_classes_survive_pickle_and_deepcopy(ring):
    F = BundleSum.make(ProjSpace(4, 4), [O(3), O(3), O(2), xO(1), xO(2)])
    x = euler_product(F, ring)
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert twin == x and str(twin) == str(x) and twin.ring is ring
        assert all(type(mono) is BasisMonomial and type(c) is ring
                   for mono, c in twin.terms.items())
        assert {mono: c for mono, c in twin.terms.items()} == x.terms
        assert apply_gen("z1", twin) == apply_gen("z1", x)


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_mod_mul_multiplies_no_zero_scalar(ring, monkeypatch):
    # a walk may leave a zero coefficient; mod_mul drops it before scaling,
    # and a rewrite rule shifts no zero coefficient
    calls = {"all": 0, "zero": 0}
    product, shift = HElement.__mul__, HElement.shift

    def counted(self, other):
        calls["all"] += 1
        calls["zero"] += not self or not other
        return product(self, other)

    def counted_shift(self, i, j):
        calls["all"] += 1
        calls["zero"] += not self
        return shift(self, i, j)

    monkeypatch.setattr(HElement, "__mul__", counted)
    monkeypatch.setattr(HElement, "__rmul__", counted)
    monkeypatch.setattr(HElement, "shift", counted_shift)
    for sp, lines in ((ProjSpace(3, 5), [O(2)] * 3 + [O(3)] * 4),
                      (ProjSpace(3, 3), [O(1), O(2), O(5), xO(2), xO(3)])):
        euler_product(BundleSum.make(sp, lines), ring)
    assert calls["all"] > 0 and calls["zero"] == 0, calls


def all_spaces(maxpq):
    for p in range(0, maxpq + 1):
        for q in range(0, maxpq + 1):
            if p + q:
                yield ProjSpace(p, q)


def test_operator_identities_full(operator_identities):
    # the Burnside run is acceptance criterion 4; this one covers the
    # constant-Z ring through the same rewrite engine
    assert operator_identities(ZHElement, 3, 5) == 528


def test_mod_mul_square_example():
    # (e^2 + tau(1) z0 cw)^2 = e^4 + 4 xi cw cxw
    sp = ProjSpace(5, 5)
    x = ModuleElement.unit(sp).scale(hs.e(2)) + elem(
        sp, BasisMonomial(sp, 1, 0, 1, 0), hs.g()
    )
    sq = mod_mul(x, x)
    expected = ModuleElement.unit(sp).scale(hs.e(4)) + elem(
        sp, BasisMonomial(sp, 0, 0, 1, 1), 4 * hs.xi(1)
    )
    assert sq == expected
    # fourth power reproduces the worked 4-fold twisted-bundle class
    fourth = mod_mul(sq, sq)
    expected4 = ModuleElement.unit(sp).scale(hs.e(8)) + elem(
        sp, BasisMonomial(sp, 0, 0, 2, 2), 16 * hs.xi(2)
    )
    assert fourth == expected4


def test_mod_mul_unit_and_rejection():
    sp = ProjSpace(2, 3)
    x = elem(sp, BasisMonomial(sp, -2, 0, 2, 1), hs.e(2))
    assert mod_mul(x, ModuleElement.unit(sp)) == x
    y = elem(sp, BasisMonomial(sp, 0, -1, 1, 3))
    with pytest.raises(UnsupportedProductError):
        mod_mul(x, y)


def test_raw_monomial_overflow_paths():
    # cw^(p+1) reduces through the divided tower
    sp = ProjSpace(2, 4)
    got = raw_monomial(sp, 0, 0, 3, 3)
    expected = elem(sp, BasisMonomial(sp, -1, 0, 2, 3), -(U * hs.e(2)))
    assert got == expected
    assert raw_monomial(sp, 0, 0, 2, 4) == ModuleElement.zero(sp)
    with pytest.raises(ValueError):
        raw_monomial(sp, -1, 0, 1, 0)
    with pytest.raises(ValueError):
        raw_monomial(sp, -1, -1, 2, 4)


def _reference_walk(sp, ring):
    """raw_monomial as the walk one apply_gen at a time that it replaced:
    from the unit through z0^s, z1^t, cw^a, cxw^b, or from the base
    z0^s*cw^p (z1^t*cxw^q) of a divided tower through cw, cxw, z1 (cw,
    cxw, z0).  Each walk extends the memoised walk one step shorter."""
    p, q = sp.p, sp.q
    memo = {}

    def walk(s, t, a, b):
        key = (s, t, a, b)
        if key in memo:
            return memo[key]
        if s < 0:
            later = [("z1", t, (s, t - 1, a, b)), ("cxw", b, (s, t, a, b - 1)),
                     ("cw", a - p, (s, t, a - 1, b))]
            base = BasisMonomial(sp, s, 0, p, 0) if q else None
        elif t < 0:
            later = [("z0", s, (s - 1, t, a, b)), ("cxw", b - q, (s, t, a, b - 1)),
                     ("cw", a, (s, t, a - 1, b))]
            base = BasisMonomial(sp, 0, t, 0, q) if p else None
        else:
            later = [("cxw", b, (s, t, a, b - 1)), ("cw", a, (s, t, a - 1, b)),
                     ("z1", t, (s, t - 1, a, b)), ("z0", s, (s - 1, t, a, b))]
            base = BasisMonomial(sp, 0, 0, 0, 0)
        for gen, count, shorter in later:
            if count > 0:
                x = apply_gen(gen, walk(*shorter))
                break
        else:
            x = ModuleElement.zero(sp, ring) if base is None else ModuleElement(
                sp, {base: ring.ring_one()}, ring
            )
        memo[key] = x
        return x

    return walk


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_raw_monomial_matches_generator_walk(ring):
    checked = 0
    for sp in all_spaces(4):
        walk = _reference_walk(sp, ring)
        for s in range(-3, 4):
            for t in range(-3, 4):
                for a in range(sp.p + 3):
                    for b in range(sp.q + 3):
                        try:
                            got = raw_monomial(sp, s, t, a, b, ring)
                        except ValueError:
                            continue
                        assert got == walk(s, t, a, b)
                        # the unchecked engine result passes the public check
                        assert ModuleElement(sp, dict(got.terms), ring) == got
                        checked += 1
        # zeta powers up to 3(p + q) beside a cw (cxw) power past its tower,
        # where raw_monomial divides at the start (p, q <= 3 keeps it quick)
        top = 3 * (sp.p + sp.q) if max(sp.p, sp.q) <= 3 else -1
        for low, high in itertools.product(range(3), range(top + 1)):
            for a, b in itertools.product(range(sp.p + 3), range(sp.q + 3)):
                if (a >= sp.p) != (b >= sp.q):  # past one tower, not both
                    for s, t in ((low, high), (high, low)):
                        assert raw_monomial(sp, s, t, a, b, ring) == walk(s, t, a, b)
                        checked += 1
    assert checked > 25000  # 18,640 of them with |s|, |t| <= 3


@pytest.mark.parametrize("ring", [HElement, ZHElement])
def test_raw_monomial_matches_the_walk_from_the_unit(ring):
    # the walk raw_monomial made before it started from the largest factor
    # in normal form: every step of the monomial, from the unit
    checked = 0
    for sp in all_spaces(3):
        unit = BasisMonomial(sp, 0, 0, 0, 0)
        for s, t, a, b in itertools.product(range(5), repeat=4):
            walked = projmod._walk({unit: ring.ring_one()}, projmod._steps(s, t, a, b), ring)
            assert raw_monomial(sp, s, t, a, b, ring) == ModuleElement(sp, walked, ring)
            checked += 1
    assert checked == 15 * 5**4


def test_raw_monomial_past_a_tower_is_one_division(monkeypatch):
    # z1^t * cw^p = xi^t * z0^-t * cw^p is applied at the start, so the
    # work does not follow the zeta exponent
    calls = {"normalize": 0}
    normalize = projmod._normalize

    def counted(*args):
        calls["normalize"] += 1
        return normalize(*args)

    monkeypatch.setattr(projmod, "_normalize", counted)
    sp = ProjSpace(4, 4)
    x = parse_module_element("z1^1000000*cw^4", sp)
    assert str(x) == "xi^1000000*z0^-1000000*cw^4"
    y = parse_module_element("z0^1000000*cxw^5", sp)
    assert str(y) == ("e^2*xi^1000000*z1^-1000001*cxw^4"
                      " + xi^1000001*z1^-1000002*cw*cxw^4")
    assert calls["normalize"] <= 4, calls


def test_add_and_constructor_reject_mixed_gradings():
    sp = ProjSpace(2, 2)
    x = elem(sp, BasisMonomial(sp, 0, 0, 1, 0))
    y = elem(sp, BasisMonomial(sp, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="mixed gradings"):
        x + y
    with pytest.raises(ValueError, match="mixed gradings"):
        x - y.scale(hs.e(2))
    with pytest.raises(ValueError, match="mixed gradings"):
        ModuleElement(sp, {**x.terms, **y.terms})
    with pytest.raises(ValueError, match="mixed gradings"):
        ModuleElement(sp, {BasisMonomial(sp, 0, 0, 1, 0): one(),
                           BasisMonomial(sp, 1, 0, 1, 0): hs.e(2)})
    zero = ModuleElement.zero(sp)
    assert x + zero == x and zero + y == y


def test_add_and_constructor_reject_mixed_rings():
    # a Burnside class and a constant-Z class do not add, even where the
    # printed forms would, and the constructor takes coefficients of its
    # ring only
    sp = ProjSpace(2, 2)
    burnside = parse_module_element("(-1 + g)*z0*cw", sp)
    zconst = z_map(parse_module_element("e^2", sp))
    for x, y in ((burnside, zconst), (zconst, burnside)):
        with pytest.raises(ValueError, match="elements over different rings"):
            x + y
    unit = BasisMonomial(sp, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="not in HElement"):
        ModuleElement(sp, {unit: ZHElement.ring_one()})
    with pytest.raises(ValueError, match="not in ZHElement"):
        ModuleElement(sp, {unit: one()}, ZHElement)


def test_mod_mul_rejects_mixed_rings():
    # refused up front, as for the sum: a nonzero pair used to fail deep in
    # the scalar product, and a zero factor of the other ring went through
    sp = ProjSpace(2, 2)
    burnside = parse_module_element("(-1 + g)*z0*cw", sp)
    zconst = z_map(parse_module_element("e^2", sp))
    pairs = ((burnside, zconst), (burnside, ModuleElement.zero(sp, ZHElement)),
             (ModuleElement.zero(sp), zconst))
    for x, y in pairs:
        for first, second in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="elements over different rings"):
                mod_mul(first, second)


def test_cancellation_leaves_no_terms():
    sp = ProjSpace(2, 2)
    x = raw_monomial(sp, 0, 1, 0, 1)  # z1*cxw = u*z0*cw + e^2
    assert len(x.terms) == 2
    # a product whose two nonzero parts cancel term by term
    first = elem(sp, BasisMonomial(sp, 3, 0, 0, 0), hs.e(2))
    second = elem(sp, BasisMonomial(sp, 2, 0, 0, 1), hs.xi(1))
    y = elem(sp, BasisMonomial(sp, 0, 0, 1, 2))
    assert mod_mul(first, y) and mod_mul(second, y)
    for zero in (x - x, x.scale(0), -x + x, mod_mul(first + second, y)):
        assert not zero
        assert zero.terms == {}
        assert zero == ModuleElement.zero(sp)


def test_coeff_vector_example():
    sp = ProjSpace(5, 5)
    x = ModuleElement.unit(sp).scale(hs.e(8)) + elem(
        sp, BasisMonomial(sp, 0, 0, 2, 2), 16 * hs.xi(2)
    )
    vec = coeff_vector(x, 0)
    assert len(vec) == 10
    nonzero = {i: c for i, c in vec if c}
    assert set(nonzero) == {0, 4}
    assert nonzero[0] == hs.e(8)
    assert nonzero[4] == 8 * hs.tau_iota(2)
    assert all(not c for i, c in coeff_vector(ModuleElement.zero(sp), 0))


def test_coeff_vector_rejects_terms_outside_the_class():
    with pytest.raises(ValueError, match="outside the basis of class m=2"):
        coeff_vector(ModuleElement.unit(ProjSpace(2, 2)), 2)



def test_mod_rho_basis_elements():
    for sp in all_spaces(5):
        for m in range(-4, 5):
            for P in basis(sp, m):
                poly = mod_rho(elem(sp, P))
                assert poly == NoneqPoly.make(sp.p + sp.q, {P.index: 1})


def test_mod_rho_examples():
    sp = ProjSpace(5, 5)
    x = ModuleElement.unit(sp).scale(hs.e(8)) + elem(
        sp, BasisMonomial(sp, 0, 0, 2, 2), 16 * hs.xi(2)
    )
    assert mod_rho(x) == NoneqPoly.make(10, {4: 16})
    assert mod_rho(ModuleElement.zero(sp)) == NoneqPoly.make(10, {})


def test_noneq_poly_text():
    # the constant, a unit coefficient of either sign, any other coefficient
    assert str(NoneqPoly.make(5, {0: 3, 1: -1, 2: 1, 3: -4})) == "3 - c + c^2 - 4*c^3"
    assert str(NoneqPoly.make(5, {0: -1, 4: 2})) == "-1 + 2*c^4"
    assert str(NoneqPoly.make(5, {})) == "0"


def test_mod_fixed_examples():
    sp = ProjSpace(5, 5)
    f0, f1 = mod_fixed(elem(sp, BasisMonomial(sp, 0, 0, 1, 1)))
    assert f0 == NoneqPoly.make(5, {1: 1})
    assert f1 == NoneqPoly.make(5, {1: 1})
    # divided element: only the twisted component survives
    sp2 = ProjSpace(2, 4)
    f0, f1 = mod_fixed(elem(sp2, BasisMonomial(sp2, -2, 0, 2, 3)))
    assert f0 == NoneqPoly.make(2, {})
    assert f1 == NoneqPoly.make(4, {3: 1})
    # the 4-fold twisted-bundle class has fixed values (1, 1)
    x = ModuleElement.unit(sp).scale(hs.e(8)) + elem(
        sp, BasisMonomial(sp, 0, 0, 2, 2), 16 * hs.xi(2)
    )
    assert mod_fixed(x) == (NoneqPoly.make(5, {0: 1}), NoneqPoly.make(5, {0: 1}))


# the fixed-point image of each monomial family: the exponent of c over
# each of the two fixed components, or None where a zeta class kills it
FIXED_SHAPE = {
    ALPHA: ("a", None),
    BETA: (None, "b"),
    GAMMA: ("a", "b"),
    DELTA: (None, "b"),
    EPS: (None, "b"),
    ZETAF: ("a", None),
}


def test_mod_fixed_matches_the_family_table():
    checked = 0
    for sp in all_spaces(7):
        for m in range(-12, 13):
            for x in basis(sp, m):
                shape0, shape1 = FIXED_SHAPE[projmod._family(*x)]
                expected = tuple(
                    NoneqPoly.make(n, {getattr(x, shape): 1} if shape else {})
                    for n, shape in ((sp.p, shape0), (sp.q, shape1))
                )
                assert mod_fixed(elem(sp, x)) == expected, x
                checked += 1
    assert checked == 11200


def test_in_tildeT():
    sp = ProjSpace(2, 2)
    assert in_tildeT(ModuleElement.zero(sp))
    assert in_tildeT(elem(sp, BasisMonomial(sp, 0, 0, 1, 1), einvkappa(2)))
    assert not in_tildeT(
        elem(sp, BasisMonomial(sp, 0, 0, 0, 0), hs.e(1) * hs.xi(1))
    )


SCALAR_POOL = [
    one(),
    hs.g(),
    kappa(),
    hs.e(1),
    hs.e(2),
    hs.xi(1),
    einvkappa(1),
    einvkappa(2),
    tauinv(1),
    tauinv(2),
    3 * one(),
    2 * hs.xi(1),
]


def _poly_mul(x: NoneqPoly, y: NoneqPoly, N: int) -> NoneqPoly:
    out = {}
    for kx, vx in x.coeffs:
        for ky, vy in y.coeffs:
            if kx + ky < N:
                out[kx + ky] = out.get(kx + ky, 0) + vx * vy
    return NoneqPoly.make(N, out)


def test_restrictions_multiplicative_on_random_products():
    rng = random.Random(424242)
    checked = 0
    while checked < 500:
        sp = ProjSpace(rng.randint(1, 4), rng.randint(1, 4))
        m1 = rng.choice(basis(sp, rng.randint(-3, 3)))
        m2 = rng.choice(basis(sp, rng.randint(-3, 3)))
        if m2.s < 0 or m2.t < 0:
            continue
        x = elem(sp, m1, rng.choice(SCALAR_POOL))
        y = elem(sp, m2, rng.choice(SCALAR_POOL))
        p = mod_mul(x, y)
        assert mod_rho(p) == _poly_mul(mod_rho(x), mod_rho(y), sp.p + sp.q)
        fx, gx = mod_fixed(x)
        fy, gy = mod_fixed(y)
        fp, gp = mod_fixed(p)
        assert fp == _poly_mul(fx, fy, sp.p)
        assert gp == _poly_mul(gx, gy, sp.q)
        checked += 1


# --- reconstruction from the two restrictions (elements with T coefficients)


def _t_generators(da: int, db: int):
    """Generators of T in the given coefficient grading."""
    if da == 0 and db == 0:
        return [one(), hs.g()]
    if da == 0:
        return [hs.e(db)] if db > 0 else [einvkappa(-db)]
    if da < 0 and db == -da:
        return [hs.tau_iota(db // 2)]  # 2*xi^n
    if da > 0 and db == -da:
        return [tauinv(da // 2)]
    return []


def _candidates(sp, grading):
    A = grading.a // 2
    total = grading.a + grading.b
    out = []
    for P in basis(sp, grading.m):
        delta = (grading.a - 2 * P.pos[0], grading.b - 2 * P.pos[1])
        on_diagonal = total == 2 * P.index
        vertical = P.pos[0] == A
        if not (on_diagonal or vertical):
            continue
        for gen in _t_generators(*delta):
            out.append((P, gen))
    return out


def _observables(sp, x):
    obs = {}
    for k, v in mod_rho(x).coeffs:
        obs[("rho", k)] = v
    f0, f1 = mod_fixed(x)
    for k, v in f0.coeffs:
        obs[("fix0", k)] = v
    for k, v in f1.coeffs:
        obs[("fix1", k)] = v
    return obs


def _observation_row(sp, P, gen):
    row = {}
    rv = h_rho(gen)[0]
    if rv:
        row[("rho", P.index)] = rv
    fv = h_fixed(gen)
    if fv:
        s0, s1 = FIXED_SHAPE[projmod._family(*P)]
        if s0 is not None and P.a < sp.p:
            row[("fix0", P.a)] = row.get(("fix0", P.a), 0) + fv
        if s1 is not None and P.b < sp.q:
            row[("fix1", P.b)] = row.get(("fix1", P.b), 0) + fv
    return row


def _solve_exact(columns, target):
    """Solve the integer system column-combination = target; returns the
    unique solution or raises AssertionError when rank-deficient."""
    keys = sorted({k for col in columns for k in col} | set(target))
    nunk = len(columns)
    M = [
        [Fraction(col.get(k, 0)) for col in columns] + [Fraction(target.get(k, 0))]
        for k in keys
    ]
    pivots = []
    r = 0
    for c in range(nunk):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [v / M[r][c] for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    assert len(pivots) == nunk, "coefficients not determined by restrictions"
    for i in range(r, len(M)):
        assert M[i][nunk] == 0, "inconsistent observation system"
    sol = [Fraction(0)] * nunk
    for i, c in enumerate(pivots):
        sol[c] = M[i][nunk]
    assert all(v.denominator == 1 for v in sol)
    return [int(v) for v in sol]


def test_tilde_T_elements_determined_by_restrictions():
    rng = random.Random(20260810)
    reconstructed = 0
    while reconstructed < 200:
        sp = ProjSpace(rng.randint(1, 4), rng.randint(1, 4))
        m = rng.randint(-4, 4)
        P0 = rng.choice(basis(sp, m))
        shift = rng.choice([(0, 0), (0, 2), (0, -2), (0, 3), (-2, 2), (2, -2), (4, -4)])
        grading = PiBDegree(m, 2 * P0.pos[0] + shift[0], 2 * P0.pos[1] + shift[1])
        if grading.a % 2:
            continue
        cands = _candidates(sp, grading)
        if not cands:
            continue
        # at most three basis elements can carry T coefficients in a grading
        assert len({P for P, _ in cands}) <= 3
        coeffs = [rng.randint(-3, 3) for _ in cands]
        terms = {}
        for (P, gen), c in zip(cands, coeffs):
            if c:
                terms[P] = terms.get(P, HElement(0, 0, 0)) + c * gen
        x = ModuleElement(sp, terms)
        assert in_tildeT(x)
        solution = _solve_exact(
            [_observation_row(sp, P, gen) for P, gen in cands],
            _observables(sp, x),
        )
        rebuilt_terms = {}
        for (P, gen), c in zip(cands, solution):
            if c:
                rebuilt_terms[P] = rebuilt_terms.get(P, HElement(0, 0, 0)) + c * gen
        assert ModuleElement(sp, rebuilt_terms) == x
        reconstructed += 1
