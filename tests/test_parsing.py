"""Round-trips and error behavior of the text grammars."""

import random

import pytest

from equibezout import hscalar as hs
from equibezout.euler import BundleSum, LineBundle
from equibezout.grading import PiBDegree
from equibezout.hscalar import HElement, monomials_in_grading
from equibezout.parsing import (
    ParseError,
    parse_bundles,
    parse_grading,
    parse_module_element,
    parse_scalar,
)
from equibezout.projmod import (
    BasisMonomial,
    ModuleElement,
    ProjSpace,
    UnsupportedProductError,
    basis,
)


CANONICAL_SCALARS = (
    [hs.one(), hs.g(), hs.kappa()]
    + [hs.e(m) for m in range(1, 7)]
    + [hs.einvkappa(m) for m in range(1, 7)]
    + [hs.xi(n) for n in range(1, 7)]
    + [hs.exi(m, n) for m in range(1, 4) for n in range(1, 4)]
    + [hs.tauinv(n) for n in range(1, 7)]
)


def test_scalar_round_trip_canonical():
    for x in CANONICAL_SCALARS:
        for c in (1, -1, 3, -17):
            y = c * x
            assert parse_scalar(str(y)) == y


def test_scalar_round_trip_combinations():
    combos = [
        hs.one() + hs.g(),
        2 - hs.g(),
        -1 + hs.g(),
        5 * hs.one() - 3 * hs.g(),
        HElement.zero(),
    ]
    for x in combos:
        assert parse_scalar(str(x)) == x


def test_scalar_parse_examples():
    assert parse_scalar("kappa") == hs.kappa()
    assert parse_scalar("e^-2*kappa") == hs.einvkappa(2)
    assert parse_scalar("tau(i^-4)") == hs.tauinv(2)
    assert parse_scalar("tau(i^4)") == 2 * hs.xi(2)
    assert parse_scalar("8*tau(i^4)") == 16 * hs.xi(2)
    assert parse_scalar("tau(1)") == hs.g()
    assert parse_scalar("(1-kappa)^2") == hs.one()
    assert parse_scalar("kappa^2 - 2*kappa") == HElement.zero()
    assert parse_scalar("2*e^3*xi") == HElement.zero()  # 2-torsion


def test_scalar_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("xi^-1")
    with pytest.raises(ParseError):
        parse_scalar("e^-2")  # e^-m is only an element with kappa
    with pytest.raises(ParseError):
        parse_scalar("tau(i^3)")
    with pytest.raises(ParseError):
        parse_scalar("z0*cw")  # module tokens need a space
    with pytest.raises(ParseError):
        parse_scalar("frob")
    with pytest.raises(ParseError):
        parse_scalar("2 2")
    with pytest.raises(ParseError):
        parse_scalar("e + xi")  # inhomogeneous


def test_module_parse_relations():
    sp = ProjSpace(2, 2)
    lhs = parse_module_element("z1*cxw", sp)
    rhs = parse_module_element("(1-kappa)*z0*cw + e^2", sp)
    assert lhs == rhs
    assert parse_module_element("z0*z1", sp) == parse_module_element("xi", sp)
    assert not parse_module_element("cw^2*cxw^2", sp)


def test_module_parse_divided_monomials():
    sp = ProjSpace(2, 4)
    x = parse_module_element("z0^-2*cw^2*cxw^3", sp)
    assert x == ModuleElement(sp, {BasisMonomial(sp, -2, 0, 2, 3): hs.one()})
    y = parse_module_element("4*e^-2*kappa*z0^-2*cw^2*cxw^3", sp)
    assert y == ModuleElement(sp, {BasisMonomial(sp, -2, 0, 2, 3): 4 * hs.einvkappa(2)})
    with pytest.raises(ParseError):
        parse_module_element("z0^-1*cw", sp)  # needs the full cw^p factor


@pytest.mark.parametrize("text", ["cw + e^2", "cw - e^2", "e^2 + cw", "cw + cxw"])
def test_module_parse_mixed_gradings_is_parse_error(text):
    # the same error type as an inhomogeneous scalar sum
    with pytest.raises(ParseError, match="mixed gradings"):
        parse_module_element(text, ProjSpace(2, 2))


def _random_elements(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sp = ProjSpace(rng.randint(1, 5), rng.randint(1, 5))
        m = rng.randint(-4, 4)
        monos = basis(sp, m)
        P0 = rng.choice(monos)
        shift_a, shift_b = rng.choice(
            [(0, 0), (0, 2), (0, -2), (-2, 2), (2, -2), (0, 1), (0, 3)]
        )
        grading = P0.grading + PiBDegree(0, shift_a, shift_b)
        terms = {}
        for P in monos:
            da = grading.a - 2 * P.pos[0]
            db = grading.b - 2 * P.pos[1]
            gens = monomials_in_grading(da, db)
            if not gens or rng.random() < 0.4:
                continue
            coeff = HElement.zero()
            for gmono in gens:
                coeff = coeff + HElement.monomial(gmono, rng.randint(-9, 9))
            if coeff:
                terms[P] = coeff
        if terms:
            out.append(ModuleElement(sp, terms))
    return out


def test_module_round_trip_random():
    for x in _random_elements(200, seed=1812):
        assert parse_module_element(str(x), x.sp) == x


def test_module_round_trip_basis_monomials():
    for p, q in [(1, 1), (2, 3), (3, 2), (4, 5)]:
        sp = ProjSpace(p, q)
        for m in range(-5, 6):
            for P in basis(sp, m):
                x = ModuleElement(sp, {P: hs.one()})
                assert parse_module_element(str(P), sp) == x


@pytest.mark.parametrize("k", range(13))
def test_powers_equal_repeated_products(k):
    sp = ProjSpace(5, 5)
    for base in ("(e^2 + g*z0*cw)", "(-2*e*kappa*z1*cw)"):
        product = "*".join([base] * k) or "1"
        assert parse_module_element(f"{base}^{k}", sp) == parse_module_element(product, sp)
    # squares of these undivided bases are divided, so their higher powers
    # need an undivided factor in every product
    for base, space in (("(z0*cxw + z0*cxw)", ProjSpace(1, 2)), ("(z1*cw^3 + g*z1*cw^3)", sp)):
        product = "*".join([base] * k) or "1"
        assert parse_module_element(f"{base}^{k}", space) == parse_module_element(product, space)
    for base in ("(1 + g)", "xi", "(3*g*e^2*kappa)"):
        product = "*".join([base] * k) or "1"
        assert parse_scalar(f"{base}^{k}") == parse_scalar(product)


def test_power_of_divided_compound_raises_like_product():
    sp = ProjSpace(2, 4)
    base = "(z0^-1*cw^2*cxw + 3*z0^-1*cw^2*cxw)"
    assert parse_module_element(f"{base}^0", sp) == ModuleElement.unit(sp)
    assert parse_module_element(f"{base}^1", sp) == parse_module_element(base, sp)
    with pytest.raises(UnsupportedProductError):
        parse_module_element(f"{base}*{base}", sp)
    for k in range(2, 6):
        with pytest.raises(UnsupportedProductError):
            parse_module_element(f"{base}^{k}", sp)


def test_scalar_round_trip_random():
    rng = random.Random(999)
    count = 0
    while count < 100:
        gens = monomials_in_grading(rng.randint(-4, 4) * 2, rng.randint(-8, 8))
        if not gens:
            continue
        x = HElement.zero()
        for gmono in gens:
            x = x + HElement.monomial(gmono, rng.randint(-20, 20))
        assert parse_scalar(str(x)) == x
        count += 1


def test_parse_bundles():
    assert parse_bundles("4*xO(2)") == [LineBundle(True, 2)] * 4
    assert parse_bundles("O(3)+xO(1)") == [LineBundle(False, 3), LineBundle(True, 1)]
    assert parse_bundles("O(-5)") == [LineBundle(False, -5)]
    assert parse_bundles("2*O(1) + xO(0)") == [
        LineBundle(False, 1),
        LineBundle(False, 1),
        LineBundle(True, 0),
    ]


def test_parse_bundles_round_trip():
    rng = random.Random(4321)
    for _ in range(50):
        lines = [
            LineBundle(rng.random() < 0.5, rng.randint(-9, 9))
            for _ in range(rng.randint(1, 6))
        ]
        assert parse_bundles(str(BundleSum(ProjSpace(1, 1), tuple(lines)))) == lines


def test_parse_bundles_errors():
    for bad in ["", "O(3", "Q(2)", "3xO(1)", "O(3)++xO(1)", "0*O(2)", "O(two)"]:
        with pytest.raises(ParseError):
            parse_bundles(bad)


def test_bad_bundle_term_is_quoted_whole_with_the_text():
    for text, term in [("O(+1)", "O(+1)"), ("O(1) + xO(+2)", "xO(+2)"),
                       ("O(1+xO(2)", "O(1+xO(2)"), ("O(3)++xO(1)", ""), ("O(1)+", "")]:
        with pytest.raises(ParseError) as info:
            parse_bundles(text)
        assert str(info.value) == f"bad bundle term {term!r} in {text!r}"


def test_parse_grading():
    assert parse_grading("8*s") == PiBDegree(0, 0, 8)
    assert parse_grading("0") == PiBDegree(0, 0, 0)
    assert parse_grading("2*W1 - 4 + 6*s") == PiBDegree(2, -4, 6)
    assert parse_grading("-1*W1 - 2 + 2*s") == PiBDegree(-1, -2, 2)
    with pytest.raises(ParseError):
        parse_grading("2*Q1")
    with pytest.raises(ParseError):
        parse_grading("")


def test_module_element_without_context_fails():
    with pytest.raises(ParseError):
        parse_scalar("z1*cxw")
