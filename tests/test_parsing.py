"""Round-trips and error behavior of the text grammars."""

import pathlib
import random

import pytest

from equibezout import hscalar as hs
from equibezout import projmod
from equibezout.euler import BundleSum, LineBundle
from equibezout.grading import PiBDegree
from equibezout.hscalar import HElement
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
from oracles import einvkappa, exi, kappa, one, scalars_in_grading, tauinv


CANONICAL_SCALARS = (
    [one(), hs.g(), kappa()]
    + [hs.e(m) for m in range(1, 7)]
    + [einvkappa(m) for m in range(1, 7)]
    + [hs.xi(n) for n in range(1, 7)]
    + [exi(m, n) for m in range(1, 4) for n in range(1, 4)]
    + [tauinv(n) for n in range(1, 7)]
)


def test_scalar_round_trip_canonical():
    for x in CANONICAL_SCALARS:
        for c in (1, -1, 3, -17):
            y = c * x
            assert parse_scalar(str(y)) == y


def test_scalar_round_trip_combinations():
    combos = [
        one() + hs.g(),
        2 - hs.g(),
        -1 + hs.g(),
        5 * one() - 3 * hs.g(),
        HElement.zero(),
    ]
    for x in combos:
        assert parse_scalar(str(x)) == x


def test_scalar_parse_examples():
    assert parse_scalar("kappa") == kappa()
    assert parse_scalar("e^-2*kappa") == einvkappa(2)
    assert parse_scalar("tau(i^-4)") == tauinv(2)
    assert parse_scalar("tau(i^4)") == 2 * hs.xi(2)
    assert parse_scalar("8*tau(i^4)") == 16 * hs.xi(2)
    assert parse_scalar("tau(1)") == hs.g()
    assert parse_scalar("(1-kappa)^2") == one()
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
    assert x == ModuleElement(sp, {BasisMonomial(sp, -2, 0, 2, 3): one()})
    y = parse_module_element("4*e^-2*kappa*z0^-2*cw^2*cxw^3", sp)
    assert y == ModuleElement(sp, {BasisMonomial(sp, -2, 0, 2, 3): 4 * einvkappa(2)})
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
            gens = scalars_in_grading(da, db)
            if not gens or rng.random() < 0.4:
                continue
            coeff = HElement.zero()
            for gen in gens:
                coeff = coeff + rng.randint(-9, 9) * gen
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
                x = ModuleElement(sp, {P: one()})
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
        gens = scalars_in_grading(rng.randint(-4, 4) * 2, rng.randint(-8, 8))
        if not gens:
            continue
        x = HElement.zero()
        for gen in gens:
            x = x + rng.randint(-20, 20) * gen
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


def test_trailing_whitespace_is_accepted():
    assert parse_scalar("2 - g ") == 2 - hs.g()
    assert parse_scalar(" xi^2\t\n") == hs.xi(2)
    assert parse_grading("W1 + 2 ") == PiBDegree(1, 2, 0)


@pytest.mark.parametrize("text, char, pos", [("e $", "$", 2), ("e$", "$", 1),
                                             ("2 -  g  ;", ";", 8), ("#", "#", 0)])
def test_a_bad_character_is_named_where_it_stands(text, char, pos):
    with pytest.raises(ParseError) as info:
        parse_scalar(text)
    assert str(info.value) == f"unexpected character {char!r} at {pos} in {text!r}"


def test_negative_powers_stay_refused_where_they_were():
    refused = "negative exponent only allowed on e, z0 or z1"
    for text in ("xi^-1", "(xi*e)^-1", "(g*e)^-1"):
        with pytest.raises(ParseError, match=refused):
            parse_scalar(text)
    with pytest.raises(ParseError, match=refused):
        parse_module_element("(2*z0)^-1", ProjSpace(2, 2))
    with pytest.raises(ParseError, match="e\\^-m is only an element together with kappa"):
        parse_scalar("e^-2")
    assert parse_scalar("e^-2*kappa*xi") == HElement.zero()
    assert parse_scalar("(xi^0*e)^-2*kappa") == einvkappa(2)


def _count_products(monkeypatch):
    calls = [0]
    product = HElement.__mul__

    def counted(self, other):
        calls[0] += 1
        return product(self, other)

    monkeypatch.setattr(HElement, "__mul__", counted)
    monkeypatch.setattr(HElement, "__rmul__", counted)
    return calls


def test_powers_of_e_and_xi_cost_no_scalar_powers(monkeypatch):
    # the accumulator adds up the exponents of e and xi and builds the scalar
    # in one constructor (15 products, squaring xi, before); the module
    # element scales its one basis monomial once (18 products before)
    sp, scalar = ProjSpace(4, 4), 7 * hs.xi(300)
    module = ModuleElement(sp, {BasisMonomial(sp, 0, 0, 2, 0): scalar})
    calls = _count_products(monkeypatch)
    assert parse_scalar("7*xi^300") == scalar
    assert calls[0] == 0, calls
    assert parse_module_element("7*xi^300*cw^2", sp) == module
    assert calls[0] == 1, calls


def test_a_long_monomial_times_a_short_sum_takes_a_few_steps(monkeypatch):
    # mod_mul cuts the factor of smaller degree into steps, in either order
    # of the factors: cw once over z1^4000*cw^3 (1,338 _normalize calls when
    # the long monomial was walked over cw)
    sp = ProjSpace(4, 4)
    calls = [0]
    normalize = projmod._normalize

    def counted(*args):
        calls[0] += 1
        return normalize(*args)

    monkeypatch.setattr(projmod, "_normalize", counted)
    for text in ("(z1^4000*cw^3)*(cw + cw)", "(cw + cw)*(z1^4000*cw^3)"):
        calls[0] = 0
        assert str(parse_module_element(text, sp)) == "2*xi^4000*z0^-4000*cw^4"
        assert calls[0] <= 8, (text, calls)


GOLDEN_ROUNDTRIP = pathlib.Path(__file__).parent / "golden" / "parse_module_element.out"


def _roundtrip_cases(count=300, seed=2020):
    """(p, q, text) in the three forms that the benchmark round-trips:
    monomials with xi up to 300, divided classes (of both towers here), and
    powers of e^2 + g*z0*cw."""
    rng = random.Random(seed)
    for i in range(count):
        p, q = rng.randint(1, 16), rng.randint(1, 16)
        k = rng.randint(1, 9)
        if i % 3 == 0:
            exps = [("xi", rng.randint(0, 300)), ("z0", rng.randint(0, p)),
                    ("z1", rng.randint(0, q)), ("cw", rng.randint(0, p)),
                    ("cxw", rng.randint(0, q))]
            text = "*".join([str(k)] + [f"{name}^{exp}" for name, exp in exps if exp])
        elif i % 3 == 1:
            if rng.random() < 0.5:
                s, b = rng.randint(1, p), rng.randint(0, q - 1)
                text = f"{k}*z0^-{s}*cw^{p}" + (f"*cxw^{b}" if b else "")
            else:
                t, a = rng.randint(1, q), rng.randint(0, p - 1)
                text = f"{k}*z1^-{t}" + (f"*cw^{a}" if a else "") + f"*cxw^{q}"
        else:
            text = f"(e^2 + g*z0*cw)^{rng.randint(1, min(p + q, 12))}"
        yield p, q, text


def _roundtrip_lines():
    return [f"X({p},{q}) {text} = {parse_module_element(text, ProjSpace(p, q))}"
            for p, q, text in _roundtrip_cases()]


def test_module_parse_matches_the_golden_file():
    # regenerate, when the printed forms are meant to change, with
    #     PYTHONPATH=src python tests/test_parsing.py
    assert _roundtrip_lines() == GOLDEN_ROUNDTRIP.read_text().splitlines()


if __name__ == "__main__":
    GOLDEN_ROUNDTRIP.write_text("".join(line + "\n" for line in _roundtrip_lines()))
