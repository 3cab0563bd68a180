"""Ring axioms of the three scalar rings, as hypothesis properties.

Homogeneous scalars are drawn from ``scalars_in_grading``: a Burnside
element of one grading, carried into the constant-Z ring by its normal form
and into the Borel ring by ``borel_map``.  The two coefficient changes are
also checked as ring maps of the module ring: ``BorelElement`` multiplies
polynomials, sharing no code with the rewrite engine, so it is an
independent oracle for ``mod_mul``.  Every Euler class is affine in the
half-degree of one line, the premise of deciding ``product == closed`` for
all degrees at once.  The runs are derandomized and keep no example
database, so they are deterministic and leave nothing in the working tree.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from equibezout.euler import (
    BundleSum,
    LineBundle,
    context_check,
    euler_closed,
    euler_line,
    euler_product,
)
from equibezout.hscalar import HElement
from equibezout.projmod import ModuleElement, ProjSpace, basis, is_divided
from equibezout.variants import (
    BorelElement,
    ZHElement,
    borel_euler_closed,
    borel_map,
    z_euler_closed,
    z_map,
)
from oracles import scalars_in_grading

# Even without a database, hypothesis caches the constants it reads from
# local source files under its home directory (./.hypothesis by default); its
# pytest plugin does so once collection ends, after this module is imported.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "equibezout-hypothesis")

AXIOMS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

GRADINGS = [
    (a, b) for a in range(-6, 7) for b in range(-8, 9) if scalars_in_grading(a, b)
]
_POINT = ProjSpace(1, 1)


def to_borel(x: HElement) -> BorelElement:
    """The Borel image of the scalar x, the c^0 class of x times 1."""
    return borel_map(ModuleElement.unit(_POINT).scale(x), 0)


# each ring as (lift of a Burnside scalar, image of an integer)
RINGS = {
    "HElement": (lambda x: x, HElement.from_int),
    "ZHElement": (ZHElement.from_burnside, ZHElement.from_int),
    "BorelElement": (to_borel, lambda n: to_borel(HElement.from_int(n))),
}


def homogeneous(grading):
    """A Burnside element with small coefficients in ``grading``."""
    gens = scalars_in_grading(*grading)
    coeffs = st.lists(st.integers(-4, 4), min_size=len(gens), max_size=len(gens))
    return coeffs.map(lambda cs: sum(
        (c * x for x, c in zip(gens, cs)), HElement(0, 0, 0)))


scalars = st.sampled_from(GRADINGS).flatmap(homogeneous)
# two elements of one grading, so that their sum is defined
same_grading_pairs = st.sampled_from(GRADINGS).flatmap(
    lambda grading: st.tuples(homogeneous(grading), homogeneous(grading))
)

ring_names = pytest.mark.parametrize("ring", list(RINGS))


@ring_names
@AXIOMS
@given(x=scalars, y=scalars, z=scalars)
def test_multiplication_is_associative(ring, x, y, z):
    lift, _ = RINGS[ring]
    x, y, z = lift(x), lift(y), lift(z)
    assert (x * y) * z == x * (y * z)


@ring_names
@AXIOMS
@given(x=scalars, y=scalars, pair=same_grading_pairs)
def test_multiplication_and_addition_commute(ring, x, y, pair):
    lift, _ = RINGS[ring]
    x, y = lift(x), lift(y)
    u, v = (lift(w) for w in pair)
    assert x * y == y * x
    assert u + v == v + u


@ring_names
@AXIOMS
@given(x=scalars, pair=same_grading_pairs)
def test_multiplication_distributes_over_sums(ring, x, pair):
    lift, _ = RINGS[ring]
    x = lift(x)
    y, z = (lift(w) for w in pair)
    assert x * (y + z) == x * y + x * z
    assert (y + z) * x == y * x + z * x


@ring_names
@AXIOMS
@given(x=scalars)
def test_additive_inverse_and_unit(ring, x):
    lift, from_int = RINGS[ring]
    # negation goes through the map, as a Borel class has no minus of its own
    x, minus_x = lift(x), lift(-x)
    zero, one = from_int(0), from_int(1)
    assert x + minus_x == zero
    assert not (minus_x + x)
    assert x * one == x == one * x


# every family of the point ring, half of them at the origin, where g lives,
# and zero itself
shift_inputs = st.one_of(
    st.just(HElement(0, 0, 0)),
    st.one_of(st.just((0, 0)), st.sampled_from(GRADINGS)).flatmap(homogeneous),
)
# half the shifts carry a kappa or transfer member back to the origin, where
# the product is kappa = 2 - g or tau(1) = g
shifts = shift_inputs.flatmap(lambda x: st.tuples(st.just(x), st.one_of(
    st.just((max(-x.u, 0), max(-x.v, 0))),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
)))


@pytest.mark.parametrize("ring", [HElement, ZHElement])
@AXIOMS
@given(shift=shifts)
def test_shift_is_the_product_by_a_plain_monomial(ring, shift):
    x, (i, j) = shift
    x = ring.from_burnside(x)
    shifted = x.shift(i, j)
    assert shifted == x * ring(i, j, 1)
    assert type(shifted) is ring


# both fixed components nonempty, as in the exhaustive check that held on all
# 20,414 pairs with |m| <= 3 (about 7 s, too slow for every run)
SPACES = [ProjSpace(p, q) for p in range(1, 5) for q in range(1, 5)]


def module_terms(sp):
    """A basis monomial of ``sp`` in a class |m| <= 3, times an odd
    multiple of a scalar generator from ``scalars_in_grading`` (the
    e-monomials are 2-torsion, so an odd multiple is never zero)."""
    monos = st.integers(-3, 3).flatmap(lambda m: st.sampled_from(basis(sp, m)))
    # half the scalars in grading (0, 0), where 1 and g keep nonzero images
    # that are not 2-torsion, so a wrong integer factor in a rule shows
    gradings = st.one_of(st.just((0, 0)), st.sampled_from(GRADINGS))
    gens = gradings.flatmap(
        lambda grading: st.sampled_from(scalars_in_grading(*grading))
    )
    coeffs = st.sampled_from((1, -1, 3))
    return st.builds(
        lambda mono, gen, c: ModuleElement(sp, {mono: c * gen}),
        monos, gens, coeffs,
    )


module_pairs = st.sampled_from(SPACES).flatmap(
    lambda sp: st.tuples(module_terms(sp), module_terms(sp))
)


def divided(x: ModuleElement) -> bool:
    return any(is_divided(mono) for mono in x.terms)


@settings(AXIOMS, max_examples=200)
@given(pair=module_pairs)
def test_coefficient_changes_are_ring_maps(pair):
    x, y = pair
    assume(not (divided(x) and divided(y)))  # no generator factorization
    xy = x * y
    # the two orders walk different generators through the rewrite rules
    assert xy == y * x
    assert borel_map(xy, 0) == borel_map(x, 0) * borel_map(y, 0)
    assert z_map(xy) == z_map(x) * z_map(y)


def at_half_degree(L: LineBundle, h: int) -> LineBundle:
    """L with degree 2h + (L.d mod 2): the same twist and parity, so the
    same type."""
    return LineBundle(L.twisted, 2 * h + L.d % 2)


# each Euler class as a function of (space, moving line, other lines)
EULER_CLASSES = {
    "euler_line": lambda sp, L, rest: euler_line(L, sp),
    "euler_product": lambda sp, L, rest: euler_product(BundleSum.make(sp, (L, *rest))),
    "euler_closed": lambda sp, L, rest: euler_closed(BundleSum.make(sp, (L, *rest))),
    "z_euler_closed": lambda sp, L, rest: z_euler_closed(BundleSum.make(sp, (L, *rest))),
    "borel_euler_closed":
        lambda sp, L, rest: borel_euler_closed(BundleSum.make(sp, (L, *rest))),
}


@st.composite
def moving_lines(draw):
    """X(p, q) with p, q <= 4, a sum in the Bezout context, one of its lines
    (the one that moves) and the line's half-degree h, |h| <= 8; the type
    counts, and so the context, do not depend on h."""
    sp = ProjSpace(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    lines = st.builds(LineBundle, st.booleans(), st.integers(-9, 9))
    summands = draw(st.lists(lines, min_size=1, max_size=sp.p + sp.q - 1))
    assume(not context_check(BundleSum.make(sp, summands)))
    return sp, summands[0], summands[1:], draw(st.integers(-8, 8))


@pytest.mark.parametrize("name", list(EULER_CLASSES))
@settings(AXIOMS, max_examples=60)
@given(instance=moving_lines())
def test_euler_classes_are_affine_in_one_half_degree(name, instance):
    # f(h+1) - f(h) == f(h) - f(h-1), written with + only, as a Borel class
    # has no minus: the second difference in h vanishes
    sp, L, rest, h = instance
    f = EULER_CLASSES[name]
    below, here, above = (f(sp, at_half_degree(L, k), rest) for k in (h - 1, h, h + 1))
    assert above + below == here + here


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5

def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_run_going(tmp_path):
    # reporting a failing property imports libcst, whose import warns; under
    # the project's warning filters the run must still reach the next test
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
