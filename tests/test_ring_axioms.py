"""Ring axioms of the three scalar rings, as hypothesis properties.

Homogeneous scalars are drawn from ``monomials_in_grading``: a Burnside
element of one grading, carried into the constant-Z ring by its normal form
and into the Borel ring by ``borel_map``.  The runs are derandomized and
keep no example database, so they are deterministic and leave nothing in
the working tree.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from equibezout.hscalar import HElement, monomials_in_grading
from equibezout.projmod import ModuleElement, ProjSpace
from equibezout.variants import BorelScalar, ZHElement, borel_map

# Even without a database, hypothesis caches the constants it reads from
# local source files under its home directory (./.hypothesis by default); its
# pytest plugin does so once collection ends, after this module is imported.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "equibezout-hypothesis")

AXIOMS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

GRADINGS = [
    (a, b) for a in range(-6, 7) for b in range(-8, 9) if monomials_in_grading(a, b)
]
_POINT = ProjSpace(1, 1)


def to_borel(x: HElement) -> BorelScalar:
    image = borel_map(ModuleElement.unit(_POINT).scale(x), 0)
    return image.coeffs.get(0, BorelScalar.from_int(0))


RINGS = {
    "HElement": (lambda x: x, HElement.from_int),
    "ZHElement": (ZHElement.from_burnside, ZHElement.from_int),
    "BorelScalar": (to_borel, BorelScalar.from_int),
}


def homogeneous(grading):
    """A Burnside element with small coefficients in ``grading``."""
    monos = monomials_in_grading(*grading)
    coeffs = st.lists(st.integers(-4, 4), min_size=len(monos), max_size=len(monos))
    return coeffs.map(lambda cs: HElement(dict(zip(monos, cs))))


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
    x = lift(x)
    zero, one = from_int(0), from_int(1)
    assert x + (-x) == zero
    assert not (x - x)
    assert x * one == x == one * x
