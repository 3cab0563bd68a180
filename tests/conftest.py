"""Shared test helpers."""

import itertools

import pytest

from equibezout.projmod import BasisMonomial, ModuleElement, ProjSpace, apply_gen, basis


def check_operator_identities(ring, maxpq: int, mmax: int) -> int:
    """Assert the generator relations on every basis element of X(p, q),
    p, q <= maxpq, in the classes |m| <= mmax, over the scalar ring ``ring``.

    Returns the number of basis elements checked.
    """
    one, u, xi, e2 = ring.ring_one(), ring.ring_u(), ring(0, 1, 1), ring(2, 0, 1)
    checked = 0
    for p in range(maxpq + 1):
        for q in range(maxpq + 1):
            if p + q == 0:
                continue
            sp = ProjSpace(p, q)
            for m in range(-mmax, mmax + 1):
                for P in basis(sp, m):
                    checked += 1
                    x = ModuleElement(sp, {P: one}, ring)
                    assert apply_gen("z0", apply_gen("z1", x)) == x.scale(xi)
                    lhs = apply_gen("z1", apply_gen("cxw", x))
                    rhs = apply_gen("z0", apply_gen("cw", x)).scale(u) + x.scale(e2)
                    assert lhs == rhs
                    z = x
                    for _ in range(p):
                        z = apply_gen("cw", z)
                    for _ in range(q):
                        z = apply_gen("cxw", z)
                    assert not z
                    for g1, g2 in itertools.combinations(("z0", "z1", "cw", "cxw"), 2):
                        assert apply_gen(g1, apply_gen(g2, x)) == apply_gen(
                            g2, apply_gen(g1, x)
                        )
                    if P.s < 0 or P.t < 0:
                        # multiplying a divided monomial back by its zeta
                        # power returns the undivided one
                        gen, power = ("z0", -P.s) if P.s < 0 else ("z1", -P.t)
                        z = x
                        for _ in range(power):
                            z = apply_gen(gen, z)
                        undivided = BasisMonomial(sp, 0, 0, P.a, P.b)
                        assert z == ModuleElement(sp, {undivided: one}, ring)
    return checked


@pytest.fixture
def operator_identities():
    return check_operator_identities
