import pytest

from equibezout import hscalar as hs
from equibezout.grading import (
    PiBDegree,
    RankTriple,
    euler_grading,
    recover_ranks,
)
from equibezout.parsing import parse_grading
from equibezout.projmod import EPS, ZETAF, ModuleElement, ProjSpace, _family, basis
from oracles import DEG_CW, DEG_CXW, DEG_Z0, DEG_Z1, G, rank_triple, scalar


def test_degree_sum_identity():
    assert PiBDegree(0, 0, 0) + PiBDegree(1, 2, 0) == PiBDegree(1, 2, 0)


def test_degree_sum_generator_degrees():
    # z0 * cw sits in degree 2*sigma
    assert DEG_Z0 + DEG_CW == PiBDegree(0, 0, 2)
    # z0 * z1 sits in the degree of xi, -2 + 2*sigma
    assert DEG_Z0 + DEG_Z1 == PiBDegree(0, -2, 2)


def test_rank_triple_examples():
    assert rank_triple(PiBDegree(0, 0, 0)) == RankTriple(0, 0, 0)
    assert rank_triple(DEG_CW) == RankTriple(2, 2, 0)
    assert rank_triple(PiBDegree(0, 0, 8)) == RankTriple(8, 0, 0)


def test_rank_triple_definitional_form():
    for m in range(-6, 7):
        for a in range(-6, 7):
            for b in range(-6, 7):
                x = PiBDegree(m, a, b)
                assert rank_triple(x) == RankTriple(a + b, a, a - 2 * m)


def test_rank_triple_additive():
    xs = [PiBDegree(m, a, b) for m in (-2, 0, 3) for a in (-4, 1) for b in (0, 5)]
    for x in xs:
        for y in xs:
            s = rank_triple(x + y)
            rx, ry = rank_triple(x), rank_triple(y)
            assert s == RankTriple(
                rx.n_total + ry.n_total, rx.n_fix0 + ry.n_fix0, rx.n_fix1 + ry.n_fix1
            )


def test_euler_grading_examples():
    assert euler_grading(4, 0, 0) == PiBDegree(0, 0, 8)
    assert euler_grading(1, 1, 1) == PiBDegree(0, 2, 0)
    assert euler_grading(2, 1, 1) == PiBDegree(0, 2, 2)


def test_euler_grading_rank_consistency():
    # the grading of a rank-(n, n0, n1) class has real ranks (2n, 2n0, 2n1)
    for n in range(0, 8):
        for n0 in range(0, n + 1):
            for n1 in range(0, n + 1):
                r = rank_triple(euler_grading(n, n0, n1))
                assert r == RankTriple(2 * n, 2 * n0, 2 * n1)


def test_recover_ranks_examples():
    assert recover_ranks(PiBDegree(0, 0, 8)) == RankTriple(4, 0, 0)
    assert recover_ranks(PiBDegree(0, 2, 2)) == RankTriple(2, 1, 1)


def test_recover_ranks_round_trip():
    for n in range(0, 21):
        for n0 in range(0, n + 1):
            for n1 in range(0, n + 1):
                assert recover_ranks(euler_grading(n, n0, n1)) == RankTriple(n, n0, n1)


def test_recover_ranks_rejects_odd_coordinates():
    with pytest.raises(ValueError):
        recover_ranks(PiBDegree(0, 1, 2))
    with pytest.raises(ValueError):
        recover_ranks(PiBDegree(2, 4, 3))


def test_euler_grading_rejects_bad_fixed_ranks():
    with pytest.raises(ValueError):
        euler_grading(2, 3, 0)


def test_format_parse_round_trip():
    for m in range(-5, 6):
        for a in range(-5, 6):
            for b in range(-5, 6):
                x = PiBDegree(m, a, b)
                assert parse_grading(str(x)) == x


def test_format_compact():
    assert str(PiBDegree(0, 0, 0)) == "0"
    assert str(PiBDegree(0, 0, 8)) == "8*s"
    assert str(PiBDegree(1, -2, 3)) == "1*W1 - 2 + 3*s"


def _times(k, x):
    """``k * x`` componentwise, for any integer ``k``."""
    return PiBDegree(k * x.m, k * x.a, k * x.b)


def test_basis_grading_is_the_generator_degree_sum():
    families = set()
    for p in range(6):
        for q in range(6):
            if p + q == 0:
                continue
            for m in range(-6, 7):
                for P in basis(ProjSpace(p, q), m):
                    families.add(_family(*P))
                    expected = (_times(P.s, DEG_Z0) + _times(P.t, DEG_Z1)
                                + _times(P.a, DEG_CW) + _times(P.b, DEG_CXW))
                    assert P.grading == expected, P
    assert {EPS, ZETAF} <= families  # the divided monomials are covered


def test_scalar_and_module_degrees_add_in_one_type():
    # point-ring degrees are the m = 0 slice of the extended grading, so
    # adding a scalar degree to a module degree commutes and keeps W1
    monos = [G]
    for i in (1, 2):
        monos += [(hs.KAPPA, -i, 0), (hs.TRANSFER, 0, -i)]
    monos += [(hs.PLAIN, u, v) for u in range(3) for v in range(3)]
    assert {family for family, _, _ in monos} == {hs.PLAIN, hs.KAPPA, hs.TRANSFER}
    sp = ProjSpace(2, 2)
    for mono in monos:
        c = scalar(mono)
        for m in range(-3, 4):
            for P in basis(sp, m):
                total = c.grading + P.grading
                assert total == P.grading + c.grading
                assert total == ModuleElement(sp, {P: c}).grading
                assert total.m == m
        assert isinstance(c.grading, PiBDegree) and c.grading.m == 0
