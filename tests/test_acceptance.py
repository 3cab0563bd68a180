"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

from equibezout import hscalar as hs
from equibezout.cli import main
from equibezout.euler import (
    BundleSum,
    DegreeTriple,
    euler_closed,
    euler_line,
    euler_product,
    ranks,
    recover_degrees,
)
from equibezout.grading import PiBDegree
from equibezout.hscalar import HElement
from equibezout.parsing import parse_module_element, parse_scalar
from equibezout.projmod import (
    BasisMonomial,
    ModuleElement,
    NoneqPoly,
    ProjSpace,
    basis,
    mod_rho,
)
from equibezout.variants import (
    BorelElement,
    borel_euler_closed,
    borel_map,
    compare,
    z_euler_closed,
    z_fixed,
    z_map,
)
from equibezout.verify import random_bundle_sum, run_verify
from oracles import (
    G,
    O,
    borel_relation,
    einvkappa,
    exi,
    kappa,
    one,
    scalar,
    scalars_in_grading,
    tauinv,
    xO,
)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def bundle_sum(p, q, *lines):
    return BundleSum.make(ProjSpace(p, q), lines)


def test_criterion_1_worked_example_class():
    with criterion(1, "worked 4-fold twisted bundle class, both engines, < 1 s"):
        t0 = time.perf_counter()
        sp = ProjSpace(5, 5)
        F = bundle_sum(5, 5, *[xO(2)] * 4)
        expected = ModuleElement.unit(sp).scale(hs.e(8)) + ModuleElement(
            sp, {BasisMonomial(sp, 0, 0, 2, 2): 8 * hs.tau_iota(2)}
        )
        prod = euler_product(F)
        closed = euler_closed(F)
        assert prod == expected and closed == expected
        assert recover_degrees(prod) == DegreeTriple(16, 1, 1)
        assert prod.grading == PiBDegree(0, 0, 8)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        assert main(["euler", "5", "5", "4*xO(2)"]) == 0


def test_criterion_2_single_bundle_formulas():
    with criterion(2, "closed form matches the line-bundle formulas, d in -3..3"):
        sp = ProjSpace(3, 3)
        for d in range(-3, 4):
            for L in (O(2 * d + 1), O(2 * d), xO(2 * d + 1), xO(2 * d)):
                assert euler_closed(BundleSum.make(sp, [L])) == euler_line(L, sp)


def test_criterion_3_differential_suite():
    with criterion(3, "1000 seeded random instances, all checks, < 60 s"):
        t0 = time.perf_counter()
        summary = run_verify(seed=1, count=1000, pmax=6, qmax=6, dmax=5)
        elapsed = time.perf_counter() - t0
        assert summary.ok, str(summary)
        assert summary.passed == 1000
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_operator_identities(operator_identities):
    with criterion(4, "operator identities on all basis elements, p,q <= 5, |m| <= 8"):
        operator_identities(HElement, 5, 8)


DIAGRAMS_45 = {
    -6: {(-6, 6), (-5, 6), (-4, 6), (-3, 6), (-2, 6), (0, 5), (1, 5), (2, 5), (3, 5)},
    -3: {(-3, 3), (-2, 3), (-1, 3), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (3, 5)},
    0: {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 2), (2, 3), (3, 4), (4, 4)},
    2: {(0, 0), (1, 0), (2, 1), (3, 2), (2, 0), (3, 1), (4, 2), (5, 2), (6, 2)},
    6: {(6, -2), (7, -2), (8, -2), (9, -2), (10, -2), (0, 0), (1, 0), (2, 0), (3, 0)},
}


def test_criterion_5_basis_structure():
    with criterion(5, "basis sizes, positions, restrictions, X(4,5) diagrams"):
        for p in range(0, 11):
            for q in range(0, 11 - p):
                if p + q == 0:
                    continue
                sp = ProjSpace(p, q)
                for m in range(-10, 11):
                    monos = basis(sp, m)
                    assert len(monos) == p + q
                    columns = {}
                    for x in monos:
                        A, B = x.pos
                        assert A + B == x.index
                        columns[A] = columns.get(A, 0) + 1
                        assert mod_rho(
                            ModuleElement(sp, {x: one()})
                        ) == NoneqPoly.make(p + q, {x.index: 1})
                    assert all(v <= 2 for v in columns.values())
        sp45 = ProjSpace(4, 5)
        for m, dots in DIAGRAMS_45.items():
            assert {x.pos for x in basis(sp45, m)} == dots


def test_criterion_6_point_ring_arithmetic():
    with criterion(6, "point-ring laws (exhaustive to index 6) and identities"):
        monos = [G]
        for i in range(1, 7):
            monos += [(hs.KAPPA, -i, 0), (hs.TRANSFER, 0, -i)]
        monos += [(hs.PLAIN, u, v) for u in range(7) for v in range(7)]
        elems = [scalar(x) for x in monos]
        products = {}
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                p = x * y
                assert p == y * x
                products[i, j] = p
        for i, x in enumerate(elems):
            for j in range(len(elems)):
                for k, z in enumerate(elems):
                    assert products[i, j] * z == x * products[j, k]
        g, e, xi, kappa = hs.g(), hs.e(1), hs.xi(1), hs.e_power_kappa(0)
        assert g * g == 2 * g
        assert not g * e
        assert g * xi == 2 * xi
        assert not 2 * (e * xi)
        assert kappa * kappa == 2 * kappa
        assert (1 - kappa) * (1 - kappa) == one()
        assert e * einvkappa(1) == kappa
        assert tauinv(1) * tauinv(1) == 2 * tauinv(2)


def test_criterion_7_coefficient_change_functoriality():
    with criterion(7, "constant-Z and Borel closed forms match the mapped classes"):
        rng = random.Random(1)
        for _ in range(500):
            F = random_bundle_sum(rng, pmax=6, qmax=6, dmax=5)
            prod = euler_product(F)
            assert z_map(prod) == z_euler_closed(F)
            assert borel_map(prod, ranks(F).n_fix1) == borel_euler_closed(F)
        for _ in range(100):
            sp = ProjSpace(rng.randint(1, 5), rng.randint(1, 5))
            # a homogeneous class: c^k carries c_k*e^(u0 - 2k)*xi^v
            top = rng.randint(1, 5)
            u0, v = 2 * (top - 1) + rng.randint(0, 3), rng.randint(-2, 2)
            x = BorelElement(sp, u0, v, {k: rng.randint(-4, 4) for k in range(top)})
            raw = {}
            for k1, v1 in x.coeffs.items():
                for k2, v2 in borel_relation(sp).items():
                    raw[k1 + k2] = raw.get(k1 + k2, 0) + v1 * v2
            N = sp.p + sp.q  # the relation lies in the grading of e^(2N)
            assert BorelElement(sp, x.u + 2 * N, x.v, raw) == BorelElement(sp, 0, 0, {})


def test_criterion_8_information_loss():
    with criterion(8, "Burnside-distinct, Z-equal, Borel-equal; mod-2 fixed rule"):
        flags = compare(
            bundle_sum(2, 2, O(3), xO(1)), bundle_sum(2, 2, O(1), xO(3))
        )
        assert flags == {"burnside": False, "zconst": True, "borel": True}
        assert main(["compare", "2", "2", "O(3)+xO(1)", "O(1)+xO(3)"]) == 0
        rng = random.Random(8)
        for _ in range(300):
            F = random_bundle_sum(rng, pmax=5, qmax=5, dmax=4)
            r = ranks(F)
            from equibezout.euler import degrees

            dd = degrees(F)
            fix0, fix1 = z_fixed(z_map(euler_product(F)))
            exp0 = {r.n_fix0: 1} if dd.delta0 % 2 else {}
            exp1 = {r.n_fix1: 1} if dd.delta1 % 2 else {}
            assert fix0.as_dict() == exp0
            assert fix1.as_dict() == exp1


def test_criterion_9_parser_and_exit_codes():
    with criterion(9, "parser round-trips and the CLI exit-code contract"):
        scalars = (
            [one(), hs.g(), kappa()]
            + [hs.e(m) for m in range(1, 7)]
            + [einvkappa(m) for m in range(1, 7)]
            + [hs.xi(n) for n in range(1, 7)]
            + [exi(m, n) for m in range(1, 4) for n in range(1, 4)]
            + [tauinv(n) for n in range(1, 7)]
        )
        for x in scalars:
            assert parse_scalar(str(x)) == x
        rng = random.Random(9)
        done = 0
        while done < 200:
            sp = ProjSpace(rng.randint(1, 5), rng.randint(1, 5))
            monos = basis(sp, rng.randint(-4, 4))
            P0 = rng.choice(monos)
            da, db = rng.choice([(0, 0), (0, 2), (0, -2), (-2, 2), (2, -2), (0, 3)])
            grading = P0.grading + PiBDegree(0, da, db)
            terms = {}
            for P in monos:
                gens = scalars_in_grading(
                    grading.a - 2 * P.pos[0], grading.b - 2 * P.pos[1]
                )
                for gen in gens:
                    c = rng.randint(-9, 9)
                    if c:
                        terms[P] = terms.get(P, HElement(0, 0, 0)) + c * gen
            if not terms:
                continue
            x = ModuleElement(sp, terms)
            assert parse_module_element(str(x), sp) == x
            done += 1
        assert main(["euler", "5", "5", "4*xO(2)"]) == 0
        assert main(["euler", "1", "1", "O(1)+O(1)"]) == 1
        assert main(["euler", "2", "2", "O(3"]) == 2
        assert main(["basis", "0", "0", "0"]) == 2
        assert main(["frobnicate"]) == 2
