"""The seeded differential runner: determinism, fault detection, shrinking."""

import inspect
import random
import textwrap

import pytest

import equibezout.euler as euler_mod
import equibezout.variants as variants_mod
from equibezout import cli, projmod
from equibezout.euler import BundleSum, context_check, ranks
from equibezout.grading import euler_grading
from equibezout.hscalar import HElement
from equibezout.parsing import parse_bundles
from equibezout.projmod import ModuleElement, basis
from equibezout.verify import (
    check_instance,
    random_bundle_sum,
    run_verify,
    shrink,
)
from oracles import O, xO


def test_small_run_passes():
    summary = run_verify(seed=11, count=50)
    assert summary.ok
    assert summary.passed == 50
    assert str(summary) == "50/50 ok (seed 11)"


def test_zero_count_is_vacuous():
    summary = run_verify(seed=3, count=0)
    assert summary.ok
    assert summary.passed == 0


def test_deterministic_for_fixed_seed():
    a = run_verify(seed=77, count=30)
    b = run_verify(seed=77, count=30)
    assert a == b


def test_random_instances_are_context_valid():
    rng = random.Random(5)
    for _ in range(100):
        F = random_bundle_sum(rng, pmax=5, qmax=5, dmax=4)
        assert not context_check(F)
        assert 1 <= F.n < F.sp.p + F.sp.q


def test_fault_injection_is_caught_and_shrunk(monkeypatch):
    original = euler_mod.euler_closed

    def corrupted(F):
        out = original(F)
        return out.scale(3) if out else out

    monkeypatch.setattr(euler_mod, "euler_closed", corrupted)
    summary = run_verify(seed=5, count=50)
    assert not summary.ok
    assert "product_equals_closed" in summary.failure.failed
    assert summary.minimized is not None
    assert "product_equals_closed" in summary.minimized.failed
    # the minimized counterexample is a single bundle on a small space
    small_lines = parse_bundles(summary.minimized.bundles)
    assert len(small_lines) == 1
    assert summary.minimized.p <= summary.failure.p
    assert summary.minimized.q <= summary.failure.q
    assert abs(small_lines[0].d) <= 1


def test_dropped_unit_in_z1_cxw_rule_is_caught(monkeypatch):
    # no line class carries z1, so no Euler product walks the z1*cxw rule;
    # only the rows that walk z1 over e(F) (zeta_relation: z0*z1 = xi, and
    # zeta_squared: z0^2*z1^2 = xi^2) see it lose its u
    monkeypatch.setattr(HElement, "ring_u", vars(HElement)["ring_one"])
    summary = run_verify(seed=1, count=200)
    assert not summary.ok
    assert summary.failure.failed == ["zeta_relation", "zeta_squared"]
    assert summary.minimized.failed == ["zeta_relation"]


@pytest.mark.parametrize("mutant", ["s > 1 and t > 0", "s > 0 and t > 1"])
def test_zeta_squared_row_kills_the_zeta_cancel_survivors(mutant, monkeypatch):
    # the two mutants of zeta cancel's k that every other row lets through:
    # each is wrong only on z0*z1^t (t >= 2) or on z0^s*z1 (s >= 2), which
    # only the zeta_squared row walks
    source = textwrap.dedent(inspect.getsource(projmod._normalize))
    assert source.count("s > 0 and t > 0") == 1
    namespace = dict(vars(projmod))
    exec(source.replace("s > 0 and t > 0", mutant), namespace)
    monkeypatch.setattr(projmod, "_normalize", namespace["_normalize"])
    summary = run_verify(seed=1, count=200)
    assert not summary.ok
    assert summary.failure.failed == ["zeta_squared"]
    assert summary.minimized.failed == ["zeta_squared"]


def test_a_check_that_raises_counts_as_failed(monkeypatch, capsys):
    # a term from the next degree class makes coeff_vector and
    # recover_degrees raise: verify must report and shrink it, not stop
    honest = euler_mod.euler_product

    def with_stray_term(F, ring=HElement):
        x = honest(F, ring)
        stray = basis(F.sp, euler_grading(*ranks(F)).m + 1)[0]
        return ModuleElement._trusted(F.sp, {**x.terms, stray: ring.ring_one()}, ring)

    monkeypatch.setattr(euler_mod, "euler_product", with_stray_term)
    summary = run_verify(seed=1, count=50)
    assert not summary.ok
    assert {"grading", "coefficient_vector_length"} <= set(summary.failure.failed)
    assert summary.minimized.failed
    assert cli.main(["verify", "--seed", "1", "--count", "50"]) == 1
    assert "minimized: " in capsys.readouterr().out


def test_shrink_preserves_failure(monkeypatch):
    original = euler_mod.euler_closed

    def corrupted(F):
        out = original(F)
        return out.scale(3) if out else out

    monkeypatch.setattr(euler_mod, "euler_closed", corrupted)
    rng = random.Random(123)
    F = random_bundle_sum(rng, pmax=6, qmax=6, dmax=5)
    while not check_instance(F):
        F = random_bundle_sum(rng, pmax=6, qmax=6, dmax=5)
    small = shrink(F)
    assert check_instance(small)
    assert not context_check(small)
    assert small.n <= F.n


def test_check_instance_clean_on_known_good():
    good = BundleSum.make(
        euler_mod.ProjSpace(5, 5), [xO(2)] * 4
    )
    assert check_instance(good) == []


def test_check_table_has_unique_keys_and_the_cli_order():
    keys = [check.key for check in variants_mod.CHECKS]
    assert len(keys) == len(set(keys))
    reported = {
        theory: [c.name for c in variants_mod.CHECKS if c.theory == theory and c.reported]
        for theory in ("burnside", "zconst", "borel")
    }
    assert reported == {
        "burnside": [
            "product_equals_closed", "grading", "support_at_most_three",
            "coefficients_in_T", "degrees_recovered", "ranks_recovered",
            "multiplicative",
        ],
        "zconst": ["closed_equals_mapped_product"],
        "borel": ["closed_equals_mapped_product"],
    }


def test_check_instance_computes_each_class_once(monkeypatch):
    calls = []
    for module, name in [
        (euler_mod, "euler_product"), (euler_mod, "euler_closed"),
        (variants_mod, "z_map"), (variants_mod, "z_euler_closed"),
        (variants_mod, "borel_map"), (variants_mod, "borel_euler_closed"),
    ]:
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    F = BundleSum.make(
        euler_mod.ProjSpace(4, 4), [O(3), xO(2), O(1)]
    )
    assert check_instance(F) == []
    # one product of F in each ring and one per factor of the split
    assert sorted(calls) == sorted(
        ["euler_product"] * 4 + ["euler_closed", "z_map", "z_euler_closed",
                                 "borel_map", "borel_euler_closed"]
    )


_SUM = "O(3)+xO(2)+O(1)"


@pytest.mark.parametrize(
    "run, bound",
    [
        # F and the two parts of its split, each classified once: 2 * n
        (lambda: check_instance(
            BundleSum.make(euler_mod.ProjSpace(4, 4), parse_bundles(_SUM))), 6),
        *((lambda theory=theory: cli.main(["euler", "4", "4", _SUM, "--coeffs", theory]), 3)
          for theory in ("burnside", "zconst", "borel")),
        (lambda: cli.main(["compare", "4", "4", _SUM, "O(1)+xO(4)+O(3)"]), 6),
    ],
    ids=["check_instance", "euler-burnside", "euler-zconst", "euler-borel", "compare"],
)
def test_each_bundle_sum_classifies_its_lines_once(monkeypatch, capsys, run, bound):
    classified = []
    original = euler_mod.classify_line

    def counted(L):
        classified.append(L)
        return original(L)

    monkeypatch.setattr(euler_mod, "classify_line", counted)
    assert run() in ([], 0)
    assert 0 < len(classified) <= bound
