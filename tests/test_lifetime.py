"""Derived data lives on the algebra object and dies with it.

Cochain spaces, operators, cohomology, derivation spaces and the bracket
and alpha-power tables are kept in each algebra's own memo: an algebra
that is no longer referenced is freed with everything derived from it,
each call form of a space gives one object, and an equal algebra under
another name computes its own data.
"""

import gc
import random
import weakref
from fractions import Fraction
from pathlib import Path

import hlya
from hlya.algebra import alpha_table, brackets, make_algebra, yau_twist
from hlya.coboundary import OPERATORS, verify_well_definedness
from hlya.cochain import build_cochain_space
from hlya.cohomology import cohomology_report, pair_from_coords
from hlya.deformation import (
    apply_gauge,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    trivialize,
    verify_equivalence,
)
from hlya.derivations import check_der_is_lie, derivation_space
from hlya.exactlin import Matrix
from hlya.samples import sl2


def _fresh_twist():
    # s = 7/5 lies outside the random sl2-twist family, so no other test
    # builds an equal algebra
    s = Fraction(7, 5)
    beta = Matrix([[1, 0, 0], [0, s, 0], [0, 0, 1 / s]])
    return yau_twist(sl2(), beta, name="sl2_twist_7_5")


def _exercise(a):
    report = cohomology_report(a)
    assert report.dims()["z2z3"] == 3
    check_der_is_lie(a, 2)
    null = null_deformation(a, 2)
    disguised = apply_gauge(null, random_gauge(a, 2, random.Random(1)))
    result = trivialize(disguised)
    assert result.trivial and verify_equivalence(disguised, null, result.gauge)
    f1, g1 = pair_from_coords(a, report.level2.cocycles.basis.column(0))
    assert obstruction_pair(a, f1, g1).in_z4z5
    solved = solve_second_order(a, f1, g1)
    assert solved is not None
    probe = second_order_probe(a, f1, g1, *solved)
    assert probe.failures[7] is None and probe.failures[8] is None
    assert verify_well_definedness(a, "2") > 0


def test_derived_data_is_freed_with_its_algebra():
    a = _fresh_twist()
    _exercise(a)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_space_call_forms_share_one_space():
    a = sl2()
    space = build_cochain_space(a, 4)
    assert build_cochain_space(a, 4, None) is space
    assert build_cochain_space(a, 4, pairs=2) is space
    assert build_cochain_space(a, 4, pairs=1) is not space
    assert derivation_space(a, k=1) is derivation_space(a, 1)
    assert brackets(a) is brackets(a)
    assert alpha_table(a, 5) is alpha_table(a, k=5)


def test_renamed_copy_gets_its_own_data():
    base = sl2()
    base_dims = cohomology_report(base).dims()
    copy = make_algebra(base.dim, base.binary, base.ternary, base.alpha, name="sl2_copy")
    assert copy == base
    assert "algebra=sl2_copy" in repr(build_cochain_space(copy, 2))
    for level, build in OPERATORS.items():
        op = build(copy)
        assert all(s.algebra is copy for s in op.domain + op.codomain), level
        assert op.matrix == build(base).matrix, level
    report = cohomology_report(copy)
    assert report.algebra is copy
    assert report.dims() == base_dims


def test_cache_policy_lives_in_samples_only():
    src = Path(hlya.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "lru_cache" in p.read_text())
    assert users == ["samples.py"]
