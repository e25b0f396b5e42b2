"""Derived data lives on the algebra object and dies with it.

Cochain spaces, operators, cohomology, derivation spaces and the bracket
and alpha-power tables are kept in each algebra's own memo: an algebra
that is no longer referenced is freed with everything derived from it,
each call form of a space gives one object, and an equal algebra under
another name computes its own data.  Twisted tables are kept on the
table they twist, one per algebra, and only the cochain spaces know their
orbit layout.
"""

import ast
import gc
import inspect
import itertools
import random
import re
import weakref
from fractions import Fraction
from pathlib import Path

import hlya
from hlya import algebra
from hlya.algebra import (
    alpha_table,
    brackets,
    contract,
    divided,
    evaluate,
    int_table,
    make_algebra,
    to_dense,
    yau_twist,
)
from hlya.coboundary import OPERATORS, verify_well_definedness
from hlya.cochain import CochainSpace, build_cochain_space
from hlya.cohomology import cohomology_report, pair_from_coords
from hlya.deformation import (
    apply_gauge,
    bracket_cochain,
    null_deformation,
    obstruction_pair,
    random_gauge,
    second_order_probe,
    solve_second_order,
    trivialize,
    verify_deformation,
    verify_equivalence,
)
from hlya.derivations import check_der_is_lie, derivation_space
from hlya.exactlin import Matrix
from hlya.samples import sl2


def _fresh_twist(s=Fraction(7, 5)):
    # s = 7/5 and 5/3 lie outside the random sl2-twist family, so no other
    # test builds an equal algebra
    beta = Matrix([[1, 0, 0], [0, s, 0], [0, 0, 1 / s]])
    return yau_twist(sl2(), beta, name=f"sl2_twist_{s.numerator}_{s.denominator}")


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


def test_twists_of_the_base_brackets_are_built_once_per_algebra(monkeypatch):
    """The twists of brackets(a) live on those tables: a second
    verify_deformation or check_axioms on the algebra builds none of them
    again, while the tables of its series are new and twisted anew."""
    twist = _fresh_twist()
    a = make_algebra(twist.dim, twist.binary, twist.ternary, twist.alpha, name="fresh")
    built = []
    original = algebra._twisted

    def counted(b, table, powers, pos):
        built.append(table)
        return original(b, table, powers, pos)

    monkeypatch.setattr(algebra, "_twisted", counted)
    d = apply_gauge(null_deformation(a, 2), random_gauge(a, 2, random.Random(3)))
    base = (*brackets(a), alpha_table(a, 1))
    for call in range(2):
        built.clear()
        before = sum(len(t.twists) for t in base)
        assert verify_deformation(d).ok and algebra.check_axioms(a).all_passed
        of_base = [t for t in built if any(t is b for b in base)]
        # the first call makes each twist it adds to a base table once (make_algebra
        # has already made those of identities 3 and 4), the second none
        added = sum(len(t.twists) for t in base) - before
        assert len(of_base) == (added if call == 0 else 0), call
        assert len(built) > len(of_base)  # the series tables are new each call
    assert all(key[0] is a for t in base for key in t.twists)


def test_one_table_keeps_a_twist_per_algebra():
    """A table contracted against two algebras whose alpha differ keeps a
    twist for each, and each algebra reads its own values."""
    first, second = _fresh_twist(), _fresh_twist(Fraction(5, 3))
    table = int_table(bracket_cochain(sl2()).table)
    terms = ((1, "t", ((1, 0), (1, 1))),)
    for a in (first, second, first):
        value = divided(*contract(a, {"t": table}, terms))
        alpha = a.alpha_matrix()
        for i, j in itertools.product(range(3), repeat=2):
            expected = evaluate(table, 3, [alpha.column(i), alpha.column(j)])
            assert to_dense(value((i, j)), 3) == expected, (a.name, i, j)
    assert sorted(key[0].name for key in table.twists) == ["sl2_twist_5_3", "sl2_twist_7_5"]


def test_each_piece_of_state_has_one_owner():
    """Only cochain.py reads a space's orbit layout, derivations.py imports
    no private name and only leibniz from coboundary, and no function takes
    a dict of twisted tables."""
    src = Path(hlya.__file__).parent
    layout = re.compile(r"_orbits|_free|_basis_cols|_canonicalize")
    assert sorted(p.name for p in src.glob("*.py") if layout.search(p.read_text())) == ["cochain.py"]
    imports = [node for node in ast.walk(ast.parse((src / "derivations.py").read_text())) if isinstance(node, ast.ImportFrom)]
    assert not [alias.name for node in imports for alias in node.names if alias.name.startswith("_")]
    assert [alias.name for node in imports if node.module == "coboundary" for alias in node.names] == ["leibniz"]
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
                assert "twisted" not in names, (path.name, getattr(node, "name", "lambda"))


def _calls(path: Path) -> set:
    """The names called in a module, as plain or attribute calls."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return calls


def test_each_rule_has_one_statement():
    """Gauge coefficients are checked as 1-cochains, not against alpha's
    matrix, and the random algebras are verified by their constructors
    alone."""
    src = Path(hlya.__file__).parent
    assert "alpha_matrix" not in _calls(src / "deformation.py")
    assert "check_axioms" not in _calls(src / "samples.py")
    assert "_basis_cols" not in inspect.getsource(CochainSpace._residual)
