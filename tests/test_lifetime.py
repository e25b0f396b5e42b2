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
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

import hlya
from hlya import algebra, coboundary, deformation
from hlya.algebra import (
    alpha_table,
    brackets,
    contract,
    evaluate,
    int_table,
    make_algebra,
    yau_twist,
)
from hlya.algebra import FormTable
from hlya.coboundary import OPERATORS, verify_well_definedness
from hlya.cochain import Cochain, CochainSpace, build_cochain_space
from hlya.cohomology import cohomology_report, pair_from_coords
from hlya.deformation import (
    apply_gauge,
    bracket_cochain,
    first_order_deformation,
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
from hlya.errors import NotACochainError
from hlya.exactlin import Matrix
from hlya.samples import heisenberg_twisted, sl2

from fraction_reference import divided
from tabulated import to_dense


def _fresh_twist(s=Fraction(7, 5)):
    # s = 7/5 and 5/3 lie outside the random sl2-twist family, so no other
    # test builds an equal algebra
    beta = Matrix([[1, 0, 0], [0, s, 0], [0, 0, 1 / s]])
    return yau_twist(sl2(), beta, name=f"sl2_twist_{s.numerator}_{s.denominator}")


def _exercise(a) -> list:
    """Run every layer on a; returns cochains its spaces built and recorded
    coordinates on, which no contraction has twisted."""
    report = cohomology_report(a)
    assert report.dims()["z2z3"] == 3
    check_der_is_lie(a, 2)
    null = null_deformation(a, 2)
    disguised = apply_gauge(null, random_gauge(a, 2, random.Random(1)))
    result = trivialize(disguised)
    assert result.trivial and verify_equivalence(disguised, null, result.gauge)
    f1, g1 = pair_from_coords(a, report.level2.cocycles.basis.column(0))
    pair = obstruction_pair(a, f1, g1)
    assert pair.in_z4z5
    solved = solve_second_order(a, f1, g1)
    assert solved is not None
    probe = second_order_probe(a, f1, g1, *solved)
    assert probe.failures[7] is None and probe.failures[8] is None
    assert verify_well_definedness(a, "2") > 0
    return [pair.first, pair.second, *result.gauge.phi[1:]]


def test_derived_data_is_freed_with_its_algebra():
    """Also when cochains its spaces built outlive it: the coordinates a
    space records on a cochain hold the space weakly."""
    a = _fresh_twist()
    kept = _exercise(a)
    assert all(c._coords is not None for c in kept)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert all(c._coords[0]() is None for c in kept)
    assert [c.arity for c in kept] == [4, 5, 1, 1] and not all(c.is_zero() for c in kept)


def _log_reads(monkeypatch) -> list:
    """From now on, ("read", table) for each table CochainSpace._read reads
    and ("built", cochain) for each cochain a space builds, in order."""
    log = []
    read = CochainSpace._read
    monkeypatch.setattr(CochainSpace, "_read", lambda space, t: log.append(("read", t)) or read(space, t))
    for name in ("from_rep_values", "from_table", "from_coords"):

        def counted(space, arg, build=getattr(CochainSpace, name)):
            c = build(space, arg)
            log.append(("built", c))
            return c

        monkeypatch.setattr(CochainSpace, name, counted)
    return log


def _rereads(log) -> list:
    """The tables of the log's reads that a space had already built a
    cochain on; from_table reads its table before the cochain exists."""
    built, again = [], []
    for kind, x in log:
        if kind == "built":
            built.append(x)
        elif any(x is c.ints for c in built):
            again.append(x)
    return again


def test_a_gauge_round_trip_reads_no_cochain_a_space_built(monkeypatch):
    """A space records the coordinates it establishes when it builds a
    cochain, and coords hands them back: on sl2 a gauge round trip reads
    the table of no cochain after a space built it.  What it still reads
    is the tables from_table builds on, and the zero coefficients of the
    null deformation.  The steps of trivialize are integer series, so it
    reads no coefficient of theirs: only the five tables its one gauge is
    built on."""
    a = sl2()
    log = _log_reads(monkeypatch)
    from_table, tables = CochainSpace.from_table, []
    monkeypatch.setattr(CochainSpace, "from_table", lambda space, t: tables.append(t) or from_table(space, t))
    null = null_deformation(a, 4)
    disguised = apply_gauge(null, random_gauge(a, 4, random.Random(5)))
    before = len(log)
    tables.clear()
    result = trivialize(disguised)
    assert result.trivial and verify_equivalence(disguised, null, result.gauge)
    kinds = Counter(kind for kind, _ in log)
    assert kinds["built"] > 20 and kinds["read"] > 0
    assert _rereads(log) == []
    assert sum(kind == "read" for kind, _ in log[before:]) == len(tables) == 5


def test_recorded_coordinates_belong_to_the_space_that_recorded_them(monkeypatch):
    """The space that built a cochain reads it no more; the space of an
    equal algebra under another name, and that of a twist of the same
    shape, read it afresh and reach their own verdicts, and the record
    stays with the first space."""
    a = sl2()
    space = build_cochain_space(a, 2)
    coords = [1, 0, 2, 0, Fraction(1, 2), -1, 0, 3, 1]
    c = space.from_coords(coords)
    copy = make_algebra(a.dim, a.binary, a.ternary, a.alpha, name="sl2_copy")
    twist = _fresh_twist()
    log = _log_reads(monkeypatch)
    assert space.coords(c) == coords and log == []
    assert build_cochain_space(copy, 2).coords(c) == coords
    assert [kind for kind, _ in log] == ["read"] and log[0][1] is c.ints
    with pytest.raises(NotACochainError, match="equivariance"):
        build_cochain_space(twist, 2).coords(c)
    assert not build_cochain_space(twist, 2).contains(c)
    assert [kind for kind, _ in log] == ["read"] * 3
    assert space.coords(c) == coords and len(log) == 3
    assert c._recorded(space) == coords and c._recorded(build_cochain_space(copy, 2)) is None


def test_identity_plans_are_freed_with_their_algebra():
    """The evaluation plans of the identities and the linear parts of
    equations 5-8 live in the algebra's memo and go with it.  A plan is
    kept per identity and order evaluated: order 0 of all eight, and above
    it only the quadratic parts of 5-8, which a null deformation lacks
    and a gauged one of order 2 has at order 2 alone, and order 1, the
    linear parts bound on the generic tables of C2 x C3 as delta2 and d2
    are.  The linear parts are kept once per identity, from the first
    nonzero coefficient on: a null deformation reads none."""
    a = _fresh_twist()
    assert verify_deformation(null_deformation(a, 2)).ok

    def kept(fn):
        return {key[1:] for key in a._memo if key[0] is fn.__wrapped__}

    assert kept(algebra._plan) == {(k, 0) for k in algebra.IDENTITIES}
    assert kept(deformation._linear_forms) == set()
    assert verify_deformation(apply_gauge(null_deformation(a, 2), random_gauge(a, 2, random.Random(2)))).ok
    above = {(k, n) for k in (5, 6, 7, 8) for n in (1, 2)}
    assert kept(algebra._plan) == {(k, 0) for k in algebra.IDENTITIES} | above
    assert kept(deformation._linear_forms) == {(k,) for k in (5, 6, 7, 8)}
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


def _callers(name: str) -> set:
    """(module, enclosing function) of every call to ``name`` in the package."""
    found = set()
    for path in Path(hlya.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    func = getattr(inner, "func", None)
                    if isinstance(inner, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == name:
                        found.add((path.name, node.name))
    return found


def test_term_lists_are_analysed_once_and_twisted_in_one_binding():
    """_analysed is memoised, so every term list is analysed once per
    algebra; it is reached from contract and from the identity plans only,
    and _twisted, whose twists each table keeps, from _bound only."""
    assert algebra._analysed.__wrapped__ is not algebra._analysed
    assert _callers("_analysed") == {("algebra.py", "_plan"), ("algebra.py", "contract")}
    assert _callers("_twisted") == {("algebra.py", "_bound")}
    a = _fresh_twist()
    verify_well_definedness(a, "1")
    derivation_space(a, 2)
    analyses = [key for key in a._memo if key[0] is algebra._analysed.__wrapped__]
    built = len(analyses)
    verify_well_definedness(a, "1")
    derivation_space(a, 3)
    analyses = [key for key in a._memo if key[0] is algebra._analysed.__wrapped__]
    assert len(analyses) == built + 2  # the two term lists of leibniz(3) alone


def _reachable(roots) -> dict:
    """id -> object for everything reachable from ``roots`` by references,
    not entering types or modules, and reading functions by their closures
    only, so the walk stays inside the data and does not reach globals."""
    seen: dict = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return seen


def _live(kind) -> int:
    """The number of live objects of type ``kind`` after a collection."""
    gc.collect()
    return sum(isinstance(obj, kind) for obj in gc.get_objects())


def test_generic_tables_are_built_once_per_algebra_and_domain(monkeypatch):
    """Each level's generic domain tables live in the algebra's memo with
    their twists and join indexes: assembly and repeated audits build them
    once per domain (levels 2 and d2 share C2 x C3) and twist them once,
    and they are freed with the algebra."""
    built, twisted = [], []
    generic, twist = CochainSpace.generic, algebra._twisted

    def counted_generic(space, offset=0):
        built.append((space.arity, offset))
        return generic(space, offset)

    def counted_twist(table, alphas, pos):
        twisted.append(table)
        return twist(table, alphas, pos)

    monkeypatch.setattr(CochainSpace, "generic", counted_generic)
    monkeypatch.setattr(algebra, "_twisted", counted_twist)
    live = _live(FormTable)
    a = _fresh_twist()
    for build in OPERATORS.values():
        build(a)
    twists = [sum(isinstance(t, FormTable) for t in twisted)]
    for _ in range(2):
        twisted.clear()
        for level in OPERATORS:
            assert verify_well_definedness(a, level) == OPERATORS[level](a).domain_dim
        twists.append(sum(isinstance(t, FormTable) for t in twisted))
    c2, c4 = (build_cochain_space(a, n).dim for n in (2, 4))
    assert sorted(built) == [(1, 0), (2, 0), (3, c2), (4, 0), (5, c4)]
    assert twists[0] > 0 and twists[1:] == [0, 0]  # assembly twists them, audits reuse
    assert _live(FormTable) - live == len(built)
    ref = weakref.ref(a)
    del a, twisted[:]
    gc.collect()
    assert ref() is None
    assert _live(FormTable) == live


def test_bound_formulas_are_built_once_per_algebra_and_formula(monkeypatch):
    """Each level's formula is bound to the generic tables once per algebra
    and kept in its memo: assembly probes that binding and every audit
    joins it.  The memo is keyed on the formula, so a formula put in
    _LEVELS later binds anew; every binding is freed with the algebra."""
    calls = Counter()

    def counted(label, formula):
        def tables(a, *domain):
            calls[label] += 1
            return formula(a, *domain)

        return tables

    levels = dict(coboundary._LEVELS)
    for level, (name, arities, shapes, formula) in levels.items():
        monkeypatch.setitem(coboundary._LEVELS, level, (name, arities, shapes, counted(level, formula)))
    live = _live(algebra.Contraction)
    a = _fresh_twist()
    for build in OPERATORS.values():
        build(a)
    for _ in range(2):
        for level in OPERATORS:
            verify_well_definedness(a, level)
    assert calls == {level: 1 for level in OPERATORS}
    bound = [key for key in a._memo if key[0] is coboundary._bound_generic.__wrapped__]
    assert len(bound) == len(OPERATORS)
    name, arities, shapes, formula = levels["1"]
    monkeypatch.setitem(coboundary._LEVELS, "1", (name, arities, shapes, counted("swapped", formula)))
    for _ in range(2):
        verify_well_definedness(a, "1")
    assert calls["swapped"] == 1 and calls["1"] == 1
    assert _live(algebra.Contraction) > live
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert _live(algebra.Contraction) == live


def test_joined_tables_do_not_outlive_their_audit(monkeypatch):
    """The audit joins each block's formula into a whole table; once
    verify_well_definedness returns, none of those tables is reachable
    from the algebra's memo or from the twists of a memoised table."""
    a = _fresh_twist()
    joined = []  # held here, so no table's id is reused during the walk
    join = algebra.Contraction.join

    def recording(contraction):
        table = join(contraction)
        joined.append(table)
        return table

    monkeypatch.setattr(algebra.Contraction, "join", recording)
    for level in OPERATORS:
        verify_well_definedness(a, level)
    assert len(joined) == 2 * len(OPERATORS) and any(joined)
    reachable = _reachable([a._memo])
    # the walk enters the memoised tables' slots, so it covers their twists
    assert all(id(t.twists) in reachable for t in (*brackets(a), alpha_table(a, 1)))
    assert not [table for table in joined if id(table) in reachable]


def _count_twists(monkeypatch) -> list:
    """The tables :func:`hlya.algebra._twisted` twists from now on, in order."""
    built = []
    original = algebra._twisted

    def counted(table, alphas, pos):
        built.append(table)
        return original(table, alphas, pos)

    monkeypatch.setattr(algebra, "_twisted", counted)
    return built


def test_twists_of_the_base_brackets_are_built_once_per_algebra(monkeypatch):
    """The twists of brackets(a) live on those tables, and those of the
    series on the integer tables its coefficients keep: a second
    verify_deformation or check_axioms on the algebra builds no twist of
    either again."""
    twist = _fresh_twist()
    a = make_algebra(twist.dim, twist.binary, twist.ternary, twist.alpha, name="fresh")
    built = _count_twists(monkeypatch)
    d = apply_gauge(null_deformation(a, 2), random_gauge(a, 2, random.Random(3)))
    base = (*brackets(a), alpha_table(a, 1))
    series = [c.ints for c in d.f_seq[1:] + d.g_seq[1:]]
    for call in range(2):
        built.clear()
        before = sum(len(t.twists) for t in base)
        assert verify_deformation(d).ok and algebra.check_axioms(a).all_passed
        of_base = [t for t in built if any(t is b for b in base)]
        # the first call makes each twist it adds to a base table once (make_algebra
        # has already made those of identities 3 and 4), the second none
        added = sum(len(t.twists) for t in base) - before
        assert len(of_base) == (added if call == 0 else 0), call
        # the first call also twists the coefficients' own tables and binds the
        # generic tables of C2 x C3 for the linear parts, the second nothing
        generic = coboundary._generic_inputs(a, (2, 3))
        assert all(any(t is s for s in (*series, *generic)) for t in built if t not in of_base), call
        assert (len(built) > len(of_base)) == (call == 0), call
    assert [c.ints for c in d.f_seq[1:] + d.g_seq[1:]] == series
    # every twist applies the algebra's own memoised powers of alpha, or none
    powers = [t for key, t in a._memo.items() if key[0] is algebra.alpha_table.__wrapped__]
    applied = [m for t in base for key in t.twists for m in key[0] if m is not None]
    assert applied and all(any(m is t for t in powers) for m in applied)


def test_a_twisted_cochain_does_not_keep_its_algebra_alive():
    """A cochain's twists are keyed by the alpha tables they apply, not by
    the algebra: after obstruction_pair has twisted f1 and g1, the algebra
    is freed while they live on, and their twists with them."""
    a = _fresh_twist()
    f1, g1 = pair_from_coords(a, cohomology_report(a).level2.cocycles.basis.column(0))
    obstruction_pair(a, f1, g1)
    assert f1.ints.twists and g1.ints.twists
    twists = {id(c): dict(c.ints.twists) for c in (f1, g1)}
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
    assert all(c.ints.twists == twists[id(c)] for c in (f1, g1))
    assert not f1.is_zero()


def test_each_cochain_object_keeps_one_table_and_its_twists(monkeypatch):
    """A cochain converts its table once and keeps the twists made of it.
    The probe after obstruction_pair never twists (f2, g2), whose
    equations it reads off the linear parts; on sl2 it twists nothing,
    and on a twisted algebra it twists f1 and g1 for identities 5 and 6,
    whose alpha powers identities 7 and 8 do not use, and never a twist
    the obstruction made.  A repeated probe twists nothing, and a cochain
    rebuilt equal to another gets its own table and twists."""
    built = _count_twists(monkeypatch)
    for a in (sl2(), heisenberg_twisted()):
        report = cohomology_report(a)
        probed = 0
        for j in range(report.level2.cocycles.dim):
            f1, g1 = pair_from_coords(a, report.level2.cocycles.basis.column(j))
            assert f1.ints is f1.ints and g1.ints is g1.ints
            obstruction_pair(a, f1, g1)
            solved = solve_second_order(a, f1, g1)
            if solved is None:
                continue
            made = {id(t): set(t.twists) for t in (f1.ints, g1.ints)}
            built.clear()
            second_order_probe(a, f1, g1, *solved)
            assert not any(c.ints.twists for c in solved), j
            if a.name == "sl2":
                assert built == [], j
            for t in (f1.ints, g1.ints):
                # the obstruction's twists are kept, and each twist the probe makes is new
                assert made[id(t)] <= set(t.twists), j
                assert sum(b is t for b in built) == len(t.twists) - len(made[id(t)]), j
            built.clear()
            second_order_probe(a, f1, g1, *solved)
            assert built == [], j
            probed += 1
        assert probed, a.name
    a = heisenberg_twisted()
    f1, g1 = pair_from_coords(a, cohomology_report(a).level2.cocycles.basis.column(0))
    verify_deformation(first_order_deformation(a, f1, g1, order=2))
    again = Cochain(2, a.dim, dict(f1.table))
    assert again == f1 and again.ints is not f1.ints and not again.ints.twists
    kept = dict(f1.ints.twists)
    built.clear()
    verify_deformation(first_order_deformation(a, again, g1, order=2))
    assert [t for t in built if t is not again.ints] == [] and built
    assert again.ints.twists.keys() == kept.keys() and f1.ints.twists == kept


def test_one_table_keeps_a_twist_per_algebra():
    """A table contracted against two algebras whose alpha differ keeps a
    twist for each, and each algebra reads its own values."""
    first, second = _fresh_twist(), _fresh_twist(Fraction(5, 3))
    table = int_table(bracket_cochain(sl2()).table)
    terms = ((1, "t", ((1, 0), (1, 1))),)
    for a in (first, second, first):
        contraction = contract(a, {"t": table}, terms)
        value = divided(contraction.probe(), contraction.den)
        alpha = Matrix(a.alpha)
        for i, j in itertools.product(range(3), repeat=2):
            expected = evaluate(table, 3, [alpha.column(i), alpha.column(j)])
            assert to_dense(value((i, j)), 3) == expected, (a.name, i, j)
    assert list(table.twists) == [((alpha_table(a, 1),) * 2, None) for a in (first, second)]


def test_each_piece_of_state_has_one_owner():
    """Only cochain.py reads a space's orbit layout, derivations.py imports
    no private name and only leibniz from coboundary, and no function takes
    a dict of twisted tables."""
    src = Path(hlya.__file__).parent
    layout = re.compile(r"_orbit|_free|_basis_cols")
    assert sorted(p.name for p in src.glob("*.py") if layout.search(p.read_text())) == ["cochain.py"]
    imports = [node for node in ast.walk(ast.parse((src / "derivations.py").read_text())) if isinstance(node, ast.ImportFrom)]
    assert not [alias.name for node in imports for alias in node.names if alias.name.startswith("_")]
    assert [alias.name for node in imports if node.module == "coboundary" for alias in node.names] == ["leibniz"]
    assert not [where for where, names in _parameters() if "twisted" in names]


def _parameters():
    """((module, function), parameter names) of every function and lambda
    in the package."""
    for path in Path(hlya.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
                yield (path.name, getattr(node, "name", "lambda")), names


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
    alone.  A linear form is read on the domain basis only through the
    generic cochains, whose unknowns are the basis cochains: no function
    takes a basis to pair forms with, and cochain.py defines no _apply.
    A cochain's table is converted to integers by the cochain alone
    (Cochain.ints): no module calls int_table on a .table attribute."""
    src = Path(hlya.__file__).parent
    assert "Matrix" not in _calls(src / "deformation.py")
    assert "check_axioms" not in _calls(src / "samples.py")
    assert "_basis_cols" not in inspect.getsource(CochainSpace._residual)
    assert not [where for where, names in _parameters() if "basis" in names]
    tree = ast.parse((src / "cochain.py").read_text())
    assert "_apply" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    converted = [
        (path.name, node.lineno)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int_table"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "table" for arg in node.args)
    ]
    assert not converted
