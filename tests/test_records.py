"""The values hlya shares and the result records are immutable values."""

import ast
from pathlib import Path

import pytest

import hlya
from hlya.algebra import Algebra, AxiomReport, IntTable, alpha_table, brackets
from hlya.coboundary import CoboundaryMap, delta1
from hlya.cochain import Cochain, CochainSpace, build_cochain_space
from hlya.cohomology import CohomologyReport, LevelReport, h1
from hlya.deformation import (
    Deformation,
    DeformationReport,
    Gauge,
    ObstructionPair,
    ProbeReport,
    TrivializeResult,
    bracket_cochain,
    identity_gauge,
    null_deformation,
    verify_deformation,
)
from hlya.derivations import DerivationLieReport, DerivationSpace
from hlya.exactlin import Frozen, Matrix, Subspace, solve

# each record's fields, in constructor order
RECORDS = {
    AxiomReport: ("passed", "counterexamples"),
    CoboundaryMap: ("level", "domain", "codomain", "matrix"),
    LevelReport: ("cocycles", "coboundaries", "h_dim"),
    CohomologyReport: ("algebra", "h1", "level2", "level3"),
    DeformationReport: ("order", "failures"),
    TrivializeResult: ("gauge", "obstructed_at", "representative"),
    ObstructionPair: ("first", "second", "in_z4z5"),
    ProbeReport: ("failures",),
    DerivationSpace: ("twist", "basis"),
    DerivationLieReport: ("k_max", "dims", "checked_pairs"),
}


def test_algebra_attributes_cannot_be_set_or_deleted(e1):
    for name in ("dim", "_tables", "name", "_memo", "unknown"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(e1, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(e1, name)
    assert e1.name == "aff1" and e1.dim == 2


def test_renamed_algebra_is_equal_with_the_same_hash(e1, e2):
    tables = (*brackets(e1), alpha_table(e1, 1))
    renamed = Algebra(e1.dim, *tables, "renamed")
    assert renamed == e1 and hash(renamed) == hash(e1) and {e1: 1}[renamed] == 1
    empty = IntTable(1, {})
    assert repr(renamed) == "Algebra(renamed, dim=2)" and repr(Algebra(1, empty, empty, empty)) == "Algebra(?, dim=1)"
    assert renamed._memo is not e1._memo
    # the copy holds tables of its own, so twists made for it stay off e1's
    assert not any(t is s for t in (*brackets(renamed), alpha_table(renamed, 1)) for s in tables)
    assert e1 != e2 and e1 != (e1.dim, *tables)
    assert e1.__eq__(object()) is NotImplemented


def test_deformation_and_gauge_attributes_cannot_be_set_or_deleted(e2):
    # a raised order would let verify_deformation pass orders that have no
    # coefficients
    d = null_deformation(e2, 2)
    p = identity_gauge(e2, 2)
    for value, names in ((d, ("base", "order", "f_seq", "g_seq")), (p, ("base", "order", "phi"))):
        for name in (*names, "unknown"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, 7)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
    assert d.order == p.order == 2 and len(d.f_seq) == len(p.phi) == 3
    assert verify_deformation(d).order == 2


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_immutable_tuples(record):
    fields = RECORDS[record]
    assert record._fields == fields
    value = record(*range(len(fields)))
    assert tuple(value) == tuple(range(len(fields)))
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert tuple(value) == tuple(range(len(fields)))


def test_trivialize_result_defaults():
    assert TrivializeResult(None) == (None, None, None)
    assert not TrivializeResult(None).trivial


def _frozen_values(a):
    """One value of each Frozen class, the memoised ones among them."""
    space = build_cochain_space(a, 2)
    space.basis_cochains  # the cached basis is an attribute too
    return [a, bracket_cochain(a), delta1(a).matrix, h1(a), space, null_deformation(a, 1), identity_gauge(a, 1)]


def _attribute_names(value):
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ()) if not name.startswith("__")]
    return [*slots, *getattr(value, "__dict__", {}), "unknown"]


def test_frozen_values_cannot_be_set_or_deleted(e2):
    """Rebinding an attribute of a memoised value would change every later
    call on the algebra, so no attribute of any of them can be set or
    deleted, and the sequences they share are tuples."""
    values = _frozen_values(e2)
    assert {type(v) for v in values} == {Algebra, Cochain, Matrix, Subspace, CochainSpace, Deformation, Gauge}
    for value in values:
        names = _attribute_names(value)
        kept = {name: getattr(value, name, None) for name in names}
        for name in names:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(value, name)
        assert {name: getattr(value, name, None) for name in names} == kept, type(value).__name__
    for rebind in (
        lambda: setattr(h1(e2), "basis", Matrix.zeros(0, 0)),
        lambda: setattr(delta1(e2).matrix, "cols", 0),
        lambda: setattr(build_cochain_space(e2, 2), "rep_tuples", ()),
    ):
        with pytest.raises(AttributeError, match="immutable"):
            rebind()
    space = build_cochain_space(e2, 2)
    assert type(space.rep_tuples) is type(space.basis_cochains) is tuple
    assert h1(e2).dim == 3 and delta1(e2).matrix.cols == build_cochain_space(e2, 1).dim


def test_frozen_equality_and_hash(e1, e2):
    """Equal fields make equal values, and another type compares as
    NotImplemented; algebras, cochains, matrices and subspaces hash by
    those fields, deformations and gauges are unhashable, and a cochain
    space is equal only to itself."""
    assert Algebra(e2.dim, *brackets(e2), alpha_table(e2, 1), "copy") == e2 and hash(e2) == e2._hash
    equal_pairs = [
        (Cochain(1, 2, {(0,): (1, 0), (1,): (0, 0)}), Cochain(1, 2, {(0,): [1, 0]})),
        (Matrix([[1, 0], [0, 1]]), Matrix.identity(2)),
        (Subspace(2, [[1, 1], [0, 2]]), Subspace(2, [[1, 0], [0, 1]])),
    ]
    for x, y in equal_pairs:
        assert x == y and hash(x) == hash(y) and x.__eq__(object()) is NotImplemented
    unequal = [Cochain(2, 2, {}), Cochain(1, 3, {}), Matrix.zeros(0, 2), Matrix.zeros(2, 0), Subspace(2, [[1, 0]])]
    assert all(v != x for v in unequal for x, _ in equal_pairs)
    m = Matrix([[2, 1], [0, 3]])
    solve(m, [1, 1])  # keeps the reduction on m, which equality ignores
    assert m == Matrix([[2, 1], [0, 3]]) and hash(m) == hash(Matrix([[2, 1], [0, 3]]))
    for make in (null_deformation, identity_gauge):
        value = make(e1, 1)
        assert value == make(e1, 1) and value != make(e1, 2) and value != make(e2, 1)
        with pytest.raises(TypeError):
            hash(value)
    space = build_cochain_space(e1, 2)
    fresh = CochainSpace(e1, 2)
    assert space == space and space != fresh and {space: 1}.get(fresh) is None
    assert fresh.rep_tuples == space.rep_tuples and fresh.basis_cochains == space.basis_cochains


def test_the_immutability_guard_is_stated_once():
    """Only Frozen defines __setattr__, __delattr__ or _immutable, or calls
    object.__setattr__ or super().__setattr__."""
    guard = {"__setattr__", "__delattr__", "_immutable"}
    owners = set()
    for path in sorted(Path(hlya.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            owner = statement.name if isinstance(statement, (ast.ClassDef, ast.FunctionDef)) else None
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.FunctionDef) and node.name in guard
                    or isinstance(node, ast.Name) and node.id in guard
                    or isinstance(node, ast.Attribute) and node.attr in guard
                ):
                    owners.add((path.name, owner))
    assert owners == {("exactlin.py", "Frozen")}
    for cls in (Algebra, Cochain, Matrix, Subspace, CochainSpace, Deformation, Gauge):
        assert issubclass(cls, Frozen), cls.__name__
